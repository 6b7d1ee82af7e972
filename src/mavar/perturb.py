"""Variance-reducing perturbations of reversible kernels.

Two constructions: adding a vorticity matrix (antisymmetric in the
pi-weighted sense) makes the chain non-reversible without changing the
Dirichlet form, and adding a scaled drift with zero row and column sums
moves holding mass onto off-diagonal transitions.  Both preserve the
stationary distribution and, on a reversible base, never increase the
asymptotic variance; on any other base either can raise it, so both
refuse one.
A vorticity gamma, a drift Lambda and every perturbed kernel are plain
float arrays; the validators check their input at the tol they are
given, and the perturbed kernel is checked at DEFAULT_TOL.
"""

import numpy as np

from .errors import KernelError, MavarError, NumericalFailureError, PerturbationError
from .kernel import (
    DEFAULT_TOL,
    _as_matrix,
    _as_vector,
    is_reversible,
    stationary_distribution,
    stationary_residual,
    validate_kernel,
)
from .ordering import peskun_order


def _shapes(K, pi, M, what):
    MK = _as_matrix(K)
    w = _as_vector(pi)
    G = np.asarray(M, dtype=float)
    if G.shape != MK.shape or w.shape[0] != MK.shape[0]:
        raise PerturbationError(
            f"{what} has shape {G.shape}, kernel has {MK.shape}")
    return MK, w, G


def _density(K, pi, gamma):
    """(h, support): h = gamma_ij / K_ij on K's support (pi_i K_ij > 0), 0 off it."""
    w = _as_vector(pi)[:, None]
    Kt = w * _as_matrix(K)
    Gt = w * _as_matrix(gamma)
    support = Kt > 0.0
    h = np.zeros_like(Gt)
    h[support] = Gt[support] / Kt[support]
    return h, support


def validate_vorticity(K, pi, gamma, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check the three vorticity properties against (K, pi); returns gamma.

    (a) zero row sums, (b) antisymmetry of the pi-weighted matrix,
    (c) density bounded by 1 on K's support and no mass off it.
    Raises PerturbationError naming the first property that fails.
    """
    MK, w, G = _shapes(K, pi, gamma, "vorticity")
    rows = G.sum(axis=1)
    worst = int(np.argmax(np.abs(rows)))
    if abs(rows[worst]) > tol:
        raise PerturbationError(f"row {worst} sums to {rows[worst]}")
    Gt = w[:, None] * G
    skew = np.max(np.abs(Gt + Gt.T))
    if skew > tol:
        raise PerturbationError(
            f"pi-weighted vorticity deviates from antisymmetry by {skew}")
    h, support = _density(MK, w, G)
    off = ~support & (np.abs(G) > tol)
    if np.any(off):
        i, j = np.argwhere(off)[0]
        raise PerturbationError(f"vorticity places mass on zero-capacity edge ({i},{j})")
    if np.max(np.abs(h)) > 1.0 + tol:
        i, j = np.unravel_index(np.argmax(np.abs(h)), h.shape)
        raise PerturbationError(f"density {h[i, j]} at edge ({i},{j}) exceeds 1")
    return G


def _perturbed(M, w) -> np.ndarray:
    """validate_kernel(M); PerturbationError if it moves pi by over 1e-10."""
    P = validate_kernel(M)
    resid = stationary_residual(P, w)
    if resid > 1e-10:
        raise PerturbationError(f"perturbed kernel moves pi by {resid}")
    return P


def _reversible_base(K, w):
    """PerturbationError unless (K, pi) is reversible (is_reversible)."""
    if not is_reversible(K, w):
        raise PerturbationError(
            "base kernel is not reversible, so the perturbation may raise its variance")


def make_nonreversible(K, pi, gamma) -> np.ndarray:
    """The perturbed kernel K + gamma for a reversible K; gamma and
    stationarity of pi are verified."""
    _reversible_base(K, pi)
    try:
        checked = validate_vorticity(K, pi, gamma)
    except MavarError as exc:
        raise PerturbationError(f"vorticity does not fit kernel: {exc}") from exc
    return _perturbed(_as_matrix(K) + checked, _as_vector(pi))


def family_alpha(K, pi, gamma, alpha: float) -> np.ndarray:
    """The interpolated kernel K + alpha gamma for alpha in [-1, 1].

    The adjoint of the alpha member is the -alpha member.
    """
    if not -1.0 - 1e-12 <= alpha <= 1.0 + 1e-12:
        raise PerturbationError(f"alpha = {alpha} outside [-1, 1]")
    return make_nonreversible(K, pi, alpha * np.asarray(gamma, dtype=float))


def validate_drift(K, pi, lam, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check the three drift properties against (K, pi); returns Lambda.

    (a') zero row and column sums, (b') nonnegative off-diagonal,
    (c') diagonal loss bounded by the kernel's weighted holding mass,
    pi_i K_ii + Lambda_ii >= -tol, so the perturbed diagonal stays
    nonnegative.  Raises PerturbationError naming the first property that
    fails.
    """
    MK, w, L = _shapes(K, pi, lam, "drift")
    for axis, sums in (("row", L.sum(axis=1)), ("column", L.sum(axis=0))):
        if np.max(np.abs(sums)) > tol:
            raise PerturbationError(f"{axis} {np.argmax(np.abs(sums))} does not sum to zero")
    off = L - np.diag(np.diag(L))
    if np.min(off) < -tol:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise PerturbationError(
            f"drift entry ({i},{j}) = {off[i, j]} is negative")
    slack = w * np.diag(MK) + np.diag(L)
    worst = int(np.argmin(slack))
    if slack[worst] < -tol:
        raise PerturbationError(
            f"diagonal {worst}: pi K_ii + Lambda_ii = {slack[worst]} < 0")
    return L


def apply_drift(K, pi, lam) -> np.ndarray:
    """The perturbed kernel K + diag(pi)^{-1} Lambda for a reversible K.

    The result dominates K in the Peskun order and keeps pi stationary;
    both are verified.
    """
    _reversible_base(K, pi)
    try:
        checked = validate_drift(K, pi, lam)
    except MavarError as exc:
        raise PerturbationError(f"drift does not fit kernel: {exc}") from exc
    MK, w, L = _shapes(K, pi, checked, "drift")
    P = _perturbed(MK + L / w[:, None], w)
    report = peskun_order(MK, P, w)
    if not report.holds:
        raise PerturbationError(
            f"perturbed kernel is not Peskun-above the base (margin {report.margin})")
    return P


def peskun_residual(P, Q, pi=None) -> np.ndarray:
    """The drift Lambda = diag(pi)(Q - P) for a Peskun-ordered pair.

    Every Peskun-above kernel arises from the base by applying this
    residual: for a reversible P, apply_drift(P, pi, residual) reconstructs
    Q.  Raises KernelError when P is not below Q.
    """
    report = peskun_order(P, Q, pi)
    if not report.holds:
        raise KernelError(
            f"pair is not Peskun ordered: off-diagonal margin {report.margin} "
            f"at {report.witness}")
    MP = _as_matrix(P)
    MQ = _as_matrix(Q)
    w = _as_vector(stationary_distribution(MP) if pi is None else pi)
    L = w[:, None] * (MQ - MP)
    validate_drift(MP, w, L, tol=1e-10)
    recon = MP + L / w[:, None]
    err = np.max(np.abs(recon - MQ))
    if err > 1e-12:
        raise NumericalFailureError(f"residual reconstruction error {err}")
    return L

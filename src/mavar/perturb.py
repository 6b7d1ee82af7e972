"""Variance-reducing perturbations of reversible kernels.

Two constructions: adding a vorticity matrix (antisymmetric in the
pi-weighted sense) makes the chain non-reversible without changing the
Dirichlet form, and adding a scaled drift with zero row and column sums
moves holding mass onto off-diagonal transitions.  Both preserve the
stationary distribution and never increase the asymptotic variance.
A drift Lambda and every perturbed kernel are plain float arrays; the
validators check their input at the tol they are given, and the
perturbed kernel is checked at DEFAULT_TOL.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRangeError,
    DensityExceedsOneError,
    DimensionMismatchError,
    DriftDiagonalError,
    DriftRowColSumError,
    MavarError,
    NegativeOffDiagonalError,
    NotAntisymmetricError,
    NotPeskunOrderedError,
    NumericalFailureError,
    PerturbationSpecError,
    VorticityRowSumError,
)
from .kernel import (
    DEFAULT_TOL,
    _as_matrix,
    _as_vector,
    stationary_distribution,
    stationary_residual,
    validate_kernel,
)
from .ordering import peskun_order


@dataclass(frozen=True)
class VorticitySpec:
    """A validated vorticity matrix and its density w.r.t. the kernel."""

    gamma: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.array(self.gamma, dtype=float))
        object.__setattr__(self, "h", np.array(self.h, dtype=float))
        self.gamma.setflags(write=False)
        self.h.setflags(write=False)


def _shapes(K, pi, M, what):
    MK = _as_matrix(K)
    w = _as_vector(pi)
    G = np.asarray(M, dtype=float)
    if G.shape != MK.shape or w.shape[0] != MK.shape[0]:
        raise DimensionMismatchError(
            f"{what} has shape {G.shape}, kernel has {MK.shape}")
    return MK, w, G


def validate_vorticity(K, pi, gamma, tol: float = DEFAULT_TOL) -> VorticitySpec:
    """Check the three vorticity properties against (K, pi).

    (a) zero row sums, (b) antisymmetry of the pi-weighted matrix,
    (c) density bounded by 1 on K's support and no mass off it.
    """
    MK, w, G = _shapes(K, pi, gamma, "vorticity")
    rows = G.sum(axis=1)
    worst = int(np.argmax(np.abs(rows)))
    if abs(rows[worst]) > tol:
        raise VorticityRowSumError(f"row {worst} sums to {rows[worst]}")
    Gt = w[:, None] * G
    skew = np.max(np.abs(Gt + Gt.T))
    if skew > tol:
        raise NotAntisymmetricError(
            f"pi-weighted vorticity deviates from antisymmetry by {skew}")
    Kt = w[:, None] * MK
    support = Kt > 0.0
    off = ~support & (np.abs(G) > tol)
    if np.any(off):
        i, j = np.argwhere(off)[0]
        raise DensityExceedsOneError(
            f"vorticity places mass on zero-capacity edge ({i},{j})",
            edge=(int(i), int(j)))
    h = np.zeros_like(G)
    h[support] = Gt[support] / Kt[support]
    if np.max(np.abs(h)) > 1.0 + tol:
        i, j = np.unravel_index(np.argmax(np.abs(h)), h.shape)
        raise DensityExceedsOneError(
            f"density {h[i, j]} at edge ({i},{j}) exceeds 1",
            edge=(int(i), int(j)))
    return VorticitySpec(G, h)


def _perturbed(M, w) -> np.ndarray:
    """validate_kernel(M); PerturbationSpecError if it moves pi by over 1e-10."""
    P = validate_kernel(M)
    resid = stationary_residual(P, w)
    if resid > 1e-10:
        raise PerturbationSpecError(f"perturbed kernel moves pi by {resid}")
    return P


def make_nonreversible(K, pi, spec: VorticitySpec) -> np.ndarray:
    """The perturbed kernel K + gamma; stationarity of pi is verified."""
    try:
        checked = validate_vorticity(K, pi, spec.gamma)
    except MavarError as exc:
        raise PerturbationSpecError(f"vorticity does not fit kernel: {exc}") from exc
    MK, w, G = _shapes(K, pi, checked.gamma, "vorticity")
    return _perturbed(MK + G, w)


def family_alpha(K, pi, spec: VorticitySpec, alpha: float) -> np.ndarray:
    """The interpolated kernel K + alpha gamma for alpha in [-1, 1].

    The adjoint of the alpha member is the -alpha member.
    """
    if not -1.0 - 1e-12 <= alpha <= 1.0 + 1e-12:
        raise AlphaOutOfRangeError(f"alpha = {alpha} outside [-1, 1]")
    scaled = VorticitySpec(alpha * spec.gamma, alpha * spec.h)
    return make_nonreversible(K, pi, scaled)


def validate_drift(K, pi, lam, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check the three drift properties against (K, pi); returns Lambda.

    (a') zero row and column sums, (b') nonnegative off-diagonal,
    (c') diagonal loss bounded by the kernel's weighted holding mass,
    pi_i K_ii + Lambda_ii >= -tol, so the perturbed diagonal stays
    nonnegative.
    """
    MK, w, L = _shapes(K, pi, lam, "drift")
    for axis, sums in (("row", L.sum(axis=1)), ("column", L.sum(axis=0))):
        if np.max(np.abs(sums)) > tol:
            raise DriftRowColSumError(f"{axis} {np.argmax(np.abs(sums))} does not sum to zero")
    off = L - np.diag(np.diag(L))
    if np.min(off) < -tol:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise NegativeOffDiagonalError(
            f"drift entry ({i},{j}) = {off[i, j]} is negative")
    slack = w * np.diag(MK) + np.diag(L)
    worst = int(np.argmin(slack))
    if slack[worst] < -tol:
        raise DriftDiagonalError(
            f"diagonal {worst}: pi K_ii + Lambda_ii = {slack[worst]} < 0")
    return L


def apply_drift(K, pi, lam) -> np.ndarray:
    """The perturbed kernel K + diag(pi)^{-1} Lambda.

    The result dominates K in the Peskun order and keeps pi stationary;
    both are verified.
    """
    try:
        checked = validate_drift(K, pi, lam)
    except MavarError as exc:
        raise PerturbationSpecError(f"drift does not fit kernel: {exc}") from exc
    MK, w, L = _shapes(K, pi, checked, "drift")
    P = _perturbed(MK + L / w[:, None], w)
    report = peskun_order(MK, P, w)
    if not report.holds:
        raise PerturbationSpecError(
            f"perturbed kernel is not Peskun-above the base (margin {report.margin})")
    return P


def peskun_residual(P, Q, pi=None) -> np.ndarray:
    """The drift Lambda = diag(pi)(Q - P) for a Peskun-ordered pair.

    Every Peskun-above kernel arises from the base by applying this
    residual: apply_drift(P, pi, residual) reconstructs Q.  Raises
    NotPeskunOrderedError when P is not below Q.
    """
    report = peskun_order(P, Q, pi)
    if not report.holds:
        raise NotPeskunOrderedError(
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

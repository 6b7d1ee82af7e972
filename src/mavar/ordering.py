"""Partial orders on kernels and distributions tied to asymptotic variance.

Three kernel orders (Peskun, Dirichlet-form, partial-sum) plus
majorization of laws along trajectories and a uniform variance
domination test over all centered observables.  Each decides at
ORDER_TOL, for kernels that share pi within DEFAULT_TOL.

Each kernel order and the domination test is computed for both
directions from one matrix: the reverse difference is the negated
forward one, so the entrywise orders scan its negation and the
eigenvalue tests read the other end of one eigensolve.  order_pairs
returns every pair; the one-direction functions are the forward halves.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotProbabilityVectorError,
    StationaryMismatchError,
)
from .kernel import (
    DEFAULT_TOL,
    _as_chain,
    _as_matrix,
    _as_vector,
    stationary_distribution,
    stationary_residual,
)

ORDER_TOL = 1e-10


@dataclass(frozen=True)
class OrderReport:
    """Outcome of a kernel-order test.

    holds iff margin >= -ORDER_TOL; witness locates the worst
    violation, as an (i, j) entry or, for the Dirichlet order, as a
    function on states, and is present only when the order fails.
    """

    relation: str
    holds: bool
    margin: float
    witness: object = None

    def as_dict(self) -> dict:
        return {
            "relation": self.relation,
            "holds": self.holds,
            "margin": self.margin,
            "witness": None if self.witness is None else np.asarray(self.witness).tolist(),
        }


@dataclass(frozen=True)
class MajorizationTrajectory:
    """Per-step majorization checks of two laws from a common start."""

    steps: tuple
    warnings: tuple


def _shared_stationary(P1, P2, pi):
    M1 = _as_matrix(P1)
    M2 = _as_matrix(P2)
    if M1.shape != M2.shape:
        raise DimensionMismatchError(
            f"kernels have shapes {M1.shape} and {M2.shape}")
    w = _as_vector(stationary_distribution(M1) if pi is None else pi)
    for label, M in (("first", M1), ("second", M2)):
        resid = stationary_residual(M, w)
        if resid > DEFAULT_TOL:
            raise StationaryMismatchError(
                f"{label} kernel moves pi by {resid}")
    return M1, M2, w


def _entry_pair(relation, lower, upper, skip_diagonal=False):
    """Reports of upper >= lower and of lower >= upper, entrywise.

    The reverse scan reads the negated forward difference.  Negation is
    exact, so its worst entry is the one the swapped subtraction finds; a
    zero margin is recomputed from the operands, where that subtraction
    may round to -0.0.  The witness is the worst (i, j), present only
    when the order fails.
    """
    diff = upper - lower
    reports = []
    for low, high in ((lower, upper), (upper, lower)):
        if reports:
            np.negative(diff, out=diff)
        if skip_diagonal:
            np.fill_diagonal(diff, np.inf)
        flat = np.argmin(diff)
        margin = float(diff.flat[flat])
        if margin == 0.0:
            margin = float(high.flat[flat] - low.flat[flat])
        holds = margin >= -ORDER_TOL
        witness = None if holds else tuple(int(k) for k in np.unravel_index(flat, diff.shape))
        reports.append(OrderReport(relation, holds, margin, witness))
    return tuple(reports)


def _peskun_pair(M1, M2):
    return _entry_pair("peskun", M1, M2, skip_diagonal=True)


def _dirichlet_pair(M1, M2, w):
    """One eigh of the symmetrized weighted difference G serves both
    directions: the reverse matrix is -G, whose smallest eigenvalue is
    -lambda_max(G) with the same eigenvector."""
    G = w[:, None] * (M1 - M2)
    G += G.T  # numpy reads G.T as it was before the sum
    G *= 0.5
    vals, vecs = np.linalg.eigh(G)
    reports = []
    # 0.0 - x, unlike -x, reports an exact zero as +0.0, as the swapped eigh does
    for margin, col in ((float(vals[0]), 0), (0.0 - float(vals[-1]), -1)):
        holds = margin >= -ORDER_TOL
        reports.append(OrderReport("dirichlet", holds, margin,
                                   None if holds else vecs[:, col].copy()))
    return tuple(reports)


def _double_partial_sums(M, w):
    return np.cumsum(np.cumsum(w[:, None] * M, axis=0), axis=1)


def _fk_pair(M1, M2, w):
    return _entry_pair("fill_kahn", _double_partial_sums(M1, w), _double_partial_sums(M2, w))


def _domination_pair(P1, P2, w):
    """uniform_variance_domination in both directions from one eigh: the
    reverse difference of forms is the negation of the forward one."""
    c1 = _as_chain(P1, w)
    frame = c1.frame
    diff = _variance_form(c1) - _variance_form(_as_chain(P2, w))
    del c1  # a chain built here takes its form with it before the eigensolve
    vals, vecs = np.linalg.eigh(diff)
    return tuple((True, None) if margin >= -ORDER_TOL else (False, frame.lift(vecs[:, col]))
                 for margin, col in ((vals[0], 0), (-vals[-1], -1)))


def order_pairs(P1, P2, pi=None) -> dict:
    """Every order of `mavar compare`, each as (P1 -> P2, P2 -> P1).

    Keys peskun, dirichlet and fill_kahn hold OrderReports; domination
    holds two uniform_variance_domination results.  pi is checked once,
    and each order's matrix is freed before the next one is built.
    """
    M1, M2, w = _shared_stationary(P1, P2, pi)
    return {
        "peskun": _peskun_pair(M1, M2),
        "dirichlet": _dirichlet_pair(M1, M2, w),
        "fill_kahn": _fk_pair(M1, M2, w),
        "domination": _domination_pair(P1, P2, w),
    }


def peskun_order(P1, P2, pi=None) -> OrderReport:
    """Entrywise off-diagonal order: P1 <= P2 away from the diagonal."""
    M1, M2, _ = _shared_stationary(P1, P2, pi)
    return _peskun_pair(M1, M2)[0]


def dirichlet_order(P1, P2, pi=None) -> OrderReport:
    """Form order: <(I - P1) xi, xi>_pi <= <(I - P2) xi, xi>_pi for all xi.

    Equivalent to positive semidefiniteness of the symmetrized weighted
    difference; the margin is its smallest eigenvalue.  Constants are a
    structural null direction, so the margin of a comparable pair is 0.
    """
    return _dirichlet_pair(*_shared_stationary(P1, P2, pi))[0]


def fk_order(P, Q, pi=None) -> OrderReport:
    """Partial-sum order: every leading block of pi-weighted mass of P
    is at most that of Q.

    margin is the minimum over blocks of the difference; the witness is
    the worst (row, column) block, 0-indexed inclusive.
    """
    return _fk_pair(*_shared_stationary(P, Q, pi))[0]


def stochastically_monotone(P) -> bool:
    """True iff the rows are stochastically non-decreasing in the state.

    Criterion: the row-wise tail sums sum_{j >= m} P_ij are
    non-decreasing in i for every m, checked here through cumulative
    sums (heads non-increasing in i).
    """
    M = _as_matrix(P)
    heads = np.cumsum(M, axis=1)
    return bool(np.max(heads[1:] - heads[:-1]) <= ORDER_TOL)


def _check_probability(v):
    x = np.asarray(v, dtype=float)
    if x.ndim != 1:
        raise NotProbabilityVectorError(f"expected a vector, got shape {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise NotProbabilityVectorError(f"entry {bad[0]} is {x[bad[0]]}")
    if np.min(x) < -ORDER_TOL:
        raise NotProbabilityVectorError(f"negative mass {np.min(x)}")
    if abs(x.sum() - 1.0) > DEFAULT_TOL:
        raise NotProbabilityVectorError(f"total mass {x.sum()} is not 1")
    return x


def majorizes(v, w) -> bool:
    """True iff the sorted partial sums of v dominate those of w."""
    x = _check_probability(v)
    y = _check_probability(w)
    if x.shape != y.shape:
        raise DimensionMismatchError(
            f"vectors have shapes {x.shape} and {y.shape}")
    return _majorization_margin(x, y) >= -ORDER_TOL


def _majorization_margin(v, w):
    sx = np.cumsum(np.sort(v)[::-1])
    sy = np.cumsum(np.sort(w)[::-1])
    return float(np.min(sx - sy))


def majorization_trajectory(K, P_accel, initial, n_steps: int) -> MajorizationTrajectory:
    """Check stepwise that the baseline law majorizes the accelerated law.

    Both chains start from the same initial law; at each step t the
    report records (holds, margin) for 'law of K-chain majorizes law of
    the accelerated chain'.  The sufficient conditions (both kernels
    stochastically monotone, stationary weights non-increasing, initial
    density w.r.t. pi non-increasing, shared stationary distribution)
    are checked and violations reported as warnings, not errors.
    """
    MK = _as_matrix(K)
    MP = _as_matrix(P_accel)
    rho = _check_probability(initial)
    warnings = []
    if not stochastically_monotone(MK):
        warnings.append("baseline kernel is not stochastically monotone")
    if not stochastically_monotone(MP):
        warnings.append("accelerated kernel is not stochastically monotone")
    try:
        _, _, w = _shared_stationary(MK, MP, None)
    except StationaryMismatchError:
        warnings.append("kernels do not share a stationary distribution")
        w = _as_vector(stationary_distribution(MK))
    if np.max(np.diff(w)) > ORDER_TOL:
        warnings.append("stationary weights are not non-increasing")
    ratio = rho / w
    if np.max(np.diff(ratio)) > ORDER_TOL:
        warnings.append("initial density w.r.t. pi is not non-increasing")
    steps = []
    law_base = law_accel = rho
    for _ in range(n_steps):
        law_base = law_base @ MK
        law_accel = law_accel @ MP
        margin = _majorization_margin(law_base, law_accel)
        steps.append((margin >= -ORDER_TOL, margin))
    return MajorizationTrajectory(tuple(steps), tuple(warnings))


def _variance_form(chain):
    """chain.variance_form, the one array a comparison reads of a chain, so
    the chain's two other n x n arrays are dropped once it is built."""
    form = chain.variance_form
    chain.drop_factors()
    return form


def uniform_variance_domination(P1, P2, pi=None):
    """Does sigma^2(P2, f) <= sigma^2(P1, f) hold for every centered f?

    Tests positive semidefiniteness of the difference of the two
    variance quadratic forms on the mean-zero subspace.  Returns
    (holds, witness); the witness is a centered observable whose
    variance ordering is violated, present only on failure.  Passing
    ReducedChains reuses their variance forms across calls; each chain
    drops its A and (I - A)^{-1} once its form is built.
    """
    _, _, w = _shared_stationary(P1, P2, pi)
    return _domination_pair(P1, P2, w)[0]

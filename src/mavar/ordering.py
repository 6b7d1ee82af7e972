"""Partial orders on kernels tied to asymptotic variance.

Three kernel orders (Peskun, Dirichlet-form, partial-sum) plus a
uniform variance domination test over all centered observables.  Each
decides at ORDER_TOL, for kernels that share pi within DEFAULT_TOL.

Each kernel order and the domination test is computed for both
directions from one matrix: the reverse difference is the negated
forward one, so the entrywise orders scan its negation and the
eigenvalue tests read the other end of one eigensolve.  order_pairs
returns every pair; the one-direction functions are the forward halves.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, StationaryMismatchError
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

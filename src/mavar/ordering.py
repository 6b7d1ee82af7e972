"""Partial orders on kernels tied to asymptotic variance.

Four orders on kernels that share pi within DEFAULT_TOL: Peskun,
Dirichlet-form and partial-sum, which decide at ORDER_TOL, and uniform
variance domination over all centered observables, which decides at its
variance forms' rounding.

Each order is computed for both directions from one matrix: the reverse
difference is the negated forward one, so the entrywise orders scan its
negation and the eigenvalue orders read the other end of one eigensolve.
order_pairs returns every pair; peskun_order and fk_order are the forward
halves of their pairs.  order_pairs takes apart the chains it is handed,
as ReducedChain states, and never changes a kernel array.
"""

from dataclasses import dataclass

import numpy as np

from .errors import KernelError, StationaryMismatchError
from .kernel import (
    DEFAULT_TOL,
    ReducedChain,
    _as_matrix,
    _as_vector,
    _gamma,
    stationary_distribution,
    stationary_residual,
)

ORDER_TOL = 1e-10


@dataclass(frozen=True)
class OrderReport:
    """Outcome of a kernel-order test.

    holds iff margin >= -ORDER_TOL, or for domination iff the margin is
    within the forms' rounding of 0 or above; witness locates the worst
    violation, as an (i, j) entry or, for the Dirichlet order and
    domination, as a function on states, and is present only when the
    order fails.
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
        raise KernelError(
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


def _eigen_pair(relation, G, tol, witness):
    """Reports of G >= 0 and of -G >= 0, in the Loewner order, from one eigh
    of the symmetric G: -G's smallest eigenvalue is -lambda_max(G), with the
    same eigenvector.  A margin holds at -tol; the witness, present only on
    failure, is witness(eigenvector)."""
    vals, vecs = np.linalg.eigh(G)
    reports = []
    # 0.0 - x, unlike -x, reports an exact zero as +0.0, as the swapped eigh does
    for margin, col in ((float(vals[0]), 0), (0.0 - float(vals[-1]), -1)):
        holds = margin >= -tol
        reports.append(OrderReport(relation, holds, margin,
                                   None if holds else witness(vecs[:, col])))
    return tuple(reports)


def _dirichlet_matrix(M1, M2, w):
    """The symmetrized weighted difference G of the form order
    <(I - P1) xi, xi>_pi <= <(I - P2) xi, xi>_pi for all xi: the forward
    margin is G's smallest eigenvalue (constants are a structural null
    direction, so a comparable pair has margin 0)."""
    G = M1 - M2
    G *= w[:, None]  # in the difference's memory, bit for bit w[:, None] * G
    G += G.T  # numpy reads G.T as it was before the sum
    G *= 0.5
    return G


def _double_partial_sums(M, w):
    return np.cumsum(np.cumsum(w[:, None] * M, axis=0), axis=1)


def _fk_pair(M1, M2, w):
    return _entry_pair("fill_kahn", _double_partial_sums(M1, w), _double_partial_sums(M2, w))


def _domination_pair(c1, c2):
    """Uniform variance domination, sigma^2(P2, f) <= sigma^2(P1, f) for every
    centered f, both ways: the forward margin is the smallest eigenvalue of
    the difference of the two variance forms on the mean-zero subspace, and
    the witness is a centered observable whose variance ordering fails.  The
    forms scale as sigma^2, so a margin holds down to their rounding, not
    ORDER_TOL.  The difference is taken in the first form's memory.
    """
    lift = c1.frame.lift
    (F1, e1), (F2, e2) = _variance_form(c1), _variance_form(c2)
    diff = np.subtract(F1, F2, out=F1)
    del F1, F2  # the second form goes before the eigensolve
    return _eigen_pair("domination", diff, e1 + e2, lift)


def order_pairs(P1, P2, pi=None) -> dict:
    """Every order of `mavar compare`, each as (P1 -> P2, P2 -> P1).

    Keys peskun, dirichlet, fill_kahn and domination each hold two
    OrderReports.  pi is checked once.  P1 and P2 are kernels or
    ReducedChains; a chain is taken apart (see ReducedChain), and a chain
    passed twice is built again from its kernel the second time.

    Peskun, Fill-Kahn and the Dirichlet matrix G are built first.  Then each
    chain builds A and drops its kernel, so the second A is built in the
    first kernel's place when the caller keeps no other name on it.  The
    domination test drops each chain's A and inverse as it builds its form
    and takes the difference of the forms in the first one; its eigh runs
    beside G alone, and the Dirichlet eigh runs last.
    """
    M1, M2, w = _shared_stationary(P1, P2, pi)
    c1 = P1 if isinstance(P1, ReducedChain) else ReducedChain(M1, w)
    c2 = P2 if isinstance(P2, ReducedChain) and P2 is not c1 else ReducedChain(M2, w)
    peskun, fill_kahn = _peskun_pair(M1, M2), _fk_pair(M1, M2, w)
    G = _dirichlet_matrix(M1, M2, w)
    del M1, M2  # the chains hold the last names on their kernels here
    c1.drop_kernel()
    c2.drop_kernel()
    domination = _domination_pair(c1, c2)
    return {
        "peskun": peskun,
        "dirichlet": _eigen_pair("dirichlet", G, ORDER_TOL, np.copy),
        "fill_kahn": fill_kahn,
        "domination": domination,
    }


def peskun_order(P1, P2, pi=None) -> OrderReport:
    """Entrywise off-diagonal order: P1 <= P2 away from the diagonal."""
    M1, M2, _ = _shared_stationary(P1, P2, pi)
    return _peskun_pair(M1, M2)[0]


def fk_order(P, Q, pi=None) -> OrderReport:
    """Partial-sum order: every leading block of pi-weighted mass of P
    is at most that of Q.

    margin is the minimum over blocks of the difference; the witness is
    the worst (row, column) block, 0-indexed inclusive.
    """
    return _fk_pair(*_shared_stationary(P, Q, pi))[0]


def _variance_form(chain):
    """(F, e): the variance form F = (X + X^T)/2, X = chain.inv the inverse of
    B = I - A, so sigma^2(P, f) = y^T F y, and e = 2 gamma_m ||X||_1^2, how far
    rounding may move an eigenvalue of F.  The chain forgets every factor
    before F is built.

    An inverse from an LU factorization has a forward error of about
    gamma_m kappa(B) ||X|| = gamma_m ||B|| ||X||^2 (Higham 2002, sec. 14.1),
    with ||B||_2 <= 2, a pi-stationary kernel being a pi-norm contraction; A's
    rounding, of order u, moves X by ||X||^2 times as much; and by Weyl's
    inequality no eigenvalue moves by more than the error's 2-norm.  ||X||_1,
    from the chain's Poisson gate, stands for ||X||_2, which it bounds for a
    reversible chain (X symmetric) and within sqrt(m) for any other.  To
    first order in u, as the records of mavar.checks.
    """
    X = chain.inv
    for name in chain._FACTORS:
        chain.forget(name)
    form = X + X.T
    form *= 0.5
    return form, float(2.0 * _gamma(chain.m) * chain._inv_norm1 ** 2)

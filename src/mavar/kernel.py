"""Stochastic kernels, stationary distributions, and pi-weighted geometry.

A kernel is a row-stochastic matrix P acting on functions f: states -> R
by (Pf)_i = sum_j P_ij f_j.  All inner products are weighted by a
stationary distribution pi.  Kernels, pi, an observable f and every
function the package returns (Poisson solutions, test functions,
witnesses) are plain float arrays indexed by state; validate_kernel
returns a read-only copy.  A kernel carries no tolerance: adjoint checks
pi P = pi at DEFAULT_TOL and normalises the rows it builds, and
is_reversible holds the one detailed-balance threshold, STRICT_TOL.
The workhorse is MeanZeroFrame, an orthonormal basis of the
pi-mean-zero subspace in which the pi-inner product becomes Euclidean
and the pi-adjoint becomes the transpose; ReducedChain keeps one chain's
reduced operator A, its factorizations and its spectrum.  The spectrum
comes from one eigensolve of A (of its symmetric part for a reversible
chain), which the spectral route, the mean-zero spectral radius and the
solvability gate's fallback all read; no eigensolve runs in the full
n-state space.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateKernelError,
    KernelError,
    MavarError,
    NumericalFailureError,
    ObservableError,
    PerturbationError,
    ReducibleError,
    StationaryMismatchError,
)

DEFAULT_TOL = 1e-9
STRICT_TOL = 1e-12
SOLVABLE_TOL = 1e-12
# an inverse computed near singularity is itself inaccurate, so the norm gates
# pass only with this margin over SOLVABLE_TOL and leave closer calls to the spectrum
GATE_SAFETY = 1e6
UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma(k):
    """gamma_k = k u / (1 - k u), the bound on the relative rounding error of
    k floating-point operations in a row (Higham 2002, sec. 3.1)."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def _as_matrix(P):
    """Plain float matrix from a ReducedChain or array."""
    if isinstance(P, ReducedChain):
        return P.rows
    return np.asarray(P, dtype=float)


def _as_vector(x):
    """Plain float array from a list or array."""
    return np.asarray(x, dtype=float)


def _shift_minus(X, shift=1.0, out=None):
    """shift * I - X, bit for bit as np.eye(n) * shift - X, with no identity built.

    0.0 - x, unlike -x, gives the +0.0 that eye - X has where X holds +0.0,
    and (0.0 - x) + shift rounds as shift - x.  out may be X itself.
    """
    out = np.subtract(0.0, X, out=out)
    out.flat[:: out.shape[0] + 1] += shift
    return out


def _norm1(X):
    """np.linalg.norm(X, 1) bit for bit, with no temporary of X's size:
    numpy sums |X| down the columns a row at a time, in order, and so does
    this."""
    sums = np.zeros(X.shape[1])
    row_abs = np.empty_like(sums)
    for row in X:
        sums += np.abs(row, out=row_abs)
    return sums.max()


# the error check_finite raises for each kind of input it names
_INPUT_ERRORS = {"kernel": KernelError, "observable": ObservableError,
                 "perturbation matrix": PerturbationError}


def check_finite(values, what: str):
    """values as a float array; at a NaN or inf entry raises the input error
    of what (KernelError, ObservableError or PerturbationError; MavarError
    for any other name)."""
    a = np.asarray(values, dtype=float)
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        where = idx[0] if a.ndim == 1 else idx
        raise _INPUT_ERRORS.get(what, MavarError)(f"{what} entry {where} is {a[idx]}")
    return a


def centered(values, pi) -> np.ndarray:
    """values minus their pi-mean, or exact zeros when every centered value is
    within gamma_{n+1} max|values| of zero: the most rounding that centering
    a constant can leave (an n-term sum and a subtraction), so a constant has
    zero variance however its mean rounds.

    Raises ObservableError when the lengths differ or at a NaN or inf entry.
    """
    v = _as_vector(values)
    w = _as_vector(pi)
    if v.shape != w.shape:
        raise ObservableError(
            f"observable has length {v.shape}, distribution has {w.shape}")
    check_finite(v, "observable")
    c = v - w @ v
    bound = _gamma(len(v) + 1) * np.max(np.abs(v), initial=0.0)
    return np.zeros_like(c) if np.max(np.abs(c), initial=0.0) <= bound else c


def validate_kernel(matrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check and normalize a candidate transition matrix.

    Returns a read-only float copy.  Entries in [-tol, 0) are clamped to
    0 and the row renormalized.  Raises KernelError otherwise.
    """
    M = np.array(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise KernelError(f"kernel must be square, got shape {M.shape}")
    if M.shape[0] < 2:
        raise KernelError("kernel needs at least 2 states")
    check_finite(M, "kernel")
    low = M.min()
    if low < -tol:
        i, j = np.unravel_index(np.argmin(M), M.shape)
        raise KernelError(f"entry ({i},{j}) = {low} is below -tol")
    M[M < 0.0] = 0.0
    sums = M.sum(axis=1)
    bad = np.argmax(np.abs(sums - 1.0))
    if abs(sums[bad] - 1.0) > tol:
        raise KernelError(f"row {bad} sums to {sums[bad]}")
    M /= sums[:, None]
    M.setflags(write=False)
    return M


def _reaches_all(G) -> bool:
    """True iff every state is reachable from state 0 along G's edges.

    Each state joins the frontier once, so the sweeps read O(n^2) entries.
    """
    seen = np.zeros(G.shape[0], dtype=bool)
    seen[:1] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = G[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.size and seen.all())  # no states: not irreducible


def is_irreducible(P) -> bool:
    """True iff the support digraph is strongly connected."""
    G = _as_matrix(P) > 0.0
    return _reaches_all(G) and _reaches_all(G.T)


def stationary_distribution(P) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 for an irreducible kernel.

    Raises ReducibleError if the chain is reducible and
    NumericalFailureError if the solve cannot meet a 1e-12 residual.
    """
    M = _as_matrix(P)
    if not is_irreducible(M):
        raise ReducibleError("kernel is reducible")
    n = M.shape[0]
    # replace one balance equation with the normalization constraint
    A = M.T.copy()
    A.flat[:: n + 1] -= 1.0
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        x = np.linalg.solve(A, b)
        x += np.linalg.solve(A, b - A @ x)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"stationary solve failed: {exc}") from exc
    if x.min() <= 0.0:
        raise NumericalFailureError("stationary solve produced a nonpositive weight")
    x /= x.sum()
    resid = np.max(np.abs(x @ M - x))
    if resid > STRICT_TOL:
        raise NumericalFailureError(f"stationary residual {resid} exceeds 1e-12")
    return x


def stationary_residual(P, pi) -> float:
    """max_j |(pi P)_j - pi_j|: how far P moves pi."""
    w = _as_vector(pi)
    return float(np.max(np.abs(w @ _as_matrix(P) - w)))


def adjoint(P, pi) -> np.ndarray:
    """Time reversal: the pi-adjoint kernel (P*)_ij = pi_j P_ji / pi_i.

    Row i of P* sums to 1 + (pi P - pi)_i / pi_i, so once pi P = pi holds
    within DEFAULT_TOL the rows are normalised, not checked again: a small
    pi_i would blow a residual of 1e-16 up past any row-sum tolerance.
    Returns a read-only array; raises StationaryMismatchError when pi P = pi
    fails.
    """
    M = _as_matrix(P)
    w = _as_vector(pi)
    resid = stationary_residual(M, w)
    if resid > DEFAULT_TOL:
        raise StationaryMismatchError(f"pi P differs from pi by {resid}")
    star = check_finite((w[None, :] * M.T) / w[:, None], "kernel")
    star /= star.sum(axis=1)[:, None]
    star.setflags(write=False)
    return star


def is_reversible(P, pi) -> bool:
    """Detailed balance within STRICT_TOL, the package's one reversibility test.

    A ReducedChain keeps the answer for its own pi as `reversible`.
    """
    w = _as_vector(pi)
    M = _as_matrix(P)
    F = w[:, None] * M
    D = F - F.T
    return bool(np.max(np.abs(D, out=D)) <= STRICT_TOL)


def pi_inner(f, g, pi) -> float:
    """The weighted inner product sum_i pi_i f_i g_i."""
    fv = _as_vector(f)
    gv = _as_vector(g)
    w = _as_vector(pi)
    if fv.shape != gv.shape or fv.shape != w.shape:
        raise ObservableError(
            f"shapes {fv.shape}, {gv.shape}, {w.shape} do not agree")
    return float(np.sum(w * fv * gv))


@dataclass(frozen=True)
class MeanZeroFrame:
    """Orthonormal coordinates for the pi-mean-zero subspace.

    The frame is columns 1.. of the Householder reflection
    H = I - 2 v v^T sending e_0 to sqrt(pi): n-1 Euclidean-orthonormal
    vectors spanning the complement of sqrt(pi).  Mapping f to
    y = H[:, 1:]^T (sqrt(pi) * f) turns the pi-inner product into the
    Euclidean one, and conjugating a pi-stationary kernel into these
    coordinates turns the pi-adjoint into the plain matrix transpose.
    Products with H are rank-1 updates, so H is never formed.
    """

    pi: np.ndarray
    sqrt_pi: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    @classmethod
    def from_pi(cls, pi) -> "MeanZeroFrame":
        w = _as_vector(pi)
        s = np.sqrt(w)
        v = s.copy()
        v[0] -= 1.0
        nv = np.linalg.norm(v)
        return cls(w, s, v / nv if nv >= 1e-15 else 0.0 * v)  # H = I

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    def _per_state(self, x):
        """sqrt(pi) shaped to scale the rows of x, one function or an n x k block."""
        return self.sqrt_pi.reshape(self.sqrt_pi.shape + (1,) * (np.ndim(x) - 1))

    def _expand(self, y):
        """H[:, 1:] @ y for y of n-1 rows."""
        out = np.zeros((self.n,) + y.shape[1:])
        out[1:] = y
        out -= 2.0 * np.multiply.outer(self.v, self.v[1:] @ y)
        return out

    def _contract(self, x):
        """H[:, 1:]^T @ x for x of n rows, in one array of the result's size.

        A block's rank-one term v[1:] (v^T x) is a matrix product, bit for bit
        the outer product (one rounded product per entry), which numpy would
        compute with a 128 KB broadcast buffer beside the result.
        """
        w = self.v @ x
        out = np.multiply.outer(self.v[1:], w) if np.ndim(w) == 0 else self.v[1:, None] @ w[None]
        out *= 2.0
        return np.subtract(x[1:], out, out=out)

    def reduce(self, f) -> np.ndarray:
        """Coordinates of the centered part of f, column by column for a block."""
        fv = _as_vector(f)
        return self._contract(self._per_state(fv) * fv)

    def lift(self, y) -> np.ndarray:
        """The mean-zero function with the given coordinates, column by column
        for a block."""
        yv = np.asarray(y, dtype=float)
        return self._expand(yv) / self._per_state(yv)

    def operator(self, P) -> np.ndarray:
        """The kernel's action on mean-zero coordinates.

        For pi-stationary P this is the (n-1) x (n-1) block of the
        symmetrized conjugate D^{1/2} P D^{-1/2}; its transpose is the
        reduced adjoint.
        """
        C = self.sqrt_pi[:, None] * _as_matrix(P)
        C /= self.sqrt_pi[None, :]
        C = self._contract(C.T)  # frees the conjugate before the second product
        return self._contract(C.T)


class ReducedChain:
    """One chain (P, pi) in mean-zero coordinates, factored at most once.

    Holds the kernel rows, the frame, the reduced operator A, the inverse
    of I - A, the inverse of I - S with S = (A + A^T)/2, the factored
    operator T = (I - A)(I - S)^{-1}(I - A)^T, the spectrum of A and
    whether the chain is reversible, each built on first use.  Every
    function that takes (P, pi) accepts a chain in place of P, and then
    uses the chain's pi.

    A chain frees what its owner says it is done with: forget(name) drops a
    factor, which a later use rebuilds from the kernel, and drop_kernel()
    drops the rows once A and reversible, all the chain reads of them, are
    built.  inv and T form I - A in A's own memory and give A back.

    A chain handed to checks.battery or ordering.order_pairs is taken apart:
    its kernel rows and every m x m factor are dropped after their last
    reader, and afterwards it holds only its frame, pi, m, its spectrum and
    its flags.  A caller who wants to keep a chain hands over
    ReducedChain(chain.rows, chain.pi) instead.
    """

    # the m x m factors, each a name forget drops
    _FACTORS = ("A", "inv", "cinv", "T")

    def __init__(self, P, pi):
        self.rows = _as_matrix(P)
        self.frame = MeanZeroFrame.from_pi(pi)
        self.pi = self.frame.pi
        self.m = self.frame.n - 1

    @cached_property
    def A(self) -> np.ndarray:
        """The reduced operator, frame.operator(P)."""
        return self.frame.operator(self.rows)

    @cached_property
    def inv(self) -> np.ndarray:
        """(I - A)^{-1} behind the Poisson gate.

        |1 - lambda| >= sigma_min(I - A) >= 1 / (sqrt(m) ||(I - A)^{-1}||_1)
        for every eigenvalue of A, so a bound clearing SOLVABLE_TOL by
        GATE_SAFETY passes.  Otherwise the chain's spectrum decides: an
        eigenvalue within SOLVABLE_TOL of 1 (a chain reducible up to 1e-12;
        periodic chains, with eigenvalues on the unit circle away from 1,
        pass) raises DegenerateKernelError, and an inverse that failed or
        overflowed raises NumericalFailureError.
        """
        try:
            inv = self._on_shifted(np.linalg.inv)
            self._inv_norm1 = _norm1(inv)  # the orders' rounding reads it too
            bound = np.sqrt(self.m) * self._inv_norm1
        except np.linalg.LinAlgError:
            bound = np.inf
        if not bound < 1.0 / (GATE_SAFETY * SOLVABLE_TOL):
            separation = float(np.min(np.abs(1.0 - self.spectrum)))
            if separation <= SOLVABLE_TOL:
                radius = float(np.max(np.abs(self.spectrum)))
                raise DegenerateKernelError(
                    f"Poisson operator singular: spectrum reaches 1 "
                    f"(radius {radius}, separation {separation})",
                    radius=radius,
                    separation=separation,
                )
            if not np.isfinite(bound):
                raise NumericalFailureError("I - A is singular to working precision")
        return inv

    def _on_shifted(self, func):
        """func(I - A), with I - A formed in A's own memory, so it takes no
        m x m array of its own.  A is put back however func ends: off the
        diagonal 0 - (0 - a) = a bit for bit (but a -0.0, which comes back
        +0.0), and the diagonal comes from a copy.
        """
        A = self.A
        diagonal = A.diagonal().copy()
        try:
            return func(_shift_minus(A, out=A))
        finally:
            np.subtract(0.0, A, out=A)
            np.fill_diagonal(A, diagonal)

    @cached_property
    def cinv(self) -> np.ndarray:
        """(I - S)^{-1}; raises KernelError if I - S is singular: when its
        Cholesky factorization fails, or when neither the inverse's 1-norm
        nor the smallest eigenvalue clears SOLVABLE_TOL.
        """
        C = self.A + self.A.T
        C *= 0.5
        _shift_minus(C, out=C)
        try:
            np.linalg.cholesky(C)  # raises unless C is positive definite
            cinv = np.linalg.inv(C)
        except np.linalg.LinAlgError:
            cinv = None
        # for symmetric positive definite C, 1 / lambda_min <= ||C^-1||_1
        if cinv is None or (not _norm1(cinv) < 1.0 / (GATE_SAFETY * SOLVABLE_TOL)
                            and np.min(np.linalg.eigvalsh(C)) <= SOLVABLE_TOL):
            raise KernelError(
                "reversibilized operator singular on the mean-zero subspace")
        return cinv

    @cached_property
    def T(self) -> np.ndarray:
        """The symmetric positive definite factored operator."""
        # cinv reads A, so it is built before I - A takes A's memory; it and
        # the result are allocated before the temporary, which then leaves a
        # free block behind
        cinv = self.cinv
        T = np.empty_like(cinv)
        return self._on_shifted(lambda B: np.matmul(B @ cinv, B.T, out=T))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues of A, from the chain's one eigensolve: for a
        reversible chain, where A is symmetric up to rounding, those of
        S = (A + A^T)/2 in ascending order (see _symmetric_eigh); otherwise
        eigvals(A)."""
        if self.reversible:
            return self._symmetric_eigh()[0]
        return np.linalg.eigvals(self.A)

    def _symmetric_eigh(self):
        """(eigenvalues, eigenvectors) of S = (A + A^T)/2 for a reversible
        chain, by eigh.  The chain keeps the eigenvalues as its spectrum; the
        m x m eigenvectors belong to the caller and go when it drops them.
        """
        S = self.A + self.A.T
        S *= 0.5
        vals, vecs = np.linalg.eigh(S)
        self.__dict__["spectrum"] = vals
        return vals, vecs

    @cached_property
    def reversible(self) -> bool:
        """is_reversible(rows, pi), computed once."""
        return is_reversible(self.rows, self.pi)

    def __getattr__(self, name):
        # reached only when the usual lookup fails, as for rows once dropped
        if name == "rows":
            raise KernelError(
                "the chain's kernel was dropped (checks.battery and ordering.order_pairs "
                "take their chains apart); hand over ReducedChain(chain.rows, chain.pi) "
                "to keep a copy")
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def forget(self, name):
        """Drop the named factor if the chain holds it; a later use rebuilds it
        from the kernel."""
        self.__dict__.pop(name, None)

    def drop_kernel(self):
        """Drop the kernel rows, once reversible and A, all the chain reads of
        them, are built (reversible first, so its temporaries do not stack on
        A).  The chain can then rebuild no factor it forgets."""
        _ = self.reversible, self.A
        del self.rows


def _as_chain(P, pi=None) -> ReducedChain:
    """P itself if it is a ReducedChain, else the chain of (P, pi)."""
    if isinstance(P, ReducedChain):
        return P
    return ReducedChain(P, stationary_distribution(P) if pi is None else pi)

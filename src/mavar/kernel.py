"""Stochastic kernels, stationary distributions, and pi-weighted geometry.

A kernel is a row-stochastic matrix P acting on functions f: states -> R
by (Pf)_i = sum_j P_ij f_j.  All inner products are weighted by a
stationary distribution pi.  Kernels, pi, an observable f and every
function the package returns (Poisson solutions, test functions,
witnesses) are plain float arrays indexed by state; validate_kernel
returns a read-only copy.  A kernel carries no tolerance: adjoint and
reversibilization check what they build at DEFAULT_TOL, and
is_reversible holds the one detailed-balance threshold, STRICT_TOL.
The workhorse is MeanZeroFrame, an orthonormal basis of the
pi-mean-zero subspace in which the pi-inner product becomes Euclidean
and the pi-adjoint becomes the transpose; ReducedChain keeps one chain's
reduced operator and its factorizations.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateKernelError,
    DimensionMismatchError,
    NegativeEntryError,
    NonFiniteInputError,
    NotReversibleError,
    NotStationaryError,
    NumericalFailureError,
    ReducibleError,
    RowSumViolationError,
    SingularReversibilizationError,
)

DEFAULT_TOL = 1e-9
STRICT_TOL = 1e-12
SOLVABLE_TOL = 1e-12
# an inverse computed near singularity is itself inaccurate, so the norm gates
# pass only with this margin over SOLVABLE_TOL and leave closer calls to the spectrum
GATE_SAFETY = 1e6


def _as_matrix(P):
    """Plain float matrix from a ReducedChain or array."""
    if isinstance(P, ReducedChain):
        return P.rows
    return np.asarray(P, dtype=float)


def _as_vector(x):
    """Plain float array from a list or array."""
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a reversible kernel.

    eigenvalues are sorted descending (the first is 1); the columns of
    eigenvectors are pi-orthonormal eigenfunctions.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def check_finite(values, what: str):
    """values as a float array; raises NonFiniteInputError at a NaN or inf entry."""
    a = np.asarray(values, dtype=float)
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise NonFiniteInputError(f"{what} entry {idx[0] if a.ndim == 1 else idx} is {a[idx]}")
    return a


def centered(values, pi) -> np.ndarray:
    """values minus their pi-mean.

    Raises DimensionMismatchError when the lengths differ and
    NonFiniteInputError at a NaN or inf entry.
    """
    v = _as_vector(values)
    w = _as_vector(pi)
    if v.shape != w.shape:
        raise DimensionMismatchError(
            f"observable has length {v.shape}, distribution has {w.shape}")
    check_finite(v, "observable")
    return v - w @ v


def validate_kernel(matrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check and normalize a candidate transition matrix.

    Returns a read-only float copy.  Entries in [-tol, 0) are clamped to
    0 and the row renormalized.
    Raises NonFiniteInputError, NegativeEntryError, RowSumViolationError,
    or DimensionMismatchError.
    """
    M = np.array(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"kernel must be square, got shape {M.shape}")
    if M.shape[0] < 2:
        raise DimensionMismatchError("kernel needs at least 2 states")
    check_finite(M, "kernel")
    low = M.min()
    if low < -tol:
        i, j = np.unravel_index(np.argmin(M), M.shape)
        raise NegativeEntryError(f"entry ({i},{j}) = {low} is below -tol")
    M[M < 0.0] = 0.0
    sums = M.sum(axis=1)
    bad = np.argmax(np.abs(sums - 1.0))
    if abs(sums[bad] - 1.0) > tol:
        raise RowSumViolationError(f"row {bad} sums to {sums[bad]}")
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
        raise ReducibleError("kernel is not irreducible")
    n = M.shape[0]
    # replace one balance equation with the normalization constraint
    A = M.T - np.eye(n)
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
    """Time reversal: the pi-adjoint kernel (P*)_ij = pi_j P_ji / pi_i."""
    M = _as_matrix(P)
    w = _as_vector(pi)
    resid = stationary_residual(M, w)
    if resid > DEFAULT_TOL:
        raise NotStationaryError(f"pi P differs from pi by {resid}")
    return validate_kernel((w[None, :] * M.T) / w[:, None])


def reversibilization(P, pi) -> np.ndarray:
    """The additive reversibilization (P + P*)/2."""
    return validate_kernel(0.5 * (_as_matrix(P) + adjoint(P, pi)))


def is_reversible(P, pi) -> bool:
    """Detailed balance within STRICT_TOL, the package's one reversibility test."""
    M = _as_matrix(P)
    w = _as_vector(pi)
    F = w[:, None] * M
    return bool(np.max(np.abs(F - F.T)) <= STRICT_TOL)


def pi_inner(f, g, pi) -> float:
    """The weighted inner product sum_i pi_i f_i g_i."""
    fv = _as_vector(f)
    gv = _as_vector(g)
    w = _as_vector(pi)
    if fv.shape != gv.shape or fv.shape != w.shape:
        raise DimensionMismatchError(
            f"shapes {fv.shape}, {gv.shape}, {w.shape} do not agree")
    return float(np.sum(w * fv * gv))


@dataclass(frozen=True)
class MeanZeroFrame:
    """Orthonormal coordinates for the pi-mean-zero subspace.

    The columns of basis are n-1 Euclidean-orthonormal vectors spanning
    the complement of sqrt(pi).  Mapping f to y = basis^T (sqrt(pi) * f)
    turns the pi-inner product into the Euclidean one, and conjugating a
    pi-stationary kernel into these coordinates turns the pi-adjoint
    into the plain matrix transpose.  basis is columns 1.. of the
    Householder reflection H = I - 2 v v^T sending e_0 to sqrt(pi), so
    products with it are rank-1 updates and it is formed only when read.
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

    @cached_property
    def basis(self) -> np.ndarray:
        """The n x (n-1) matrix of basis vectors."""
        return self._expand(np.eye(self.n - 1))

    def _expand(self, y):
        """basis @ y for y of n-1 rows."""
        out = np.zeros((self.n,) + y.shape[1:])
        out[1:] = y
        out -= 2.0 * np.multiply.outer(self.v, self.v[1:] @ y)
        return out

    def _contract(self, x):
        """basis^T @ x for x of n rows."""
        return x[1:] - 2.0 * np.multiply.outer(self.v[1:], self.v @ x)

    def reduce(self, f) -> np.ndarray:
        """Coordinates of the centered part of f."""
        return self._contract(self.sqrt_pi * _as_vector(f))

    def lift(self, y) -> np.ndarray:
        """The mean-zero function with the given coordinates."""
        return self._expand(np.asarray(y, dtype=float)) / self.sqrt_pi

    def operator(self, P) -> np.ndarray:
        """The kernel's action on mean-zero coordinates.

        For pi-stationary P this is the (n-1) x (n-1) block of the
        symmetrized conjugate D^{1/2} P D^{-1/2}; its transpose is the
        reduced adjoint.
        """
        C = self.sqrt_pi[:, None] * _as_matrix(P)
        C /= self.sqrt_pi[None, :]
        return self._contract(self._contract(C.T).T)


def _gate_by_spectrum(A):
    """Fail if I - A is (near) singular on the mean-zero subspace.

    For a stochastic kernel this happens exactly when a second
    eigenvalue sits at 1, i.e. the chain is reducible up to 1e-12.
    Periodic chains (eigenvalues on the unit circle away from 1) pass.
    """
    eigs = np.linalg.eigvals(A)
    radius = float(np.max(np.abs(eigs)))
    separation = float(np.min(np.abs(1.0 - eigs)))
    if separation <= SOLVABLE_TOL:
        raise DegenerateKernelError(
            f"Poisson operator singular: spectrum reaches 1 "
            f"(radius {radius}, separation {separation})",
            radius=radius,
            separation=separation,
        )


class ReducedChain:
    """One chain (P, pi) in mean-zero coordinates, factored at most once.

    Holds the frame, the reduced operator A, the inverse of I - A, the
    inverse of I - S with S = (A + A^T)/2, the factored operator
    T = (I - A)(I - S)^{-1}(I - A)^T and the variance form, each built
    on first use.  Every function that takes (P, pi) accepts a chain in
    place of P, and then uses the chain's pi.
    """

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
        """(I - A)^{-1}; raises DegenerateKernelError if I - A is singular.

        |1 - lambda| >= sigma_min(I - A) >= 1 / (sqrt(m) ||(I - A)^{-1}||_1)
        for every eigenvalue of A, so a bound clearing SOLVABLE_TOL by
        GATE_SAFETY passes; otherwise the spectrum of A decides, and an
        inverse that failed or overflowed raises NumericalFailureError.
        """
        try:
            inv = np.linalg.inv(np.eye(self.m) - self.A)
            bound = np.sqrt(self.m) * np.linalg.norm(inv, 1)
        except np.linalg.LinAlgError:
            bound = np.inf
        if not bound < 1.0 / (GATE_SAFETY * SOLVABLE_TOL):
            _gate_by_spectrum(self.A)
            if not np.isfinite(bound):
                raise NumericalFailureError("I - A is singular to working precision")
        return inv

    @cached_property
    def cinv(self) -> np.ndarray:
        """(I - S)^{-1}; raises SingularReversibilizationError if I - S is
        singular: when its Cholesky factorization fails, or when neither the
        inverse's 1-norm nor the smallest eigenvalue clears SOLVABLE_TOL.
        """
        C = np.eye(self.m) - 0.5 * (self.A + self.A.T)
        try:
            np.linalg.cholesky(C)  # raises unless C is positive definite
            cinv = np.linalg.inv(C)
        except np.linalg.LinAlgError:
            cinv = None
        # for symmetric positive definite C, 1 / lambda_min <= ||C^-1||_1
        if cinv is None or (not np.linalg.norm(cinv, 1) < 1.0 / (GATE_SAFETY * SOLVABLE_TOL)
                            and np.min(np.linalg.eigvalsh(C)) <= SOLVABLE_TOL):
            raise SingularReversibilizationError(
                "reversibilized operator singular on the mean-zero subspace")
        return cinv

    @cached_property
    def T(self) -> np.ndarray:
        """The symmetric positive definite factored operator."""
        B = np.eye(self.m) - self.A
        return B @ self.cinv @ B.T

    @cached_property
    def variance_form(self) -> np.ndarray:
        """((I - A)^{-1} + (I - A)^{-T}) / 2, so sigma^2(P, f) = y^T F y."""
        form = self.inv + self.inv.T
        form *= 0.5
        return form


def _as_chain(P, pi=None) -> ReducedChain:
    """P itself if it is a ReducedChain, else the chain of (P, pi)."""
    if isinstance(P, ReducedChain):
        return P
    return ReducedChain(P, stationary_distribution(P) if pi is None else pi)


def spectral_radius_mean_zero(P, pi=None) -> float:
    """Spectral radius of the kernel restricted to mean-zero functions.

    This is the modulus of the largest non-Perron eigenvalue.  Raises
    ReducibleError for reducible kernels.
    """
    if not is_irreducible(P):
        raise ReducibleError("kernel is not irreducible")
    A = _as_chain(P, pi).A
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def spectral_decomposition_reversible(P, pi) -> SpectralDecomposition:
    """Eigendecomposition of a reversible kernel.

    Returns real eigenvalues sorted descending and pi-orthonormal
    eigenfunctions as columns.  Raises NotReversibleError unless
    is_reversible(P, pi).
    """
    M = _as_matrix(P)
    w = _as_vector(pi)
    if not is_reversible(M, w):
        raise NotReversibleError("kernel is not reversible for the given pi")
    s = np.sqrt(w)
    C = (s[:, None] * M) / s[None, :]
    C = 0.5 * (C + C.T)
    vals, vecs = np.linalg.eigh(C)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    funcs = vecs / s[:, None]
    # fix the Perron eigenfunction's sign to the positive constant
    if funcs[0, 0] < 0:
        funcs[:, 0] = -funcs[:, 0]
    return SpectralDecomposition(vals, funcs)

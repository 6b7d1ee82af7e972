"""Asymptotic variance via the Poisson equation.

For an irreducible kernel P with stationary pi and a centered observable
f, the solution phi of (I - P) phi = f gives the asymptotic variance of
the ergodic averages of f through sigma^2 = <phi, f>_pi and
avar = 2 sigma^2 - <f, f>_pi.  Four routes are provided: the direct
dual-pair solve, a factored symmetric operator, the eigendecomposition of
the reduced operator (reversible case), and a resolvent limit.  Each
returns its value.  mavar.checks alone compares the first three, which
share a chain's mean-zero frame and reduced operator A; the full-space
records of checks.battery (the Poisson residuals) check the frame itself.
"""

from dataclasses import dataclass

import numpy as np

from .errors import KernelError, NumericalFailureError, ObservableError
from .kernel import (
    DEFAULT_TOL,
    SOLVABLE_TOL,
    _as_chain,
    _as_matrix,
    _as_vector,
    _shift_minus,
    pi_inner,
)

ROUTE_TOL = 1e-9


def route_bound(reference) -> float:
    """ROUTE_TOL times max|reference|: how far a second computation may stray
    from the value it checks.  Relative, so no verdict depends on the units
    of f (sigma^2 >= <f, f>_pi / 2 never cancels against f)."""
    return ROUTE_TOL * float(np.max(np.abs(reference), initial=0.0))


@dataclass(frozen=True)
class PoissonSolution:
    """Primal and dual Poisson solutions with the derived variances."""

    phi: np.ndarray
    phi_star: np.ndarray
    sigma2: float
    avar: float


def _check_centered(fv, w):
    mean = abs(float(w @ fv))
    if mean > DEFAULT_TOL * np.max(np.abs(fv), initial=0.0):
        raise ObservableError(f"observable has pi-mean {mean}")


def solve_dual_pair(P, pi, f) -> PoissonSolution:
    """Solve the Poisson equation for P and its pi-adjoint together.

    One inverse of I - A serves both systems: the adjoint becomes the
    transpose in mean-zero coordinates, so the dual solution is the
    product from the left.  Returns phi, phi*, sigma^2 = <phi, f>_pi and
    avar = 2 sigma^2 - <f, f>_pi.  Raises NumericalFailureError when
    either variance overflows float64, or when a nonzero f's sigma^2, at
    least <f, f>_pi / 2 > 0, underflows it: below the smallest normal float
    most of its digits are rounding, and at 0 none are left.

    An avar below 0 by at most the rounding bound of that subtraction,
    4 eps (2 sigma^2 + <f, f>_pi), is returned as 0.0: an exact zero (P f = -f
    on a periodic chain, say) can round a few ulps negative.
    """
    chain = _as_chain(P, pi)
    fv = _as_vector(f)
    _check_centered(fv, chain.pi)
    fy = chain.frame.reduce(fv)
    X = chain.inv
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        y = X @ fy
        y_star = fy @ X
        sigma2 = float(fy @ y)
        ff = float(fy @ fy)
        avar = 2.0 * sigma2 - ff
    if not (np.isfinite(sigma2) and np.isfinite(avar)):
        raise NumericalFailureError(
            f"variance overflows float64 (sigma^2 = {sigma2}, avar = {avar}); "
            f"rescale the observable")
    if abs(sigma2) < np.finfo(float).tiny and fy.any():
        raise NumericalFailureError(
            f"variance underflows float64 (sigma^2 = {sigma2}); rescale the observable")
    if -4.0 * np.finfo(float).eps * (2.0 * abs(sigma2) + ff) <= avar < 0.0:
        avar = 0.0
    return PoissonSolution(chain.frame.lift(y), chain.frame.lift(y_star), sigma2, avar)


def _factored_solve(P, pi, f):
    """(sigma^2, T^{-1} y) with y = frame.reduce(f): the factored route and
    the solution it reads sigma^2 from.  Builds no inverse of I - A: the gate
    on I - S implies the Poisson gate, as each eigenvalue of A has real part
    at most lambda_max(S) (Bendixson 1902), so is at least lambda_min(I - S) from 1."""
    chain = _as_chain(P, pi)
    fv = _as_vector(f)
    _check_centered(fv, chain.pi)
    fy = chain.frame.reduce(fv)
    ybar = np.linalg.solve(chain.T, fy)
    return float(fy @ ybar), ybar


def avar_via_factored_operator(P, pi, f) -> float:
    """Asymptotic variance through the symmetric factored operator.

    In mean-zero coordinates the operator
    T = (I - A) (I - S)^{-1} (I - A)^T with S = (A + A^T)/2 is symmetric
    positive definite and sigma^2 = <f, T^{-1} f>.  The route solves with
    T alone; a singular I - S, as on a decoupled chain, raises KernelError.
    """
    return _factored_solve(P, pi, f)[0]


def avar_spectral(P, pi, f) -> float:
    """Spectral-route variance for a reversible kernel.

    In mean-zero coordinates a reversible chain's A is symmetric; with
    S = (A + A^T)/2 = sum_k lambda_k u_k u_k^T and y = frame.reduce(f),
    sigma^2 = sum_k (u_k^T y)^2 / (1 - lambda_k).  The frame leaves the
    constant out, so there is no Perron pair to skip.  If an eigenvalue
    within SOLVABLE_TOL of 1, the Poisson gate's threshold, carries weight
    of f (reducible input, or a chain decoupled to within 1e-12), the
    variance is infinite and inf is returned, as it is when the sum
    overflows float64.  Raises KernelError for non-reversible input.
    """
    chain = _as_chain(P, pi)
    fv = _as_vector(f)
    _check_centered(fv, chain.pi)
    if not chain.reversible:
        raise KernelError("kernel is not reversible for the given pi")
    vals, vecs = chain._symmetric_eigh()
    coeffs = vecs.T @ chain.frame.reduce(fv)
    unit = 1.0 - vals <= SOLVABLE_TOL
    if np.any(np.abs(coeffs[unit]) > 1e-10 * np.max(np.abs(fv), initial=0.0)):
        return np.inf
    keep = ~unit
    with np.errstate(over="ignore"):  # an overflow is the inf the caller compares
        return float(np.sum(coeffs[keep] ** 2 / (1.0 - vals[keep])))


def resolvent_curve(P, pi, f, beta: float) -> float:
    """Regularized route: solve ((1 + beta) I - P) phi_beta = f for beta > 0.

    Returns <f, phi_beta>_pi, which converges to sigma^2 as beta decreases
    to 0, monotonically from below for reversible kernels.  Works on the
    full state space; the solution is automatically centered.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    w = _as_chain(P, pi).pi
    fv = _as_vector(f)
    _check_centered(fv, w)
    phi = np.linalg.solve(_shift_minus(_as_matrix(P), 1.0 + beta), fv)
    return pi_inner(fv, phi, w)

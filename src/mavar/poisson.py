"""Asymptotic variance via the Poisson equation.

For an irreducible kernel P with stationary pi and a centered observable
f, the solution phi of (I - P) phi = f gives the asymptotic variance of
the ergodic averages of f through sigma^2 = <phi, f>_pi and
avar = 2 sigma^2 - <f, f>_pi.  Four independent routes are provided:
the direct dual-pair solve, a factored symmetric operator, the spectral
decomposition (reversible case), and a resolvent limit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotCenteredError, NumericalFailureError
from .kernel import (
    DEFAULT_TOL,
    SOLVABLE_TOL,
    _as_chain,
    _as_matrix,
    _as_vector,
    adjoint,
    is_reversible,
    pi_inner,
    spectral_decomposition_reversible,
)

ROUTE_TOL = 1e-9


@dataclass(frozen=True)
class PoissonSolution:
    """Primal and dual Poisson solutions with the derived variances."""

    phi: np.ndarray
    phi_star: np.ndarray
    sigma2: float
    avar: float


@dataclass(frozen=True)
class ResolventCurve:
    """Regularized variance values along a decreasing beta grid."""

    betas: np.ndarray
    values: np.ndarray
    beta_norms: np.ndarray
    reversible: bool


def _check_centered(fv, w, tol):
    mean = abs(float(w @ fv))
    if mean > tol * max(1.0, np.max(np.abs(fv)) if fv.size else 1.0):
        raise NotCenteredError(f"observable has pi-mean {mean}")


def solve_dual_pair(P, pi, f, tol: float = DEFAULT_TOL) -> PoissonSolution:
    """Solve the Poisson equation for P and its pi-adjoint together.

    One inverse of I - A serves both systems: the adjoint becomes the
    transpose in mean-zero coordinates, so the dual solution is the
    product from the left.  Returns phi, phi*, sigma^2 = <phi, f>_pi and
    avar = 2 sigma^2 - <f, f>_pi.  Raises NumericalFailureError when
    either variance overflows float64.

    An avar below 0 by at most the rounding bound of that subtraction,
    4 eps (2 sigma^2 + <f, f>_pi), is returned as 0.0: an exact zero (P f = -f
    on a periodic chain, say) can round a few ulps negative.
    """
    chain = _as_chain(P, pi)
    fv = _as_vector(f)
    _check_centered(fv, chain.pi, tol)
    fy = chain.frame.reduce(fv)
    y = chain.inv @ fy
    y_star = fy @ chain.inv
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        sigma2 = float(fy @ y)
        ff = float(fy @ fy)
        avar = 2.0 * sigma2 - ff
    if not (np.isfinite(sigma2) and np.isfinite(avar)):
        raise NumericalFailureError(
            f"variance overflows float64 (sigma^2 = {sigma2}, avar = {avar}); "
            f"rescale the observable")
    if -4.0 * np.finfo(float).eps * (2.0 * abs(sigma2) + ff) <= avar < 0.0:
        avar = 0.0
    return PoissonSolution(chain.frame.lift(y), chain.frame.lift(y_star), sigma2, avar)


def avar_via_factored_operator(P, pi, f, tol: float = DEFAULT_TOL) -> float:
    """Asymptotic variance through the symmetric factored operator.

    In mean-zero coordinates the operator
    T = (I - A) (I - S)^{-1} (I - A)^T with S = (A + A^T)/2 is symmetric
    positive definite and sigma^2 = <f, T^{-1} f>.  The route solves
    with T alone, never with the inverse of I - A.  Cross-checked against
    the dual-pair route at 1e-9; disagreement raises
    NumericalFailureError.
    """
    chain = _as_chain(P, pi)
    fv = _as_vector(f)
    _check_centered(fv, chain.pi, tol)
    chain.inv  # the solvability gate, so a singular I - A raises first
    fy = chain.frame.reduce(fv)
    ybar = np.linalg.solve(chain.T, fy)
    sigma2 = float(fy @ ybar)
    ref = solve_dual_pair(chain, None, fv, tol)
    scale = max(1.0, abs(ref.sigma2))
    if abs(sigma2 - ref.sigma2) > ROUTE_TOL * scale:
        raise NumericalFailureError(
            f"factored-operator route {sigma2} disagrees with dual pair {ref.sigma2}")
    mid = 0.5 * (chain.frame.reduce(ref.phi) + chain.frame.reduce(ref.phi_star))
    if np.max(np.abs(ybar - mid), initial=0.0) > ROUTE_TOL * max(1.0, np.max(np.abs(mid), initial=0.0)):
        raise NumericalFailureError("T^{-1} f differs from (phi + phi*)/2")
    return sigma2


def avar_spectral(P, pi, f, tol: float = DEFAULT_TOL) -> float:
    """Spectral-route variance for a reversible kernel.

    sigma^2 = sum_k <u_k, f>_pi^2 / (1 - lambda_k) over non-unit
    eigenvalues.  If a unit eigenvalue carries weight of f (reducible
    input, or a chain decoupled to within 1e-12) the variance is
    infinite and inf is returned.  Raises NotReversibleError for
    non-reversible input.
    """
    w = _as_chain(P, pi).pi
    fv = _as_vector(f)
    _check_centered(fv, w, tol)
    dec = spectral_decomposition_reversible(P, w)
    coeffs = dec.eigenvectors.T @ (w * fv)
    unit = dec.eigenvalues > 1.0 - SOLVABLE_TOL
    scale = max(1.0, np.max(np.abs(fv), initial=0.0))
    if np.any(np.abs(coeffs[unit]) > 1e-10 * scale):
        return np.inf
    keep = ~unit
    return float(np.sum(coeffs[keep] ** 2 / (1.0 - dec.eigenvalues[keep])))


def resolvent_curve(P, pi, f, betas, tol: float = DEFAULT_TOL) -> ResolventCurve:
    """Regularized route: solve ((1 + beta) I - P) phi_beta = f.

    The values <f, phi_beta>_pi converge to sigma^2 as beta decreases to
    0, monotonically from below for reversible kernels.  Works on the
    full state space; the solution is automatically centered.  The
    reversible flag is is_reversible(P, pi).
    """
    b = np.asarray(betas, dtype=float)
    if b.ndim != 1 or b.size == 0 or np.any(b <= 0.0) or np.any(np.diff(b) >= 0.0):
        raise ValueError("betas must be positive and strictly decreasing")
    M = _as_matrix(P)
    w = _as_chain(P, pi).pi
    fv = _as_vector(f)
    _check_centered(fv, w, tol)
    n = M.shape[0]
    values = np.empty_like(b)
    norms = np.empty_like(b)
    for k, beta in enumerate(b):
        phi = np.linalg.solve((1.0 + beta) * np.eye(n) - M, fv)
        values[k] = pi_inner(fv, phi, w)
        norms[k] = beta * pi_inner(phi, phi, w)
    return ResolventCurve(b, values, norms, is_reversible(M, w))


def check_dual_equality(P, pi, f):
    """Verify avar(P, f) == avar(P*, f) and return both values.

    Raises NumericalFailureError if they disagree beyond 1e-10 relative.
    """
    chain = _as_chain(P, pi)
    first = solve_dual_pair(chain, None, f).avar
    second = solve_dual_pair(adjoint(P, chain.pi), chain.pi, f).avar
    if abs(first - second) > 1e-10 * max(1.0, abs(first)):
        raise NumericalFailureError(
            f"avar differs between P ({first}) and its adjoint ({second})")
    return first, second


def sigma2_quadratic_form(P, pi) -> np.ndarray:
    """Euclidean quadratic form S with f . (S f) = sigma^2(P, f).

    Valid for centered f; non-centered input is projected by the form
    itself since the frame drops the mean component.
    """
    chain = _as_chain(P, pi)
    half = chain.frame.sqrt_pi[:, None] * chain.frame.basis
    return half @ chain.variance_form @ half.T

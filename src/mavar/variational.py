"""Variational formulas for the reciprocal asymptotic variance.

With sigma^2 = sigma^2(P, f) finite and above ZERO_VARIANCE_TOL
(ZeroVarianceError otherwise), 1/sigma^2 equals a saddle value of the
bilinear Dirichlet form: an infimum over test functions xi normalized
by pi(f xi) = 1 of a supremum over directions eta constrained by
pi(f eta) = 0.  The saddle is attained at explicit combinations of the
primal and dual Poisson solutions.  For reversible kernels (by
kernel.is_reversible) the supremum collapses and 1/sigma^2 is a plain
infimum of the Dirichlet form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleConstraintError,
    NotReversibleError,
    NumericalFailureError,
    ZeroVarianceError,
)
from .kernel import (
    DEFAULT_TOL,
    _as_chain,
    _as_matrix,
    _as_vector,
    is_reversible,
    pi_inner,
)
from .poisson import ROUTE_TOL, solve_dual_pair

ZERO_VARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class SaddlePoint:
    """Optimal test functions and the saddle value 1/sigma^2."""

    xi_star: np.ndarray
    eta_star: np.ndarray
    value: float


def dirichlet_form(P, pi, xi, eta) -> float:
    """The bilinear form <(I - P) xi, eta>_pi.

    Invariant under adding constants to either argument when pi is
    stationary for P.
    """
    M = _as_matrix(P)
    xv = _as_vector(xi)
    ev = _as_vector(eta)
    return pi_inner(xv - M @ xv, ev, _as_chain(P, pi).pi)


def project_to_constraint(g, f, pi, value: float = 0.0) -> np.ndarray:
    """Shift g along f so that pi(f g) equals value."""
    gv = _as_vector(g).copy()
    fv = _as_vector(f)
    ff = pi_inner(fv, fv, pi)
    if ff <= ZERO_VARIANCE_TOL:
        raise ZeroVarianceError("cannot normalize against a null observable")
    gv += (value - pi_inner(fv, gv, pi)) / ff * fv
    return gv


def _positive_solution(P, pi, f):
    """solve_dual_pair(P, pi, f); ZeroVarianceError if sigma^2 <= ZERO_VARIANCE_TOL."""
    sol = solve_dual_pair(P, pi, f)
    if sol.sigma2 <= ZERO_VARIANCE_TOL:
        raise ZeroVarianceError(f"sigma^2 = {sol.sigma2} is not positive")
    return sol


def saddle_point(P, pi, f) -> SaddlePoint:
    """Saddle point of the variational problem for 1/sigma^2.

    xi* = (phi + phi*) / (2 sigma^2) and eta* = (phi - phi*) /
    (2 sigma^2), with value 1/sigma^2.  Raises ZeroVarianceError when
    sigma^2 <= ZERO_VARIANCE_TOL.
    """
    sol = _positive_solution(P, pi, f)
    scale = 0.5 / sol.sigma2
    xi = scale * (sol.phi + sol.phi_star)
    eta = scale * (sol.phi - sol.phi_star)
    return SaddlePoint(xi, eta, 1.0 / sol.sigma2)


def inner_sup(P, pi, f, xi, tol: float = DEFAULT_TOL):
    """Maximize <(I - P)(xi + eta), xi - eta>_pi over pi(f eta) = 0.

    The objective is concave in eta, with S = (A + A^T)/2 its curvature.
    Its stationary point on the constraint is
    e = (I - S)^{-1} (drive - mu f) / 2, with mu chosen so that f^T e = 0:
    two products with the chain's inverse of I - S.  Returns
    (eta_opt, value) with value >= 1/sigma^2 for every feasible xi and
    equality at xi = xi*.  Raises InfeasibleConstraintError if
    pi(f xi) != 1.
    """
    chain = _as_chain(P, pi)
    fv = _as_vector(f)
    xv = _as_vector(xi)
    norm = pi_inner(fv, xv, chain.pi)
    if abs(norm - 1.0) > tol:
        raise InfeasibleConstraintError(f"pi(f xi) = {norm}, expected 1")
    fy = chain.frame.reduce(fv)
    xy = chain.frame.reduce(xv)
    Ax = chain.A @ xy
    drive = Ax - xy @ chain.A
    u, v = (chain.cinv @ np.column_stack([drive, fy])).T
    ey = 0.5 * (u - (fy @ u) / (fy @ v) * v)
    # (I - S) e = (drive - mu f)/2 and f^T e = 0 give e^T (I - S) e = e^T drive / 2
    value = float(xy @ (xy - Ax) + 0.5 * (ey @ drive))
    return chain.frame.lift(ey), value


def reversible_inf(P, pi, f):
    """Minimize the Dirichlet form over pi(f xi) = 1 (reversible case).

    The minimizer is phi / sigma^2 and the minimum is 1/sigma^2.
    Raises NotReversibleError unless is_reversible holds; reducible
    input fails the Poisson solvability gate instead of returning an
    infinite-variance marker, since on a finite irreducible space the
    variance is always finite.
    """
    chain = _as_chain(P, pi)
    if not is_reversible(chain, chain.pi):
        raise NotReversibleError("kernel is not reversible for the given pi")
    sol = _positive_solution(chain, None, f)
    xi = sol.phi / sol.sigma2
    value = dirichlet_form(chain, chain.pi, xi, xi)
    return xi, value


def factored_operator_inf(P, pi, f):
    """Minimize the factored-operator quadratic form over pi(f xi) = 1.

    The minimizer is the symmetrized Poisson solution
    (phi + phi*) / 2 normalized by its pairing with f; the minimum
    equals 1/sigma^2.  Cross-checked against the saddle value at 1e-9.
    """
    chain = _as_chain(P, pi)
    sol = _positive_solution(chain, None, f)
    bar = 0.5 * (sol.phi + sol.phi_star)
    xi = bar / pi_inner(bar, f, chain.pi)
    xy = chain.frame.reduce(xi)
    value = float(xy @ (chain.T @ xy))
    expected = 1.0 / sol.sigma2
    if abs(value - expected) > ROUTE_TOL * max(1.0, expected):
        raise NumericalFailureError(
            f"factored-operator minimum {value} disagrees with 1/sigma^2 {expected}")
    return xi, value

"""Variational formulas for the reciprocal asymptotic variance.

With sigma^2 = sigma^2(P, f) finite and positive (ObservableError
otherwise), 1/sigma^2 equals a saddle value of the bilinear Dirichlet
form: an infimum over test functions xi normalized by pi(f xi) = 1 of a
supremum over directions eta constrained by pi(f eta) = 0.  The saddle is
attained at explicit combinations of the primal and dual Poisson
solutions.  For reversible kernels (by kernel.is_reversible) the supremum
collapses and 1/sigma^2 is a plain infimum of the Dirichlet form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import KernelError, ObservableError
from .kernel import (
    DEFAULT_TOL,
    _as_chain,
    _as_matrix,
    _as_vector,
    _gamma,
    pi_inner,
)
from .poisson import solve_dual_pair


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
    w = _as_chain(P, pi).pi
    xv = _as_vector(xi)
    if xv.shape != w.shape:
        raise ObservableError(f"expected a function on {w.shape[0]} states, "
                              f"got shape {xv.shape}")
    return pi_inner(xv - _as_matrix(P) @ xv, eta, w)


def project_to_constraint(g, f, pi, value: float = 0.0) -> np.ndarray:
    """Shift g along f so that pi(f g) equals value."""
    fv = _as_vector(f)
    gv = _as_vector(g)
    w = _as_vector(pi)
    ff = pi_inner(fv, fv, w)
    if ff <= 0.0:
        raise ObservableError("cannot normalize against a null observable")
    return gv + (value - pi_inner(fv, gv, w)) / ff * fv


def _positive(sol):
    """sol, a PoissonSolution; ObservableError if its sigma^2 <= 0."""
    if sol.sigma2 <= 0.0:
        raise ObservableError(f"sigma^2 = {sol.sigma2} is not positive")
    return sol


def saddle_point(P, pi, f) -> SaddlePoint:
    """Saddle point of the variational problem for 1/sigma^2.

    xi* = (phi + phi*) / (2 sigma^2) and eta* = (phi - phi*) /
    (2 sigma^2), with value 1/sigma^2.  Raises ObservableError when
    sigma^2 <= 0.
    """
    return _saddle(_positive(solve_dual_pair(P, pi, f)))


def _saddle(sol) -> SaddlePoint:
    """The saddle point read off a dual-pair solution with sigma^2 > 0."""
    scale = 0.5 / sol.sigma2
    xi = scale * (sol.phi + sol.phi_star)
    eta = scale * (sol.phi - sol.phi_star)
    return SaddlePoint(xi, eta, 1.0 / sol.sigma2)


def inner_sup(P, pi, f, xi):
    """Maximize <(I - P)(xi + eta), xi - eta>_pi over pi(f eta) = 0.

    The objective is concave in eta, with S = (A + A^T)/2 its curvature.
    Its stationary point on the constraint is
    e = (I - S)^{-1} (drive - mu f) / 2, with mu chosen so that f^T e = 0:
    one product with the chain's inverse of I - S.  Returns
    (eta_opt, value) with value >= 1/sigma^2 for every feasible xi and
    equality at xi = xi*.  Raises ObservableError unless xi is one
    function on the chain's states with pi(f xi) = 1 up to rounding.
    """
    chain = _as_chain(P, pi)
    fv = _as_vector(f)
    xv = _as_vector(xi)
    norm = pi_inner(fv, xv, chain.pi)  # ObservableError unless f, xi and pi share a shape
    # pi(f xi) = 1 up to rounding, to first order in u, with s = sum pi |f| |xi|
    # (Higham 2002, sec. 3.1): the n-term sum norm errs by at most gamma_{n+1} s
    # and a sum xi* + probe by u s.  A probe x + c f that project_to_constraint
    # built, c = (v - pi(f x)) / pi(f f), misses v by the rounding of its sum
    # pi(f x), of c and of the update, at most gamma_{n+3} s each while x and
    # c f are no larger than xi, as for random probes: 4 gamma_{n+3} s in all.
    # DEFAULT_TOL covers the solve behind xi*.
    s = pi_inner(np.abs(fv), np.abs(xv), chain.pi)
    bound = DEFAULT_TOL + 4.0 * _gamma(len(fv) + 3) * s
    if abs(norm - 1.0) > bound:
        raise ObservableError(f"pi(f xi) = {norm}, expected 1")
    fy = chain.frame.reduce(fv)
    xy = chain.frame.reduce(xv)
    Ax = chain.A @ xy
    drive = Ax - chain.A.T @ xy
    u, v = (chain.cinv @ np.column_stack([drive, fy])).T
    ey = 0.5 * (u - (fy @ u) / (fy @ v) * v)
    # (I - S) e = (drive - mu f)/2 and f^T e = 0 give e^T (I - S) e = e^T drive / 2
    value = float(xy @ (xy - Ax) + 0.5 * (ey @ drive))
    return chain.frame.lift(ey), value


def reversible_inf(P, pi, f):
    """Minimize the Dirichlet form over pi(f xi) = 1 (reversible case).

    The minimizer is phi / sigma^2 and the minimum is 1/sigma^2.
    Raises KernelError unless is_reversible holds; reducible
    input fails the Poisson solvability gate instead of returning an
    infinite-variance marker, since on a finite irreducible space the
    variance is always finite.
    """
    chain = _as_chain(P, pi)
    if not chain.reversible:
        raise KernelError("kernel is not reversible for the given pi")
    return _reversible_min(chain, _positive(solve_dual_pair(chain, None, f)))


def _reversible_min(chain, sol):
    """(phi / sigma^2, its Dirichlet form) for the chain's dual-pair solution."""
    xi = sol.phi / sol.sigma2
    return xi, dirichlet_form(chain, chain.pi, xi, xi)


def factored_operator_inf(P, pi, f):
    """Minimize the factored-operator quadratic form over pi(f xi) = 1.

    The minimizer is the symmetrized Poisson solution
    (phi + phi*) / 2 normalized by its pairing with f; the minimum
    equals 1/sigma^2.  Returns xi and the form's value there.
    """
    chain = _as_chain(P, pi)
    return _factored_min(chain, f, _positive(solve_dual_pair(chain, None, f)))


def _factored_min(chain, f, sol):
    """factored_operator_inf's (xi, value) from the chain's dual-pair solution."""
    bar = 0.5 * (sol.phi + sol.phi_star)
    xi = bar / pi_inner(bar, f, chain.pi)
    xy = chain.frame.reduce(xi)
    return xi, float(xy @ (chain.T @ xy))

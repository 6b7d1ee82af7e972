"""The cross-checks of one chain and observable, as data.

routes() computes sigma^2 by every independent route: the dual-pair
solve, the factored symmetric operator and, for a reversible chain, the
spectral decomposition.  battery() runs the identity battery behind
`mavar verify`: Poisson residuals, route agreement, the resolvent limit,
the saddle point of the variational formula for 1/sigma^2, random
probes of its inf and sup sides, and the reversible minimum.  A failed
check is a record or an infinite route value, never an exception.
"""

import numpy as np

from .errors import NumericalFailureError
from .kernel import DEFAULT_TOL, _as_vector, is_reversible, pi_inner
from .poisson import (
    ROUTE_TOL,
    avar_spectral,
    avar_via_factored_operator,
    resolvent_curve,
    solve_dual_pair,
)
from .variational import (
    dirichlet_form,
    factored_operator_inf,
    inner_sup,
    project_to_constraint,
    reversible_inf,
    saddle_point,
)


def routes(chain, f, tol: float = DEFAULT_TOL):
    """(dual-pair solution, {route: sigma^2}, reversible) for a ReducedChain.

    A route whose own cross-check raises NumericalFailureError reports
    inf, as does the spectral route when a unit eigenvalue carries
    weight of f, so a failed route is a value the caller compares.  The
    spectral route runs when is_reversible holds.
    """
    sol = solve_dual_pair(chain, None, f, tol)
    values = {"dual-pair": sol.sigma2}
    try:
        values["factored-operator"] = avar_via_factored_operator(chain, None, f, tol)
    except NumericalFailureError:
        values["factored-operator"] = np.inf
    reversible = is_reversible(chain, chain.pi)
    if reversible:
        values["spectral"] = avar_spectral(chain, None, f, tol)
    return sol, values, reversible


def battery(chain, f, seed: int = 0, trials: int = 20, tol: float = DEFAULT_TOL):
    """(records, sigma^2): the verify battery for a ReducedChain and centered f.

    Each record is {"name", "residual", "bound", "passed"}.  The random
    probe checks draw trials test functions each from
    numpy.random.default_rng(seed).
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    checks = []

    def record(name, residual, bound):
        checks.append({"name": name, "residual": float(residual),
                       "bound": float(bound), "passed": bool(residual <= bound)})

    f = _as_vector(f)
    sol, values, reversible = routes(chain, f, tol)
    saddle = saddle_point(chain, None, f)
    P, w = chain.rows, chain.pi
    fscale = max(1.0, float(np.max(np.abs(f))))
    record("poisson residual (primal)",
           np.max(np.abs(sol.phi - P @ sol.phi - f)), 1e-10 * fscale)
    star = sol.phi_star
    # the adjoint by its definition, P* g = P^T (pi g) / pi
    record("poisson residual (dual)",
           np.max(np.abs(star - P.T @ (w * star) / w - f)), 1e-10 * fscale)
    record("pairing equality <phi,f> vs <f,phi*>",
           abs(pi_inner(sol.phi, f, w) - pi_inner(f, sol.phi_star, w)),
           1e-10 * max(1.0, abs(sol.sigma2)))
    for name, value in values.items():
        if name != "dual-pair":
            record(f"{name} route", abs(value - sol.sigma2),
                   ROUTE_TOL * max(1.0, abs(sol.sigma2)))
    betas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    curve = resolvent_curve(chain, None, f, betas, tol)
    phi_norm = max(1.0, pi_inner(sol.phi, sol.phi, w))
    record("resolvent tail", abs(curve.values[-1] - sol.sigma2),
           10.0 * betas[-1] * phi_norm)
    value = saddle.value
    xi_star, eta_star = saddle.xi_star, saddle.eta_star
    record("saddle value vs 1/sigma^2", abs(value * sol.sigma2 - 1.0), ROUTE_TOL)
    record("constraint pi(f xi*) = 1", abs(pi_inner(f, xi_star, w) - 1.0), 1e-10)
    record("constraint pi(f eta*) = 0", abs(pi_inner(f, eta_star, w)), 1e-10)
    combined = xi_star + eta_star
    record("xi* + eta* = phi / sigma^2",
           np.max(np.abs(combined - sol.phi / sol.sigma2)),
           ROUTE_TOL * max(1.0, np.max(np.abs(combined))))
    record("saddle Dirichlet identity",
           abs(dirichlet_form(chain, None, combined, xi_star - eta_star) - value),
           ROUTE_TOL * max(1.0, value))
    _, sup_at_star = inner_sup(chain, None, f, xi_star, tol)
    record("inner sup at xi*", abs(sup_at_star - value), ROUTE_TOL * max(1.0, value))
    rng = np.random.default_rng(seed)
    n = w.shape[0]
    worst_inf = np.inf
    for _ in range(trials):
        xi = xi_star + project_to_constraint(rng.standard_normal(n), f, w, 0.0)
        worst_inf = min(worst_inf, inner_sup(chain, None, f, xi, tol)[1])
    record("inf side: min over random xi of sup >= 1/sigma^2",
           max(0.0, value - worst_inf), ROUTE_TOL * max(1.0, value))
    worst_sup = -np.inf
    for _ in range(trials):
        eta = project_to_constraint(rng.standard_normal(n), f, w, 0.0)
        worst_sup = max(worst_sup, dirichlet_form(chain, None, xi_star + eta, xi_star - eta))
    record("sup side: max over random eta <= 1/sigma^2",
           max(0.0, worst_sup - value), ROUTE_TOL * max(1.0, value))
    try:
        _, t_inf = factored_operator_inf(chain, None, f)
        record("factored-operator minimum", abs(t_inf - value),
               ROUTE_TOL * max(1.0, value))
    except NumericalFailureError:
        record("factored-operator minimum", np.inf, ROUTE_TOL)
    worst_orth = 0.0
    for _ in range(trials):
        probe = project_to_constraint(rng.standard_normal(n), f, w, 0.0)
        worst_orth = max(worst_orth,
                         abs(dirichlet_form(chain, None, sol.phi, probe)),
                         abs(dirichlet_form(chain, None, probe, sol.phi_star)))
    record("orthogonality of phi against pi(f .) = 0", worst_orth,
           1e-10 * max(1.0, abs(sol.sigma2)) * fscale * 10)
    if reversible:
        _, inf_val = reversible_inf(chain, None, f)
        record("reversible minimum", abs(inf_val - value), ROUTE_TOL * max(1.0, value))
        record("eta* vanishes (reversible)", np.max(np.abs(eta_star)), 1e-9)
    return checks, sol.sigma2

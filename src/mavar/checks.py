"""The cross-checks of one chain and observable, as data.

routes() computes sigma^2 by every independent route: the dual-pair
solve, the factored symmetric operator and, for a reversible chain, the
spectral decomposition; each route returns its value, and routes() is
where they are judged.  battery() runs the identity battery behind
`mavar verify`: the Poisson residuals as backward errors, the route
records, the saddle point of the variational formula for 1/sigma^2 (its
Dirichlet identity, the inner sup and the factored-operator minimum),
the orthogonality of phi against random directions, and the reversible
minimum.  Every record can fail: each catches some corruption
of the chain's factors (tests/test_battery_mutants.py).  The battery solves
the dual pair once and takes its chain apart, as ReducedChain states: the
inverse of I - A goes after the dual pair, and the kernel once its
full-space records are read, before the spectral eigh and the inverse of
I - S.  The TRIALS random
directions are dotted with the two Poisson drives, projected once.  Their
normals come from the standard library's random.Random(seed) by
Box-Muller, so verify never imports numpy's random subpackage (and with
it secrets and _hashlib).
A failed check is a failed record, never an exception.
"""

import operator
import random

import numpy as np

from .kernel import UNIT_ROUNDOFF, _as_vector, _gamma
from .poisson import _factored_solve, avar_spectral, route_bound, solve_dual_pair
from .variational import (
    _factored_min,
    _positive,
    _reversible_min,
    _saddle,
    dirichlet_form,
    inner_sup,
    project_to_constraint,
)

# the random directions of the orthogonality record
TRIALS = 20
# rows of A per block of _asymmetry_bound's largest row sum
ASYMMETRY_BLOCK = 64


def _record(name, residual, bound):
    """One record: it passes when the residual is at most the bound."""
    return {"name": name, "residual": float(residual), "bound": float(bound),
            "passed": bool(residual <= bound)}


def routes(chain, f):
    """(dual-pair solution, {route: sigma^2}, records) for a ReducedChain.

    The spectral route runs when the chain is reversible, and is inf when a
    unit eigenvalue carries weight of f.  The records judge every route
    against the dual pair: each route's sigma^2 within route_bound(sigma^2),
    and the solution T^{-1} y the factored route reads its sigma^2 from
    within route_bound of the dual pair's (reduce phi + reduce phi*)/2.
    """
    # the spectral route's eigensolve runs, and frees its eigenvectors, before
    # the chain holds any inverse
    spectral = avar_spectral(chain, None, f) if chain.reversible else None
    sol = solve_dual_pair(chain, None, f)
    return (sol, *_judge(chain, f, sol, spectral))


def _judge(chain, f, sol, spectral):
    """({route: sigma^2}, records): runs the factored route and judges it, and
    the spectral sigma^2 when it is not None, against the dual pair sol."""
    factored, solution = _factored_solve(chain, None, f)
    mid = 0.5 * (chain.frame.reduce(sol.phi) + chain.frame.reduce(sol.phi_star))
    values = {"dual-pair": sol.sigma2, "factored-operator": factored}
    records = [
        _record("factored-operator route", abs(factored - sol.sigma2), route_bound(sol.sigma2)),
        _record("factored-operator solution", np.max(np.abs(solution - mid), initial=0.0),
                route_bound(mid)),
    ]
    if spectral is not None:
        values["spectral"] = spectral
        records.append(_record("spectral route", abs(spectral - sol.sigma2),
                               route_bound(sol.sigma2)))
    return values, records


def _backward_error(r, x, f, row_sums, diag, solve):
    """(eta, bound) for x as a solution of (I - K) x = f, where r = x - K x - f
    was computed in float64, K >= 0 has the given row sums and diagonal,
    and solve bounds the backward error of the solve that produced x.

    eta = ||r|| / (||I - K|| ||x|| + ||f||), in the infinity norm, is the
    normwise backward error (Rigal & Gaches 1967; Higham 2002, Thm 7.1): the
    smallest relative change of I - K and f that x solves exactly.  A correct
    x can show three things.  Rounding it to float64 leaves eta <= u.
    Computing r adds at most gamma_{n+4} (|x| + K|x| + |f|) to each entry
    (n products summed, the product and the division by pi of the dual form,
    two subtractions); on eta's scale that grows as ||I - K|| shrinks,
    because r is then a small difference of the large x and K x.  And the
    solve itself adds solve.
    """
    nx = np.max(np.abs(x))
    nf = np.max(np.abs(f))
    scale = np.max(row_sums - diag + np.abs(1.0 - diag)) * nx + nf
    evaluation = _gamma(x.shape[0] + 4) * ((1.0 + np.max(row_sums)) * nx + nf) / scale
    return np.max(np.abs(r)) / scale, UNIT_ROUNDOFF + evaluation + solve


def _solve_bounds(chain, f, sol):
    """(primal, dual, x_norm): the backward errors the dual pair's solve can
    leave in phi and phi*, and x_norm = sqrt(||X||_1 ||X||_inf) >= ||X||_2.

    In the frame's coordinates the dual pair is y = X b and y* = X^T b, with
    X the chain's inverse of I - A and b = reduce(f).  A product with an
    inverse is forward stable but not backward stable: its residual may
    reach gamma_m ||I - A|| ||X|| ||b|| (Higham 2002, sec. 14.1), a backward
    error of gamma_m ||X|| ||b|| / ||y||, taken over to the full space without
    the frame's change of norm.  It is large when b avoids the directions X
    stretches most, as an observable orthogonal to the slow modes of a
    near-decomposable chain does.
    """
    b = np.max(np.abs(chain.frame.reduce(f)))
    X = np.abs(chain.inv)
    norms = X.sum(axis=1).max(), X.sum(axis=0).max()  # ||X||, ||X^T|| in the inf-norm
    primal, dual = [_gamma(chain.m) * norm * b / np.max(np.abs(chain.frame.reduce(x)))
                    for norm, x in zip(norms, (sol.phi, sol.phi_star))]
    return primal, dual, np.sqrt(norms[0] * norms[1])


def _asymmetry_bound(chain, f, sol, x_norm):
    """The largest ||phi - phi*||_pi a correct solve can leave for a
    reversible chain, whose exact phi and phi* agree.

    With X the inverse of I - A for the computed A, y = X b and y* = X^T b
    satisfy (I - A)^T (y - y*) = (I - A^T) y - b = E y, E = A - A^T, so
    y - y* = X^T E y exactly: E holds the rounding of A and the chain's
    departure from detailed balance.  In the 2-norm,
    ||y - y*|| <= ||X|| ||E|| ||y||, with ||X|| <= x_norm and, E being
    antisymmetric, ||E|| <= sqrt(||E||_1 ||E||_inf) = ||E||_1.  The products
    X b and X^T b add at most gamma_m |X| |b| each, gamma_m x_norm ||b|| in
    the 2-norm (the inverse taken as exact, as in _solve_bounds).  lift adds
    at most gamma_{m+3} (|y| + 2 |v| |v|^T |y|) / sqrt(pi) to each entry (an
    m-term dot product with the unit vector v, a product, a subtraction and
    the division), 3 gamma_{m+3} ||y|| in the pi-norm, where
    ||g||_pi = ||reduce(g)|| for a mean-zero g.  To first order in u.
    """
    A = chain.A
    # ||E||_1 = ||E||_inf, the largest row sum of |E|, a block of rows at a time
    asymmetry = max((np.abs(A[i:i + ASYMMETRY_BLOCK] - A[:, i:i + ASYMMETRY_BLOCK].T)
                     .sum(axis=1).max() for i in range(0, chain.m, ASYMMETRY_BLOCK)),
                    default=0.0)
    y, y_star, b = (np.linalg.norm(chain.frame.reduce(x))
                    for x in (sol.phi, sol.phi_star, f))
    return (x_norm * (asymmetry * y + 2.0 * _gamma(chain.m) * b)
            + 3.0 * _gamma(chain.m + 3) * (y + y_star))


def _standard_normals(rng, k, n):
    """k x n standard normals from the random.Random rng, one row per probe.

    Each row takes 2n uniforms on [0, 1), the top 53 bits of 16n bytes of
    rng.randbytes read as little-endian 64-bit words, and Box-Muller maps
    each pair (u, v) to sqrt(-2 log(1 - u)) cos(2 pi v).  randbytes takes
    whole 32-bit outputs of the generator when asked for a multiple of 4
    bytes, so k rows at once are the rows of k calls for one row each.
    """
    words = np.frombuffer(rng.randbytes(16 * k * n), dtype="<u8") >> np.uint64(11)
    u = (words * 2.0 ** -53).reshape(k, 2, n)
    return np.sqrt(-2.0 * np.log(1.0 - u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])


def battery(chain, f, seed: int = 0):
    """(records, sigma^2): the verify battery for a ReducedChain and centered f.

    Each record is {"name", "residual", "bound", "passed"}.  The
    orthogonality record draws TRIALS random directions from
    random.Random(seed) (see _standard_normals).  The battery takes chain
    apart (see ReducedChain).

    The dual pair is solved once, and every record reads that one solution.
    The chain forgets (I - A)^{-1} once the dual pair and the norms of
    _solve_bounds are read.  Then every full-space quantity of the kernel
    is read (the two Poisson drives, the row sums, the diagonal and the
    two Dirichlet forms), and the chain drops the kernel: the spectral
    eigh and the inverse of I - S run beside A alone.  A, (I - S)^{-1} and
    T go once the last record is read, with any factor the chain held
    before.
    """
    seed = operator.index(seed)  # random.Random takes no numpy integer
    if seed < 0:  # random.Random would seed with its absolute value
        raise ValueError(f"seed must be at least 0, got {seed}")
    f = _as_vector(f)
    sol = solve_dual_pair(chain, None, f)
    saddle = _saddle(_positive(sol))
    primal, dual, x_norm = _solve_bounds(chain, f, sol)
    chain.forget("inv")
    P, w = chain.rows, chain.pi
    phi, star = sol.phi, sol.phi_star
    # the drives (I - P) phi and (I - P*) phi*, the adjoint by its definition,
    # P* g = P^T (pi g) / pi, with row sums P^T pi / pi; a copy of the
    # diagonal, as np.diag's view would keep the whole kernel
    drives = phi - P @ phi, star - P.T @ (w * star) / w
    diag = P.diagonal().copy()
    residuals = [_backward_error(drives[0] - f, phi, f, P.sum(axis=1), diag, primal),
                 _backward_error(drives[1] - f, star, f, P.T @ w / w, diag, dual)]
    del P
    value = saddle.value
    xi_star, eta_star = saddle.xi_star, saddle.eta_star
    identity = dirichlet_form(chain, None, xi_star + eta_star, xi_star - eta_star)
    minimum = _reversible_min(chain, sol)[1] if chain.reversible else None
    chain.drop_kernel()
    spectral = avar_spectral(chain, None, f) if chain.reversible else None
    _, route_records = _judge(chain, f, sol, spectral)
    checks = []

    def record(name, residual, bound):
        checks.append(_record(name, residual, bound))

    record("poisson residual (primal)", *residuals[0])
    record("poisson residual (dual)", *residuals[1])
    checks += route_records
    record("saddle Dirichlet identity", abs(identity - value), route_bound(value))
    _, sup_at_star = inner_sup(chain, None, f, xi_star)
    record("inner sup at xi*", abs(sup_at_star - value), route_bound(value))
    _, t_inf = _factored_min(chain, f, sol)
    record("factored-operator minimum", abs(t_inf - value), route_bound(value))
    # with Pi the projection onto pi(f .) = 0, self-adjoint in <., .>_pi, a probe
    # Pi g has <(I - P) phi, Pi g>_pi = <Pi (I - P) phi, g>_pi and
    # <(I - P) Pi g, phi*>_pi = <Pi (I - P*) phi*, g>_pi
    weighted = np.column_stack([w * project_to_constraint(d, f, w) for d in drives])
    probes = _standard_normals(random.Random(seed), TRIALS, w.shape[0])
    record("orthogonality of phi against pi(f .) = 0", np.max(np.abs(probes @ weighted)),
           max(route_bound(phi), route_bound(star)))
    if minimum is not None:
        record("reversible minimum", abs(minimum - value), route_bound(value))
        # ||eta*||_pi = ||phi - phi*||_pi / (2 sigma^2), against what rounding can
        # leave; eta* is scaled by a power of two first, so its square cannot underflow
        _, e = np.frexp(np.max(np.abs(eta_star)))
        eta = np.ldexp(eta_star, -e)
        record("eta* vanishes (reversible)", np.ldexp(np.sqrt(w @ (eta * eta)), e),
               0.5 * value * _asymmetry_bound(chain, f, sol, x_norm))
    for name in chain._FACTORS:
        chain.forget(name)
    return checks, sol.sigma2

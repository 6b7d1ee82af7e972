"""End-to-end acceptance suite.

Each test covers one advertised guarantee and prints a single PASS/FAIL
line (visible with pytest -s).  Tolerances are stated inline; random
checks use fixed seeds so the suite is deterministic.
"""

import time

import numpy as np
from click.testing import CliRunner

from mavar import (
    ReducedChain,
    avar_spectral,
    avar_via_factored_operator,
    batch_means_avar,
    catalog,
    dirichlet_form,
    factored_operator_inf,
    fk_order,
    inner_sup,
    apply_drift,
    make_nonreversible,
    family_alpha,
    project_to_constraint,
    resolvent_curve,
    saddle_point,
    simulate,
    solve_dual_pair,
    stationary_distribution,
)
from mavar.cli import main as cli_main
from mavar.ordering import order_pairs

from generators import (
    random_centered_observable,
    random_drift,
    random_irreducible_kernel,
    random_reversible_kernel,
    random_vorticity,
)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def avar_evaluator(kernel, pi):
    """Fast per-kernel closure: f -> asymptotic variance."""
    chain = ReducedChain(kernel, pi)
    form = (chain.inv + chain.inv.T) / 2

    def evaluate(f):
        y = chain.frame.reduce(f)
        return 2.0 * (y @ form @ y) - y @ y

    return evaluate


def test_criterion_1_fixture_reproduction():
    start = time.perf_counter()
    results = catalog.run_all(1e-9, None)
    elapsed = time.perf_counter() - start
    by_name = {r.row.name: r for r in results}
    listed = [
        ("six-cycle/sigma2(P2,f1)", 0.5),
        ("six-cycle/sigma2(P1,f2)", 1 / 3),
        ("six-cycle/sigma2(P2,f2)", 5 / 18),
        ("three-state-pair/form(P1)", (126 / 294, 252 / 294, 448 / 294)),
        ("three-state-pair/form(P2)", (105 / 294, 280 / 294, 448 / 294)),
        ("three-state-pair/gap(1,1,-11/3)", 1 / 42),
        ("three-state-pair/gap(2,1,-14/3)", -2 / 21),
        ("fk-pair/form(P)", (4 / 9, 4 / 9, 4 / 9)),
        ("uniform3/form(drift-1)", (3 / 5, 4 / 5, 3 / 5)),
        ("uniform3/form(drift-2)", (3 / 7, 3 / 7, 3 / 7)),
        ("uniform3/form(vorticity)", (0.5, 0.5, 0.5)),
    ]
    worst = 0.0
    for name, value in listed:
        computed = np.ravel(by_name[name].computed)
        worst = max(worst, float(np.max(np.abs(computed - np.ravel(value)))))
    worst_derived = max(r.delta_expected for r in results)
    ok = (worst <= 1e-12 and worst_derived <= 1e-12 and elapsed < 1.0
          and all(r.verdict != catalog.FAIL for r in results))
    report(1, ok,
           f"{len(results)} fixture rows, stated-value error {worst:.2e}, "
           f"derived-value error {worst_derived:.2e}, {elapsed:.2f}s")


def test_criterion_2_documented_discrepancy(six):
    pi = stationary_distribution(six["P1"])
    sigma2 = solve_dual_pair(six["P1"], pi, six["f1"]).sigma2
    psi = np.array([1.5, 1.5, 1.5, -1.0, -1.0, -1.0])
    residual = (psi - six["P1"] @ psi) - 1.25 * six["f1"]
    row = [r for r in catalog.run_all(1e-9, "sigma2(P1,f1)")][0]
    run = CliRunner().invoke(cli_main, ["reproduce-examples"])
    ok = (abs(sigma2 - 1 / 3) <= 1e-12
          and np.max(np.abs(residual)) <= 1e-14
          and row.verdict == catalog.DOCUMENTED
          and run.exit_code == 0)
    report(2, ok,
           f"sigma2 computed {sigma2:.12g} (claimed 5/12), companion solves "
           f"the 5/4-scaled equation to {np.max(np.abs(residual)):.1e}, "
           f"row flagged, reproduce-examples exits 0")


def variational_cases(catalog_cases, rng, count):
    """The catalog cases followed by count random irreducible ones."""
    out = list(catalog_cases)
    while len(out) < len(catalog_cases) + count:
        n = int(rng.integers(2, 13))
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
        if np.max(np.abs(ReducedChain(kernel, pi).spectrum)) >= 1.0 - 1e-9:
            continue
        out.append((kernel, pi, random_centered_observable(pi, rng)))
    return out


def test_criterion_3_variational_suite(catalog_cases):
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    cases = variational_cases(catalog_cases, rng, 100)
    worst = 0.0
    checks = 0
    for kernel, pi, f in cases:
        w = pi
        sigma2 = solve_dual_pair(kernel, pi, f).sigma2
        saddle = saddle_point(kernel, pi, f)
        value = saddle.value
        tol = 1e-9 * max(1.0, value)
        worst = max(worst, abs(value * sigma2 - 1.0))
        _, t_inf = factored_operator_inf(kernel, pi, f)
        worst = max(worst, abs(t_inf - value) / max(1.0, value))
        for trial in range(20):
            xi = project_to_constraint(rng.standard_normal(len(kernel)), f, w, 1.0)
            _, sup_val = inner_sup(kernel, pi, f, xi)
            worst = max(worst, (value - sup_val) / max(1.0, value))
        for trial in range(20):
            eta = project_to_constraint(rng.standard_normal(len(kernel)), f, w, 0.0)
            probe = dirichlet_form(kernel, pi,
                                   saddle.xi_star + eta,
                                   saddle.xi_star - eta)
            worst = max(worst, (probe - value) / max(1.0, value))
        checks += 42
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    report(3, ok,
           f"{len(cases)} chains, {checks} identity/inequality checks, "
           f"worst normalized violation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_route_agreement(catalog_cases):
    rng = np.random.default_rng(2026)
    cases = variational_cases(catalog_cases, rng, 100)
    worst = 0.0
    spectral_checked = 0
    for kernel, pi, f in cases:
        direct = solve_dual_pair(kernel, pi, f).sigma2
        scale = max(1.0, abs(direct))
        t_route = avar_via_factored_operator(kernel, pi, f)
        worst = max(worst, abs(t_route - direct) / scale)
    for trial in range(30):
        kernel, pi = random_reversible_kernel(int(rng.integers(2, 13)), rng)
        f = random_centered_observable(pi, rng)
        direct = solve_dual_pair(kernel, pi, f).sigma2
        scale = max(1.0, abs(direct))
        worst = max(worst, abs(avar_via_factored_operator(kernel, pi, f) - direct) / scale)
        worst = max(worst, abs(avar_spectral(kernel, pi, f) - direct) / scale)
        spectral_checked += 1
    ok = worst <= 1e-9
    report(4, ok,
           f"{len(cases)} chains dual-pair vs factored-operator, "
           f"{spectral_checked} reversible chains all three routes, "
           f"worst relative spread {worst:.2e}")


def test_criterion_5_order_implications():
    rng = np.random.default_rng(7)
    violations = 0
    worst_margin = np.inf
    for trial in range(200):
        n = int(rng.integers(3, 9))
        kernel, pi = random_reversible_kernel(n, rng)
        better = apply_drift(kernel, pi, random_drift(kernel, pi, rng))
        orders = order_pairs(kernel, better, pi)
        d = orders["dirichlet"][0]
        f = fk_order(better, kernel, pi)
        dom = orders["domination"][0]
        if not (d.holds and f.holds and dom.holds):
            violations += 1
        worst_margin = min(worst_margin, d.margin, f.margin)
    ok = violations == 0
    report(5, ok,
           f"200 generated Peskun pairs, {violations} violations of "
           f"dirichlet/fill-kahn/domination, worst margin {worst_margin:.2e}")


def test_criterion_6_acceleration_suite():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    violations = 0
    worst = -np.inf
    alphas = np.linspace(0.1, 1.0, 10)
    descent_grid = np.linspace(-1.0, 0.0, 11)
    for fixture in range(50):
        n = int(rng.integers(3, 8))
        kernel, pi = random_reversible_kernel(n, rng)
        vort = random_vorticity(kernel, pi, rng)
        drift = random_drift(kernel, pi, rng)
        accelerated = make_nonreversible(kernel, pi, vort)
        peskun_better = apply_drift(kernel, pi, drift)
        base_eval = avar_evaluator(kernel, pi)
        acc_eval = avar_evaluator(accelerated, pi)
        drift_eval = avar_evaluator(peskun_better, pi)
        sym_evals = [
            (avar_evaluator(family_alpha(kernel, pi, vort, a), pi),
             avar_evaluator(family_alpha(kernel, pi, vort, -a), pi))
            for a in alphas
        ]
        descent_evals = [
            avar_evaluator(family_alpha(kernel, pi, vort, a), pi)
            for a in descent_grid
        ]
        for probe in range(50):
            f = random_centered_observable(pi, rng)
            base = base_eval(f)
            tol = 1e-9 * max(1.0, abs(base))
            gap_vort = acc_eval(f) - base
            gap_drift = drift_eval(f) - base
            sym_err = max(abs(plus(f) - minus(f)) for plus, minus in sym_evals)
            # avar is non-decreasing as alpha rises from -1 to 0
            path = [e(f) for e in descent_evals]
            descent_err = max((-np.diff(path)).max(), 0.0)
            worst = max(worst, gap_vort, gap_drift, sym_err, descent_err)
            if (gap_vort > tol or gap_drift > tol or sym_err > tol
                    or descent_err > tol):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    report(6, ok,
           f"50 fixtures x 50 observables, {violations} violations of the "
           f"variance-reduction/symmetry/monotonicity guarantees, "
           f"{elapsed:.1f}s")


def test_criterion_7_resolvent_convergence(six):
    pi = stationary_distribution(six["P2"])
    betas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    curve = np.array([resolvent_curve(six["P2"], pi, six["f1"], beta) for beta in betas])
    gap = abs(curve[-1] - 0.5)
    monotone = bool(np.all(np.diff(curve) > 0))
    ok = gap <= 1e-3 and monotone
    report(7, ok,
           f"resolvent value at beta=1e-4 is {curve[-1]:.10f} "
           f"(gap {gap:.2e} <= 1e-3), monotone along beta: {monotone}")


def test_criterion_8_monte_carlo_consistency():
    start = time.perf_counter()
    six = catalog.six_cycle()
    three = catalog.three_state_pair()
    uni = catalog.uniform3()
    cases = [
        ("six-cycle P2/f1", six["P2"], six["f1"]),
        ("three-state P1/g1", three["P1"], three["g1"]),
        ("uniform3 P2/probe", uni["P2"], np.array([1.0, 0.0, -1.0])),
    ]
    details = []
    ok = True
    for name, kernel, f in cases:
        pi = stationary_distribution(kernel)
        truth = solve_dual_pair(kernel, pi, np.asarray(f, float)).avar
        seed = 0
        for attempt in range(2):
            traj = simulate(kernel, 10**6, seed)
            est = batch_means_avar(traj, np.asarray(f, float))
            z = abs(est.value - truth) / est.std_error
            if z <= 3.0:
                break
            seed += 1  # one deterministic rerun for an unlucky seed
        details.append(f"{name} z={z:.2f}")
        ok = ok and z <= 3.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(8, ok, f"batch means within 3 std errors ({', '.join(details)}), "
                  f"{elapsed:.1f}s")

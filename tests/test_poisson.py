import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from click.testing import CliRunner

from mavar import (
    DegenerateKernelError,
    KernelError,
    NumericalFailureError,
    ObservableError,
    ReducedChain,
    adjoint,
    avar_spectral,
    avar_via_factored_operator,
    centered,
    checks,
    is_reversible,
    pi_inner,
    resolvent_curve,
    solve_dual_pair,
    stationary_distribution,
    validate_kernel,
)
from mavar.cli import main
from mavar.kernel import SOLVABLE_TOL

from generators import (
    random_centered_observable,
    random_irreducible_kernel,
    random_reversible_kernel,
    reversible_two_blocks,
)


def cycle_poisson_oracle(f):
    """Closed-form solution for the lazy clockwise rotation on a cycle.

    The balance equation reduces to phi[i+1] = phi[i] - 2 f[i], a pure
    telescope, so the solution needs no linear algebra at all.
    """
    n = len(f)
    phi = np.zeros(n)
    for i in range(n - 1):
        phi[i + 1] = phi[i] - 2.0 * f[i]
    return phi - phi.mean()


def block_kernel():
    rows = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    return validate_kernel(rows), np.full(4, 0.25)


def test_solve_poisson_matches_telescoping_oracle(six, rng):
    pi = stationary_distribution(six["P1"])
    for trial in range(25):
        f = rng.standard_normal(6)
        f -= f.mean()
        phi = solve_dual_pair(six["P1"], pi, f).phi
        npt.assert_allclose(phi, cycle_poisson_oracle(f), atol=1e-12)


def test_six_cycle_exact_solutions(six):
    pi = stationary_distribution(six["P1"])
    sol = solve_dual_pair(six["P1"], pi, six["f1"])
    npt.assert_allclose(sol.phi, [1, 1, 1, -1, -1, -1], atol=1e-13)
    assert sol.sigma2 == pytest.approx(1 / 3, abs=1e-13)
    assert sol.avar == pytest.approx(1 / 3, abs=1e-13)

    sol = solve_dual_pair(six["P1"], pi, six["f2"])
    npt.assert_allclose(sol.phi,
                        [1 / 3, -5 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3],
                        atol=1e-13)
    assert sol.sigma2 == pytest.approx(1 / 3, abs=1e-13)

    sol = solve_dual_pair(six["P2"], pi, six["f1"])
    npt.assert_allclose(sol.phi, [-0.5, 0.5, 1.5, 0.5, -0.5, -1.5],
                        atol=1e-13)
    npt.assert_allclose(sol.phi_star, sol.phi, atol=1e-13)
    assert sol.sigma2 == pytest.approx(0.5, abs=1e-13)
    assert sol.avar == pytest.approx(2 / 3, abs=1e-13)

    sol = solve_dual_pair(six["P2"], pi, six["f2"])
    npt.assert_allclose(sol.phi,
                        [5 / 6, -5 / 6, -0.5, -1 / 6, 1 / 6, 0.5],
                        atol=1e-13)
    assert sol.sigma2 == pytest.approx(5 / 18, abs=1e-13)


def test_rotation_companion_regression(six):
    # the widely copied companion vector for the rotation solves a scaled
    # equation, not the stated one: applying the operator returns 5/4 f1
    psi = np.array([1.5, 1.5, 1.5, -1.0, -1.0, -1.0])
    image = psi - six["P1"] @ psi
    npt.assert_allclose(image, 1.25 * six["f1"], atol=1e-14)
    pi = stationary_distribution(six["P1"])
    assert solve_dual_pair(six["P1"], pi, six["f1"]).sigma2 == pytest.approx(
        1 / 3, abs=1e-13)


def test_solve_poisson_requires_centered_input(six):
    pi = stationary_distribution(six["P1"])
    with pytest.raises(ObservableError, match="observable has pi-mean"):
        solve_dual_pair(six["P1"], pi, np.ones(6))


def test_periodic_kernel_is_still_solvable(six):
    # the symmetric walk has period two, its mean-zero spectrum touches -1,
    # yet the equation stays well posed
    pi = stationary_distribution(six["P2"])
    sol = solve_dual_pair(six["P2"], pi, six["f1"])
    assert np.isfinite(sol.sigma2)


def test_degenerate_gate_rejects_disconnected_kernel():
    kernel, pi = block_kernel()
    with pytest.raises(DegenerateKernelError) as info:
        solve_dual_pair(kernel, pi, np.array([1.0, -1.0, 1.0, -1.0]))
    assert info.value.separation <= 1e-12
    assert info.value.radius == pytest.approx(1.0, abs=1e-12)


def coupled_blocks(eps):
    """Two lazy 3-cycles joined by total coupling eps.

    Doubly stochastic, so pi is uniform, and non-reversible.  The
    block-sign vector has eigenvalue 1 - 2 eps, so I - A and I - S both
    approach singular as eps -> 0.
    """
    rotation = 0.5 * np.eye(3) + 0.5 * np.roll(np.eye(3), 1, axis=1)
    rows = np.full((6, 6), eps / 3.0)
    rows[:3, :3] = rows[3:, 3:] = (1.0 - eps) * rotation
    return validate_kernel(rows), np.full(6, 1.0 / 6.0)


@pytest.mark.parametrize("chain, f, exit_code", [
    pytest.param(coupled_blocks(1e-14), [1.0, 1.0, 1.0, -1.0, -1.0, -1.0], 4,
                 id="coupled-1e-14"),
    # reducible: the commands refuse it before any route
    pytest.param(block_kernel(), [1.0, -1.0, 1.0, -1.0], 3, id="two-blocks"),
])
def test_the_factored_route_alone_meets_its_own_gate_on_a_decoupled_chain(
        tmp_path, chain, f, exit_code):
    # I - S is singular wherever I - A is, so the route's own gate raises
    # without the inverse of I - A; the commands build that inverse first
    kernel, pi = chain
    fresh = ReducedChain(kernel, pi)
    with pytest.raises(KernelError, match="reversibilized operator singular"):
        avar_via_factored_operator(fresh, None, f)
    assert "inv" not in vars(fresh)
    kernel_path, f_path = tmp_path / "k.json", tmp_path / "f.json"
    kernel_path.write_text(json.dumps({"rows": kernel.tolist(), "pi": pi.tolist()}))
    f_path.write_text(json.dumps(f))
    for command in ("analyze", "verify"):
        result = CliRunner().invoke(main, [command, str(kernel_path), str(f_path)])
        assert result.exit_code == exit_code, result.output


def test_condition_gates_raise_exactly_where_the_spectrum_does(monkeypatch):
    eigvals = np.linalg.eigvals
    spectrum_calls = []

    def counted(a):
        spectrum_calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    outcomes = []
    for k in range(2, 15):
        kernel, pi = coupled_blocks(10.0 ** -k)
        chain = ReducedChain(kernel, pi)
        before = len(spectrum_calls)
        try:
            chain.inv
            degenerate = False
        except DegenerateKernelError as exc:
            degenerate = True
            assert exc.separation <= SOLVABLE_TOL
            assert exc.radius == pytest.approx(1.0, abs=1e-12)
        estimate_only = len(spectrum_calls) == before
        assert degenerate == (np.min(np.abs(1.0 - eigvals(chain.A))) <= SOLVABLE_TOL)
        try:
            chain.cinv
            singular = False
        except KernelError:
            singular = True
        sym = np.eye(chain.m) - 0.5 * (chain.A + chain.A.T)
        assert singular == (np.min(np.linalg.eigvalsh(sym)) <= SOLVABLE_TOL)
        outcomes.append((degenerate, singular, estimate_only))
    assert outcomes[0] == (False, False, True)
    assert outcomes[-1][:2] == (True, True)


def test_factored_route_catches_a_corrupted_lu(rng):
    kernel = random_irreducible_kernel(8, rng)
    pi = stationary_distribution(kernel)
    f = random_centered_observable(pi, rng)
    chain = ReducedChain(kernel, pi)
    sigma2 = avar_via_factored_operator(chain, pi, f)
    assert sigma2 == pytest.approx(solve_dual_pair(kernel, pi, f).sigma2, rel=1e-9)
    # the factored route solves with T, never with the inverse of I - A, and
    # judges nothing: the battery's records see the corrupted inverse
    chain.inv[0, 0] *= 1.001
    assert avar_via_factored_operator(chain, pi, f) == sigma2
    records, _ = checks.battery(chain, f)
    failed = {r["name"] for r in records if not r["passed"]}
    assert {"factored-operator route", "factored-operator solution"} <= failed


@pytest.mark.parametrize("broken", ["zero pivot", "overflow"])
def test_a_broken_inverse_that_the_spectrum_clears_is_a_numerical_failure(
        rng, monkeypatch, broken):
    kernel = random_irreducible_kernel(6, rng)
    chain = ReducedChain(kernel, stationary_distribution(kernel))

    def inverse(a):
        if broken == "zero pivot":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full_like(a, np.inf)

    monkeypatch.setattr(np.linalg, "inv", inverse)
    with pytest.raises(NumericalFailureError, match="singular to working precision"):
        chain.inv


def test_overflowing_variance_is_a_numerical_failure():
    kernel = validate_kernel(np.full((2, 2), 0.5))
    pi = np.array([0.5, 0.5])
    with pytest.raises(NumericalFailureError, match="overflows float64"):
        solve_dual_pair(kernel, pi, np.array([1e308, -1e308]))


def test_an_overflowing_solution_is_a_numerical_failure_not_a_warning():
    # on the rev 1e-6 chain phi itself overflows, not only sigma^2
    rows, f = reversible_two_blocks(1e-6)
    kernel = validate_kernel(rows)
    pi = stationary_distribution(kernel)
    with pytest.raises(NumericalFailureError, match="overflows float64"):
        solve_dual_pair(kernel, pi, centered(1e306 * f, pi))


@pytest.mark.parametrize("rows, f", [
    ([[0.0, 1.0], [1.0, 0.0]], [1.0, -1.0]),
    (np.roll(np.eye(6), 1, axis=1) / 2 + np.roll(np.eye(6), -1, axis=1) / 2,
     [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]),
])
def test_exact_zero_avar_is_reported_as_zero(rows, f):
    # P f = -f on a period-two chain: avar = 2 sigma^2 - <f, f> = 0 exactly,
    # which the subtraction can round a few ulps below zero
    kernel = validate_kernel(rows)
    sol = solve_dual_pair(kernel, stationary_distribution(kernel), np.array(f))
    assert sol.sigma2 == pytest.approx(0.5)
    assert sol.avar == 0.0


def test_dual_pair_properties_random(rng):
    for trial in range(20):
        n = int(rng.integers(2, 10))
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
        w = pi
        f = random_centered_observable(pi, rng)
        sol = solve_dual_pair(kernel, pi, f)
        npt.assert_allclose(sol.phi - kernel @ sol.phi, f,
                            atol=1e-10)
        star = adjoint(kernel, pi)
        npt.assert_allclose(
            sol.phi_star - star @ sol.phi_star, f,
            atol=1e-10)
        assert pi_inner(sol.phi, f, w) == pytest.approx(
            pi_inner(f, sol.phi_star, w), abs=1e-10)
        assert sol.avar == pytest.approx(
            2.0 * sol.sigma2 - pi_inner(f, f, w), abs=1e-10)


def test_factored_operator_route_agrees(rng):
    for trial in range(20):
        n = int(rng.integers(2, 10))
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
        f = random_centered_observable(pi, rng)
        direct = solve_dual_pair(kernel, pi, f).sigma2
        assert avar_via_factored_operator(kernel, pi, f) == pytest.approx(
            direct, rel=1e-9, abs=1e-9)


def test_spectral_route_agrees_for_reversible(rng):
    for trial in range(20):
        kernel, pi = random_reversible_kernel(int(rng.integers(2, 10)), rng)
        f = random_centered_observable(pi, rng)
        direct = solve_dual_pair(kernel, pi, f).sigma2
        assert avar_spectral(kernel, pi, f) == pytest.approx(
            direct, rel=1e-9, abs=1e-9)


def test_spectral_route_flags_infinite_variance():
    kernel, pi = block_kernel()
    coupled = avar_spectral(kernel, pi, np.array([1.0, 1.0, -1.0, -1.0]))
    assert coupled == math.inf
    within = avar_spectral(kernel, pi, np.array([1.0, -1.0, 1.0, -1.0]))
    assert within == pytest.approx(1.0, abs=1e-12)


def test_resolvent_curve_six_cycle(six):
    pi = stationary_distribution(six["P2"])
    betas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    curve = np.array([resolvent_curve(six["P2"], pi, six["f1"], beta) for beta in betas])
    assert is_reversible(six["P2"], pi)
    assert np.all(np.diff(curve) > 0)
    assert curve[-1] < 0.5
    assert 0.5 - curve[-1] < 1e-3
    # the gap to the limit dominates beta * ||phi_beta||^2
    norms = []
    for beta in betas:
        phi = np.linalg.solve((1.0 + beta) * np.eye(6) - six["P2"], six["f1"])
        norms.append(beta * pi_inner(phi, phi, pi))
    assert np.all(np.array(norms) > 0)
    assert np.all(0.5 - curve >= np.array(norms) - 1e-15)

    curve1 = np.array([resolvent_curve(six["P1"], pi, six["f1"], beta) for beta in betas])
    assert not is_reversible(six["P1"], pi)
    assert abs(curve1[-1] - 1 / 3) < 1e-3


def test_resolvent_curve_rejects_bad_betas(six):
    pi = stationary_distribution(six["P2"])
    with pytest.raises(ValueError, match="beta must be positive"):
        resolvent_curve(six["P2"], pi, six["f1"], 0.0)
    with pytest.raises(ValueError, match="beta must be positive"):
        resolvent_curve(six["P2"], pi, six["f1"], -1e-3)


def test_check_dual_equality(six, rng):
    # avar(P, f) = avar(P*, f), and the adjoint's phi is P's phi*
    def both(kernel, pi, f):
        return solve_dual_pair(kernel, pi, f), solve_dual_pair(adjoint(kernel, pi), pi, f)

    pi = stationary_distribution(six["P1"])
    first, second = both(six["P1"], pi, six["f1"])
    assert first.avar == pytest.approx(second.avar, abs=1e-12)
    for trial in range(10):
        kernel = random_irreducible_kernel(6, rng)
        pi = stationary_distribution(kernel)
        f = random_centered_observable(pi, rng)
        first, second = both(kernel, pi, f)
        assert first.avar == pytest.approx(second.avar, abs=1e-10)
        npt.assert_allclose(second.phi, first.phi_star, atol=1e-10)


def test_quadratic_form_reproduces_sigma2(rng):
    for trial in range(15):
        n = int(rng.integers(2, 9))
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
        chain = ReducedChain(kernel, pi)
        # the reduced variance form lifted back to state space
        half = np.sqrt(pi)[:, None] * chain.frame._expand(np.eye(n - 1))
        form = half @ ((chain.inv + chain.inv.T) / 2) @ half.T
        npt.assert_allclose(form, form.T, atol=1e-12)
        # constants are annihilated
        npt.assert_allclose(form @ np.ones(n), 0.0, atol=1e-10)
        f = random_centered_observable(pi, rng)
        direct = solve_dual_pair(kernel, pi, f).sigma2
        assert f @ form @ f == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_variance_form_reduced_symmetric(rng):
    kernel = random_irreducible_kernel(7, rng)
    pi = stationary_distribution(kernel)
    X = ReducedChain(kernel, pi).inv
    m = (X + X.T) / 2
    npt.assert_allclose(m, m.T, atol=1e-12)
    assert m.shape == (6, 6)

import math

import numpy as np
import numpy.testing as npt
import pytest

from mavar import (
    DegenerateKernelError,
    NotCenteredError,
    NumericalFailureError,
    ReducedChain,
    SingularReversibilizationError,
    adjoint,
    avar_spectral,
    avar_via_factored_operator,
    check_dual_equality,
    pi_inner,
    resolvent_curve,
    sigma2_quadratic_form,
    solve_dual_pair,
    stationary_distribution,
    validate_kernel,
)
from mavar.generators import (
    random_centered_observable,
    random_irreducible_kernel,
    random_reversible_kernel,
)
from mavar.kernel import SOLVABLE_TOL


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
    image = psi - six["P1"].rows @ psi
    npt.assert_allclose(image, 1.25 * six["f1"], atol=1e-14)
    pi = stationary_distribution(six["P1"])
    assert solve_dual_pair(six["P1"], pi, six["f1"]).sigma2 == pytest.approx(
        1 / 3, abs=1e-13)


def test_solve_poisson_requires_centered_input(six):
    pi = stationary_distribution(six["P1"])
    with pytest.raises(NotCenteredError):
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
        except SingularReversibilizationError:
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
    assert avar_via_factored_operator(chain, pi, f) == pytest.approx(
        solve_dual_pair(kernel, pi, f).sigma2, rel=1e-9)
    # the factored route solves with T, never with the inverse of I - A
    chain.inv[0, 0] *= 1.001
    with pytest.raises(NumericalFailureError):
        avar_via_factored_operator(chain, pi, f)


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
        npt.assert_allclose(sol.phi - kernel.rows @ sol.phi, f,
                            atol=1e-10)
        star = adjoint(kernel, pi)
        npt.assert_allclose(
            sol.phi_star - star.rows @ sol.phi_star, f,
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
    curve = resolvent_curve(six["P2"], pi, six["f1"], betas)
    assert curve.reversible
    assert np.all(np.diff(curve.values) > 0)
    assert curve.values[-1] < 0.5
    assert 0.5 - curve.values[-1] < 1e-3
    # the gap to the limit dominates beta * ||phi_beta||^2
    assert np.all(curve.beta_norms > 0)
    assert np.all(0.5 - curve.values >= curve.beta_norms - 1e-15)

    curve1 = resolvent_curve(six["P1"], pi, six["f1"], betas)
    assert not curve1.reversible
    assert abs(curve1.values[-1] - 1 / 3) < 1e-3


def test_resolvent_curve_rejects_bad_betas(six):
    pi = stationary_distribution(six["P2"])
    with pytest.raises(ValueError):
        resolvent_curve(six["P2"], pi, six["f1"], [1e-4, 1e-3])
    with pytest.raises(ValueError):
        resolvent_curve(six["P2"], pi, six["f1"], [1e-2, 0.0])


def test_check_dual_equality(six, rng):
    pi = stationary_distribution(six["P1"])
    first, second = check_dual_equality(six["P1"], pi, six["f1"])
    assert first == pytest.approx(second, abs=1e-12)
    for trial in range(10):
        kernel = random_irreducible_kernel(6, rng)
        pi = stationary_distribution(kernel)
        f = random_centered_observable(pi, rng)
        first, second = check_dual_equality(kernel, pi, f)
        assert first == pytest.approx(second, abs=1e-10)


def test_quadratic_form_reproduces_sigma2(rng):
    for trial in range(15):
        n = int(rng.integers(2, 9))
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
        form = sigma2_quadratic_form(kernel, pi)
        npt.assert_allclose(form, form.T, atol=1e-12)
        # constants are annihilated
        npt.assert_allclose(form @ np.ones(n), 0.0, atol=1e-10)
        f = random_centered_observable(pi, rng)
        direct = solve_dual_pair(kernel, pi, f).sigma2
        assert f @ form @ f == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_variance_form_reduced_symmetric(rng):
    kernel = random_irreducible_kernel(7, rng)
    pi = stationary_distribution(kernel)
    m = ReducedChain(kernel, pi).variance_form
    npt.assert_allclose(m, m.T, atol=1e-12)
    assert m.shape == (6, 6)

import numpy as np
import numpy.testing as npt
import pytest

from mavar import (
    InfeasibleConstraintError,
    NotReversibleError,
    ZeroVarianceError,
    dirichlet_form,
    factored_operator_inf,
    inner_sup,
    pi_inner,
    project_to_constraint,
    reversible_inf,
    saddle_point,
    solve_dual_pair,
    stationary_distribution,
)
from mavar.generators import (
    random_centered_observable,
    random_irreducible_kernel,
    random_reversible_kernel,
)


def test_dirichlet_form_shift_invariant(six, rng):
    pi = stationary_distribution(six["P1"])
    xi = rng.standard_normal(6)
    eta = rng.standard_normal(6)
    base = dirichlet_form(six["P1"], pi, xi, eta)
    assert dirichlet_form(six["P1"], pi, xi + 3.7, eta) == pytest.approx(
        base, abs=1e-12)
    assert dirichlet_form(six["P1"], pi, xi, eta - 1.9) == pytest.approx(
        base, abs=1e-12)


def test_dirichlet_form_nonnegative_on_diagonal(rng):
    for trial in range(20):
        kernel = random_irreducible_kernel(int(rng.integers(2, 9)), rng)
        pi = stationary_distribution(kernel)
        xi = rng.standard_normal(kernel.n)
        assert dirichlet_form(kernel, pi, xi, xi) >= -1e-12


def test_project_to_constraint():
    pi = np.array([0.2, 0.3, 0.5])
    f = np.array([1.0, 1.0, -1.0])
    g = np.array([2.0, -1.0, 0.5])
    shifted = project_to_constraint(g, f, pi, 1.0)
    assert pi_inner(f, shifted, pi) == pytest.approx(1.0, abs=1e-14)
    zeroed = project_to_constraint(g, f, pi, 0.0)
    assert pi_inner(f, zeroed, pi) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ZeroVarianceError):
        project_to_constraint(g, np.zeros(3), pi, 1.0)


def test_saddle_point_identities(six):
    pi = stationary_distribution(six["P1"])
    sol = solve_dual_pair(six["P1"], pi, six["f1"])
    saddle = saddle_point(six["P1"], pi, six["f1"])
    assert saddle.value == pytest.approx(1.0 / sol.sigma2, abs=1e-12)
    w = pi
    assert pi_inner(six["f1"], saddle.xi_star, w) == pytest.approx(1.0, abs=1e-12)
    assert pi_inner(six["f1"], saddle.eta_star, w) == pytest.approx(0.0, abs=1e-12)
    npt.assert_allclose(
        saddle.xi_star,
        (sol.phi + sol.phi_star) / (2.0 * sol.sigma2),
        atol=1e-12)
    npt.assert_allclose(
        saddle.eta_star,
        (sol.phi - sol.phi_star) / (2.0 * sol.sigma2),
        atol=1e-12)
    attained = dirichlet_form(six["P1"], pi,
                              saddle.xi_star + saddle.eta_star,
                              saddle.xi_star - saddle.eta_star)
    assert attained == pytest.approx(saddle.value, abs=1e-12)


def test_saddle_eta_vanishes_for_reversible(six):
    pi = stationary_distribution(six["P2"])
    saddle = saddle_point(six["P2"], pi, six["f1"])
    npt.assert_allclose(saddle.eta_star, 0.0, atol=1e-12)


def test_saddle_rejects_null_observable(six):
    pi = stationary_distribution(six["P1"])
    with pytest.raises(ZeroVarianceError):
        saddle_point(six["P1"], pi, np.zeros(6))


def test_inner_sup_attained_at_optimum(six):
    pi = stationary_distribution(six["P1"])
    saddle = saddle_point(six["P1"], pi, six["f1"])
    eta, value = inner_sup(six["P1"], pi, six["f1"], saddle.xi_star)
    assert value == pytest.approx(saddle.value, abs=1e-12)
    npt.assert_allclose(eta, saddle.eta_star, atol=1e-10)


def test_inner_sup_rejects_infeasible_xi(six):
    pi = stationary_distribution(six["P1"])
    with pytest.raises(InfeasibleConstraintError):
        inner_sup(six["P1"], pi, six["f1"], np.zeros(6))


def test_minimax_sandwich_random(rng):
    for trial in range(15):
        n = int(rng.integers(3, 9))
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
        w = pi
        f = random_centered_observable(pi, rng)
        saddle = saddle_point(kernel, pi, f)
        for probe in range(20):
            shift = project_to_constraint(rng.standard_normal(n), f, w, 0.0)
            xi = saddle.xi_star + shift
            _, sup_val = inner_sup(kernel, pi, f, xi)
            assert sup_val >= saddle.value - 1e-9 * max(1.0, saddle.value)
        for probe in range(20):
            eta = project_to_constraint(rng.standard_normal(n), f, w, 0.0)
            inner = dirichlet_form(kernel, pi,
                                   saddle.xi_star + eta,
                                   saddle.xi_star - eta)
            assert inner <= saddle.value + 1e-9 * max(1.0, saddle.value)


def test_orthogonality_of_solutions(rng):
    # the solution pair is Dirichlet-orthogonal to the zero-constraint slice
    for trial in range(10):
        n = int(rng.integers(3, 9))
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
        w = pi
        f = random_centered_observable(pi, rng)
        sol = solve_dual_pair(kernel, pi, f)
        for probe in range(10):
            g = project_to_constraint(rng.standard_normal(n), f, w, 0.0)
            assert dirichlet_form(kernel, pi, sol.phi, g) == pytest.approx(
                0.0, abs=1e-9)
            assert dirichlet_form(kernel, pi, g, sol.phi_star) == pytest.approx(
                0.0, abs=1e-9)


def test_reversible_inf(six):
    pi = stationary_distribution(six["P2"])
    xi, value = reversible_inf(six["P2"], pi, six["f1"])
    assert value == pytest.approx(2.0, abs=1e-12)
    sol = solve_dual_pair(six["P2"], pi, six["f1"])
    npt.assert_allclose(xi, sol.phi / sol.sigma2, atol=1e-12)
    assert pi_inner(six["f1"], xi, pi) == pytest.approx(1.0, abs=1e-12)


def test_reversible_inf_rejects_nonreversible(six):
    pi = stationary_distribution(six["P1"])
    with pytest.raises(NotReversibleError):
        reversible_inf(six["P1"], pi, six["f1"])


def test_reversible_inf_matches_saddle_random(rng):
    for trial in range(10):
        kernel, pi = random_reversible_kernel(int(rng.integers(2, 9)), rng)
        f = random_centered_observable(pi, rng)
        _, value = reversible_inf(kernel, pi, f)
        saddle = saddle_point(kernel, pi, f)
        assert value == pytest.approx(saddle.value, rel=1e-9, abs=1e-9)


def test_factored_operator_inf_agrees(rng):
    for trial in range(15):
        n = int(rng.integers(2, 9))
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
        f = random_centered_observable(pi, rng)
        xi, value = factored_operator_inf(kernel, pi, f)
        sigma2 = solve_dual_pair(kernel, pi, f).sigma2
        assert value == pytest.approx(1.0 / sigma2, rel=1e-9, abs=1e-9)
        assert pi_inner(f, xi, pi) == pytest.approx(1.0, abs=1e-10)

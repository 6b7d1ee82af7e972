import numpy as np
import numpy.testing as npt
import pytest

from mavar import (
    KernelError,
    PerturbationError,
    adjoint,
    apply_drift,
    family_alpha,
    is_reversible,
    make_nonreversible,
    peskun_residual,
    solve_dual_pair,
    stationary_distribution,
    validate_drift,
    validate_vorticity,
)

from mavar.perturb import _density

from generators import (
    random_centered_observable,
    random_drift,
    random_reversible_kernel,
    random_vorticity,
)

UNIFORM_K = np.full((3, 3), 1 / 3)
UNIFORM_PI = np.full(3, 1 / 3)


def cyclic(value):
    return np.array([
        [-value, value, 0.0],
        [0.0, -value, value],
        [value, 0.0, -value],
    ])


def test_validate_vorticity_small_circulation():
    gamma = np.array([
        [0.0, -1 / 9, 1 / 9],
        [1 / 9, 0.0, -1 / 9],
        [-1 / 9, 1 / 9, 0.0],
    ])
    checked = validate_vorticity(UNIFORM_K, UNIFORM_PI, gamma)
    npt.assert_array_equal(checked, gamma)
    h, _ = _density(UNIFORM_K, UNIFORM_PI, checked)
    assert np.max(np.abs(h)) == pytest.approx(1 / 3, abs=1e-14)
    skewed = make_nonreversible(UNIFORM_K, UNIFORM_PI, checked)
    npt.assert_allclose(skewed[0], [1 / 3, 2 / 9, 4 / 9], atol=1e-14)
    npt.assert_allclose(skewed.sum(axis=1), 1.0, atol=1e-14)


def test_validate_vorticity_saturated(uniform3):
    gamma = uniform3["gamma"]
    h, _ = _density(UNIFORM_K, UNIFORM_PI, gamma)
    assert np.max(np.abs(h)) == pytest.approx(1.0, abs=1e-14)
    skewed = make_nonreversible(UNIFORM_K, UNIFORM_PI, gamma)
    npt.assert_allclose(skewed, uniform3["P"], atol=1e-14)
    npt.assert_allclose(skewed[0], [1 / 3, 0.0, 2 / 3], atol=1e-14)


def test_vorticity_turns_walk_into_rotation(four):
    skewed = make_nonreversible(four["K"], four["pi"], four["gamma"])
    npt.assert_allclose(skewed, four["P"], atol=1e-14)
    # the result is a deterministic cyclic shift
    npt.assert_allclose(skewed, np.roll(np.eye(4), 1, axis=1), atol=1e-14)


def test_validate_vorticity_rejects_bad_row_sums():
    gamma = np.array([
        [0.1, -0.1, 0.1],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    with pytest.raises(PerturbationError, match="row 0 sums to 0.1"):
        validate_vorticity(UNIFORM_K, UNIFORM_PI, gamma)


def test_validate_vorticity_rejects_nonantisymmetric():
    gamma = np.array([
        [0.0, 0.1, -0.1],
        [0.1, -0.05, -0.05],
        [-0.1, 0.05, 0.05],
    ])
    with pytest.raises(PerturbationError, match="deviates from antisymmetry"):
        validate_vorticity(UNIFORM_K, UNIFORM_PI, gamma)


def test_validate_vorticity_rejects_unsupported_edge(tridiag):
    # the tridiagonal kernel has no corner edge, circulation cannot use it
    gamma = np.array([
        [0.0, -1 / 9, 1 / 9],
        [1 / 9, 0.0, -1 / 9],
        [-1 / 9, 1 / 9, 0.0],
    ])
    pi = stationary_distribution(tridiag["K"])
    with pytest.raises(PerturbationError, match=r"zero-capacity edge \(0,2\)"):
        validate_vorticity(tridiag["K"], pi, gamma)


def test_validate_vorticity_rejects_overflow():
    gamma = np.array([
        [0.0, -0.5, 0.5],
        [0.5, 0.0, -0.5],
        [-0.5, 0.5, 0.0],
    ])
    with pytest.raises(PerturbationError, match="exceeds 1"):
        validate_vorticity(UNIFORM_K, UNIFORM_PI, gamma)


def test_make_nonreversible_rejects_foreign_kernel(four, tridiag):
    pi = stationary_distribution(tridiag["K"])
    with pytest.raises(PerturbationError, match="vorticity does not fit kernel"):
        make_nonreversible(tridiag["K"], pi, four["gamma"])


def test_reversibilization_recovers_base(rng):
    for trial in range(15):
        kernel, pi = random_reversible_kernel(int(rng.integers(3, 8)), rng)
        gamma = random_vorticity(kernel, pi, rng)
        skewed = make_nonreversible(kernel, pi, gamma)
        back = 0.5 * (skewed + adjoint(skewed, pi))
        npt.assert_allclose(back, kernel, atol=1e-12)
        npt.assert_allclose(pi @ skewed, pi, atol=1e-12)


def test_vorticity_never_increases_avar(rng):
    for trial in range(20):
        kernel, pi = random_reversible_kernel(int(rng.integers(3, 8)), rng)
        gamma = random_vorticity(kernel, pi, rng)
        skewed = make_nonreversible(kernel, pi, gamma)
        f = random_centered_observable(pi, rng)
        base = solve_dual_pair(kernel, pi, f).avar
        assert solve_dual_pair(skewed, pi, f).avar <= base + 1e-10


def test_family_alpha_adjoint_symmetry(four, rng):
    for alpha in (-1.0, -0.5, 0.25, 1.0):
        plus = family_alpha(four["K"], four["pi"], four["gamma"], alpha)
        minus = family_alpha(four["K"], four["pi"], four["gamma"], -alpha)
        npt.assert_allclose(adjoint(plus, four["pi"]), minus,
                            atol=1e-14)
    zero = family_alpha(four["K"], four["pi"], four["gamma"], 0.0)
    npt.assert_allclose(zero, four["K"], atol=1e-14)


def test_family_alpha_variance_symmetric_and_monotone(rng):
    kernel, pi = random_reversible_kernel(5, rng)
    gamma = random_vorticity(kernel, pi, rng)
    f = random_centered_observable(pi, rng)
    grid = np.linspace(0.1, 1.0, 10)
    for alpha in grid:
        left = solve_dual_pair(family_alpha(kernel, pi, gamma, -alpha), pi, f)
        right = solve_dual_pair(family_alpha(kernel, pi, gamma, alpha), pi, f)
        assert left.avar == pytest.approx(right.avar, rel=1e-9, abs=1e-9)
    descent = [
        solve_dual_pair(family_alpha(kernel, pi, gamma, a), pi, f).avar
        for a in np.linspace(-1.0, 0.0, 11)
    ]
    assert np.all(np.diff(descent) >= -1e-9)


def test_family_alpha_range_check(four):
    with pytest.raises(PerturbationError, match=r"outside \[-1, 1\]"):
        family_alpha(four["K"], four["pi"], four["gamma"], 1.5)
    with pytest.raises(PerturbationError, match=r"outside \[-1, 1\]"):
        family_alpha(four["K"], four["pi"], four["gamma"], -1.0001)


def test_saturated_circulation_is_grid_optimum(rng):
    # scaling the circulation up monotonically improves the estimator,
    # so the boundary density is the best member of the family
    kernel, pi = random_reversible_kernel(4, rng)
    gamma = random_vorticity(kernel, pi, rng, target_density=1.0)
    f = random_centered_observable(pi, rng)
    values = [
        solve_dual_pair(family_alpha(kernel, pi, gamma, t), pi, f).avar
        for t in np.linspace(0.0, 1.0, 5)
    ]
    assert np.all(np.diff(values) <= 1e-10)
    assert np.argmin(values) == len(values) - 1


def test_validate_drift_tight_diagonal(uniform3):
    lam = uniform3["lam1"]
    spec = validate_drift(UNIFORM_K, UNIFORM_PI, lam)
    applied = apply_drift(UNIFORM_K, UNIFORM_PI, spec)
    npt.assert_allclose(applied, uniform3["P1"], atol=1e-14)
    # the corrected holding-time budget is exactly exhausted at two states
    assert applied[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert applied[1, 1] == pytest.approx(0.0, abs=1e-14)


def test_validate_drift_budget_sign():
    # doubling the circulation strength overdraws the holding budget; a
    # reversed inequality would wave this through
    lam = cyclic(2 / 9)
    with pytest.raises(PerturbationError, match=r"pi K_ii \+ Lambda_ii"):
        validate_drift(UNIFORM_K, UNIFORM_PI, lam)
    validate_drift(UNIFORM_K, UNIFORM_PI, cyclic(1 / 9))


def test_validate_drift_rejects_bad_sums():
    lam = np.array([
        [-0.1, 0.1, 0.0],
        [0.0, -0.1, 0.1],
        [0.0, 0.0, 0.0],
    ])
    with pytest.raises(PerturbationError, match="does not sum to zero"):
        validate_drift(UNIFORM_K, UNIFORM_PI, lam)


def test_validate_drift_rejects_negative_off_diagonal():
    lam = np.array([
        [0.1, -0.1, 0.0],
        [-0.1, 0.1, 0.0],
        [0.0, 0.0, 0.0],
    ])
    with pytest.raises(PerturbationError, match="is negative"):
        validate_drift(UNIFORM_K, UNIFORM_PI, lam)


def test_apply_drift_tridiagonal(tridiag):
    pi = stationary_distribution(tridiag["K"])
    applied = apply_drift(tridiag["K"], pi, tridiag["lam"])
    npt.assert_allclose(applied, tridiag["P"], atol=1e-14)
    npt.assert_allclose(pi @ applied, pi, atol=1e-14)
    # this drift keeps the chain reversible, it only trades holding mass
    assert is_reversible(applied, pi)


def test_apply_drift_second_example(uniform3):
    applied = apply_drift(UNIFORM_K, UNIFORM_PI, uniform3["lam2"])
    npt.assert_allclose(applied, uniform3["P2"], atol=1e-14)
    npt.assert_allclose(np.diag(applied), 0.0, atol=1e-14)


def test_peskun_residual_six_cycle(six):
    pi = stationary_distribution(six["P1"])
    spec = peskun_residual(six["P1"], six["P2"], pi)
    npt.assert_allclose(spec, (six["P2"] - six["P1"]) / 6.0,
                        atol=1e-14)
    npt.assert_allclose(six["P1"] + spec / pi[:, None], six["P2"], atol=1e-13)
    # the lazy rotation P1 is not reversible, so no drift of it promises a
    # smaller variance, and apply_drift refuses it
    with pytest.raises(PerturbationError, match="not reversible"):
        apply_drift(six["P1"], pi, spec)


def test_peskun_residual_recovers_drift(tridiag):
    pi = stationary_distribution(tridiag["K"])
    spec = peskun_residual(tridiag["K"], tridiag["P"], pi)
    npt.assert_allclose(spec, tridiag["lam"], atol=1e-14)


def test_peskun_residual_requires_order(six):
    pi = stationary_distribution(six["P1"])
    with pytest.raises(KernelError, match="not Peskun ordered"):
        peskun_residual(six["P2"], six["P1"], pi)


def test_random_generators_produce_valid_specs(rng):
    for trial in range(15):
        n = int(rng.integers(3, 9))
        kernel, pi = random_reversible_kernel(n, rng)
        vort = random_vorticity(kernel, pi, rng)
        assert np.max(np.abs(_density(kernel, pi, vort)[0])) <= 1.0 + 1e-12
        npt.assert_allclose(vort.sum(axis=1), 0.0, atol=1e-12)
        drift = random_drift(kernel, pi, rng)
        off = drift - np.diag(np.diag(drift))
        assert off.min() >= -1e-15
        npt.assert_allclose(drift.sum(axis=0), 0.0, atol=1e-12)
        npt.assert_allclose(drift.sum(axis=1), 0.0, atol=1e-12)
        better = apply_drift(kernel, pi, drift)
        npt.assert_allclose(pi @ better, pi, atol=1e-12)


def test_drift_improves_variance(rng):
    for trial in range(15):
        kernel, pi = random_reversible_kernel(int(rng.integers(3, 8)), rng)
        better = apply_drift(kernel, pi, random_drift(kernel, pi, rng))
        f = random_centered_observable(pi, rng)
        assert solve_dual_pair(better, pi, f).avar <= (
            solve_dual_pair(kernel, pi, f).avar + 1e-10)

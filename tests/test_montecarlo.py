import numpy as np
import numpy.testing as npt
import pytest

from mavar import (
    BadInitialError,
    NumericalFailureError,
    TrajectoryTooShortError,
    batch_means_avar,
    simulate,
    solve_dual_pair,
    stationary_distribution,
)


def test_simulate_is_deterministic(six):
    a = simulate(six["P1"], 500, seed=7)
    b = simulate(six["P1"], 500, seed=7)
    npt.assert_array_equal(a.states, b.states)
    c = simulate(six["P1"], 500, seed=8)
    assert np.any(a.states != c.states)


def test_simulate_trajectory_metadata(six):
    traj = simulate(six["P1"], 100, seed=0)
    assert len(traj) == 101
    assert traj.states.dtype == np.int64
    assert traj.seed == 0
    with pytest.raises(ValueError):
        traj.states[0] = 3


def test_deterministic_rotation_path(four):
    traj = simulate(four["P"], 6, seed=123)
    npt.assert_array_equal(traj.states, [0, 1, 2, 3, 0, 1, 2])


def test_simulate_respects_initial_state(six):
    traj = simulate(six["P1"], 10, seed=1, initial=4)
    assert traj.states[0] == 4


def test_simulate_initial_law(six):
    law = np.zeros(6)
    law[2] = 1.0
    traj = simulate(six["P1"], 10, seed=1, initial=law)
    assert traj.states[0] == 2


def test_simulate_rejects_bad_initial(six):
    with pytest.raises(BadInitialError):
        simulate(six["P1"], 10, seed=0, initial=6)
    with pytest.raises(BadInitialError):
        simulate(six["P1"], 10, seed=0, initial=-1)
    with pytest.raises(BadInitialError):
        simulate(six["P1"], 10, seed=0, initial=np.full(6, 1 / 3))


def test_simulate_rejects_a_non_finite_law_or_start(six):
    law = np.full(6, 1 / 6)
    law[0] = np.nan
    with pytest.raises(BadInitialError, match="not a probability vector"):
        simulate(six["P1"], 10, seed=0, initial=law)
    with pytest.raises(BadInitialError, match="nan is not an integer"):
        simulate(six["P1"], 10, seed=0, initial=np.nan)


def test_simulate_rejects_a_fractional_start(six):
    with pytest.raises(BadInitialError, match="2.5 is not an integer"):
        simulate(six["P1"], 10, seed=0, initial=2.5)
    assert simulate(six["P1"], 10, seed=0, initial=2.0).states[0] == 2


def test_simulate_rejects_empty_run(six):
    with pytest.raises(TrajectoryTooShortError):
        simulate(six["P1"], 0, seed=0)


def test_transitions_follow_support(six):
    traj = simulate(six["P1"], 2000, seed=3)
    rows = six["P1"]
    for s, t in zip(traj.states[:-1], traj.states[1:]):
        assert rows[s, t] > 0


def test_occupation_counts_near_uniform(six):
    # bound computed from the chain's own indicator asymptotic variance,
    # which here equals the multinomial value 5/36: 3 sqrt(n 5/36) = 1118
    n = 10**6
    traj = simulate(six["P1"], n, seed=42)
    counts = np.bincount(traj.states, minlength=6)
    assert np.max(np.abs(counts - (n + 1) / 6)) <= 1118


def test_batch_means_matches_analytic(six):
    pi = stationary_distribution(six["P2"])
    truth = solve_dual_pair(six["P2"], pi, six["f1"]).avar
    traj = simulate(six["P2"], 10**6, seed=0)
    est = batch_means_avar(traj, six["f1"])
    assert truth == pytest.approx(2 / 3, abs=1e-12)
    assert abs(est.value - truth) <= 3.0 * est.std_error
    assert est.batch_len == 1000
    assert est.n_batches == 1000


def test_batch_means_iid_case():
    # fully mixing kernel draws iid states, the estimator must recover a
    # plain variance
    kernel = np.full((3, 3), 1 / 3)
    f = np.array([1.0, 0.0, -1.0])
    traj = simulate(kernel, 200000, seed=5)
    est = batch_means_avar(traj, f)
    assert abs(est.value - 2 / 3) <= 3.0 * est.std_error


def test_batch_means_constant_observable(six):
    traj = simulate(six["P1"], 5000, seed=0)
    est = batch_means_avar(traj, np.zeros(6))
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_batch_means_explicit_batch_len(six):
    traj = simulate(six["P2"], 10000, seed=0)
    est = batch_means_avar(traj, six["f1"], batch_len=500)
    assert est.batch_len == 500
    assert est.n_batches == 20
    assert est.std_error == pytest.approx(
        est.value * np.sqrt(2.0 / (est.n_batches - 1)), abs=1e-15)


def test_batch_means_needs_two_batches(six):
    traj = simulate(six["P2"], 100, seed=0)
    with pytest.raises(TrajectoryTooShortError):
        batch_means_avar(traj, six["f1"], batch_len=80)


def test_batch_means_overflow_is_a_typed_error():
    # batch sums of +-1e308 overflow float64; the estimate must not come back NaN
    traj = simulate(np.full((2, 2), 0.5), 100, seed=0)
    with pytest.raises(NumericalFailureError, match="batch-means .*rescale the observable"):
        batch_means_avar(traj, [1e308, -1e308])

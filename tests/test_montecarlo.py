import tracemalloc
from bisect import bisect_right

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, strategies as st

from mavar import (
    NumericalFailureError,
    SimulationError,
    batch_means_avar,
    simulate,
    solve_dual_pair,
    stationary_distribution,
)
from mavar.montecarlo import SIMULATE_CHUNK, _DefaultRng

from generators import random_irreducible_kernel


def test_simulate_is_deterministic(six):
    a = simulate(six["P1"], 500, seed=7)
    b = simulate(six["P1"], 500, seed=7)
    npt.assert_array_equal(a, b)
    c = simulate(six["P1"], 500, seed=8)
    assert np.any(a != c)


def test_simulate_trajectory_metadata(six):
    traj = simulate(six["P1"], 100, seed=0)
    assert len(traj) == 101
    assert traj.dtype == np.int64
    with pytest.raises(ValueError):
        traj[0] = 3


def reference_states(P, n_steps, seed, initial):
    """simulate's path as its one-step-at-a-time loop drew it: a numpy scalar
    read and an array store per step."""
    M = np.asarray(P, dtype=float)
    n = M.shape[0]
    rng = np.random.default_rng(seed)
    if np.ndim(initial) == 0:
        start = int(initial)
    else:
        law = np.asarray(initial, dtype=float)
        start = int(rng.choice(n, p=law / law.sum()))
    cums = [row.cumsum().tolist() for row in M]
    uniforms = rng.random(n_steps)
    states = np.empty(n_steps + 1, dtype=np.int64)
    states[0] = s = start
    out = states[1:]
    for k in range(n_steps):
        s = min(bisect_right(cums[s], uniforms[k]), n - 1)
        out[k] = s
    return states


@pytest.mark.parametrize("n_steps", [1, SIMULATE_CHUNK - 1, SIMULATE_CHUNK,
                                     SIMULATE_CHUNK + 1, 20_000])
@pytest.mark.parametrize("start", ["state", "law"])
def test_chunked_steps_draw_the_reference_path(n_steps, start):
    rng = np.random.default_rng(n_steps)
    P = random_irreducible_kernel(30, rng)
    initial = 7 if start == "state" else rng.dirichlet(np.ones(30))
    traj = simulate(P, n_steps, seed=11, initial=initial)
    npt.assert_array_equal(traj, reference_states(P, n_steps, 11, initial))


# numpy.random is the oracle of simulate's stream: _DefaultRng draws numpy's
# default_rng(seed) itself, so that no command imports numpy.random


@given(st.integers(0, 2**256 - 1))
@example(0)
@example(2**32 - 1)
@example(2**32)
@example(2**64)
@example(2**128 + 1)
def test_stream_is_numpys_default_rng(seed):
    # seeds past 2^128 fill more words than SeedSequence's pool holds
    assert _DefaultRng(seed).random(5) == np.random.default_rng(seed).random(5).tolist()


@pytest.mark.parametrize("seed", [np.int8(7), np.uint32(2**32 - 1), np.uint64(2**64 - 1)])
def test_a_numpy_integer_seed_draws_the_reference_path(seed):
    P = random_irreducible_kernel(6, np.random.default_rng(1))
    traj = simulate(P, 100, seed=seed)
    npt.assert_array_equal(traj, reference_states(P, 100, seed, 0))


@pytest.mark.parametrize("sizes", [
    [1, SIMULATE_CHUNK],
    [SIMULATE_CHUNK - 1, SIMULATE_CHUNK, 2],
    [SIMULATE_CHUNK, SIMULATE_CHUNK, SIMULATE_CHUNK],
    [3, SIMULATE_CHUNK - 3, 1, SIMULATE_CHUNK],
])
def test_draws_in_chunks_continue_numpys_stream(sizes):
    rng = _DefaultRng(2**70 + 9)
    drawn = [u for size in sizes for u in rng.random(size)]
    assert drawn == np.random.default_rng(2**70 + 9).random(sum(sizes)).tolist()


@pytest.mark.parametrize("law", [
    [0.0, 0.25, 0.0, 0.5, 0.25, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    [1 / 6] * 6,
])
@pytest.mark.parametrize("seed", [0, 5, 2**31 - 1, 3**80])
def test_law_start_is_numpys_choice(law, seed):
    law = np.array(law)
    assert _DefaultRng(seed).choice(law / law.sum()) == \
        np.random.default_rng(seed).choice(6, p=law / law.sum())
    P = random_irreducible_kernel(6, np.random.default_rng(seed % 97))
    npt.assert_array_equal(simulate(P, 50, seed=seed, initial=law),
                           reference_states(P, 50, seed, law))


@pytest.mark.parametrize("seed, error", [
    (-1, ValueError), (-(2**70), ValueError), (np.int64(-3), ValueError),
    (1.5, TypeError), (2.0, TypeError), (np.float64(2.0), TypeError), ("3", TypeError),
])
def test_a_bad_seed_raises_what_numpy_raises(six, seed, error):
    with pytest.raises(error):
        np.random.default_rng(seed)
    with pytest.raises(error):
        simulate(six["P1"], 10, seed=seed)


def test_simulate_memory_is_its_path_plus_a_few_chunks():
    # the uniforms are drawn a chunk at a time, not as one n_steps-long array
    P = random_irreducible_kernel(30, np.random.default_rng(0))
    simulate(P, 1, seed=0)  # the first call builds the per-process jump table
    n_steps = 200_000
    tracemalloc.start()
    try:
        simulate(P, n_steps, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n_steps + 1) + 16 * 8 * SIMULATE_CHUNK


def test_deterministic_rotation_path(four):
    traj = simulate(four["P"], 6, seed=123)
    npt.assert_array_equal(traj, [0, 1, 2, 3, 0, 1, 2])


def test_simulate_respects_initial_state(six):
    traj = simulate(six["P1"], 10, seed=1, initial=4)
    assert traj[0] == 4


def test_simulate_initial_law(six):
    law = np.zeros(6)
    law[2] = 1.0
    traj = simulate(six["P1"], 10, seed=1, initial=law)
    assert traj[0] == 2


def test_simulate_rejects_bad_initial(six):
    with pytest.raises(SimulationError, match="state 6 outside 0..5"):
        simulate(six["P1"], 10, seed=0, initial=6)
    with pytest.raises(SimulationError, match="state -1 outside 0..5"):
        simulate(six["P1"], 10, seed=0, initial=-1)
    with pytest.raises(SimulationError, match="not a probability vector"):
        simulate(six["P1"], 10, seed=0, initial=np.full(6, 1 / 3))


def test_simulate_rejects_a_non_finite_law_or_start(six):
    law = np.full(6, 1 / 6)
    law[0] = np.nan
    with pytest.raises(SimulationError, match="not a probability vector"):
        simulate(six["P1"], 10, seed=0, initial=law)
    with pytest.raises(SimulationError, match="nan is not an integer"):
        simulate(six["P1"], 10, seed=0, initial=np.nan)


def test_simulate_rejects_a_fractional_start(six):
    with pytest.raises(SimulationError, match="2.5 is not an integer"):
        simulate(six["P1"], 10, seed=0, initial=2.5)
    assert simulate(six["P1"], 10, seed=0, initial=2.0)[0] == 2


def test_simulate_rejects_empty_run(six):
    with pytest.raises(SimulationError, match="at least one transition"):
        simulate(six["P1"], 0, seed=0)


def test_transitions_follow_support(six):
    traj = simulate(six["P1"], 2000, seed=3)
    rows = six["P1"]
    for s, t in zip(traj[:-1], traj[1:]):
        assert rows[s, t] > 0


def test_occupation_counts_near_uniform(six):
    # bound computed from the chain's own indicator asymptotic variance,
    # which here equals the multinomial value 5/36: 3 sqrt(n 5/36) = 1118
    n = 10**6
    traj = simulate(six["P1"], n, seed=42)
    counts = np.bincount(traj, minlength=6)
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


@pytest.mark.parametrize("batch_len", [None, 500, np.int64(500)],
                         ids=["default", "int", "numpy-int"])
def test_batch_means_returns_plain_python_numbers(six, batch_len):
    # a numpy scalar beside a Python float in one result, and in simulate --json's
    # deviation_sigmas, is the mixed typing the package's plain values rule out
    traj = simulate(six["P2"], 10000, seed=0)
    est = batch_means_avar(traj, six["f1"], batch_len)
    assert type(est.value) is float and type(est.std_error) is float
    assert type(est.n_batches) is int and type(est.batch_len) is int
    assert est.std_error > 0.0


def test_batch_means_needs_two_batches(six):
    traj = simulate(six["P2"], 100, seed=0)
    with pytest.raises(SimulationError, match="cannot fill two batches"):
        batch_means_avar(traj, six["f1"], batch_len=80)


def test_batch_means_overflow_is_a_typed_error():
    # batch sums of +-1e308 overflow float64; the estimate must not come back NaN
    traj = simulate(np.full((2, 2), 0.5), 100, seed=0)
    with pytest.raises(NumericalFailureError, match="batch-means .*rescale the observable"):
        batch_means_avar(traj, [1e308, -1e308])

import numpy as np
import numpy.testing as npt
import pytest

from mavar import (
    DimensionMismatchError,
    MeanZeroFrame,
    NegativeEntryError,
    NonFiniteInputError,
    NotStationaryError,
    Observable,
    ReducibleError,
    RowSumViolationError,
    StationaryDist,
    adjoint,
    as_observable,
    centered,
    is_irreducible,
    is_reversible,
    pi_inner,
    reversibilization,
    spectral_decomposition_reversible,
    spectral_radius_mean_zero,
    stationary_distribution,
    validate_kernel,
)
from mavar.generators import random_irreducible_kernel, random_reversible_kernel


def reachable(adj, start):
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in np.flatnonzero(adj[node]):
            if nxt not in seen:
                seen.add(int(nxt))
                stack.append(int(nxt))
    return seen


def strongly_connected_oracle(matrix):
    # forward and reverse reachability from node 0
    adj = np.asarray(matrix) > 0
    n = adj.shape[0]
    return len(reachable(adj, 0)) == n and len(reachable(adj.T, 0)) == n


def test_validate_kernel_accepts_and_renormalizes():
    rows = np.array([[0.5, 0.5], [0.25, 0.75]])
    kernel = validate_kernel(rows * (1 + 1e-12))
    assert kernel.n == 2
    npt.assert_allclose(kernel.rows.sum(axis=1), 1.0, atol=1e-15)


def test_validate_kernel_clamps_tiny_negative():
    rows = np.array([[1.0 + 1e-12, -1e-12], [0.5, 0.5]])
    kernel = validate_kernel(rows)
    assert kernel.rows.min() >= 0.0


def test_validate_kernel_rejects_negative_entry():
    rows = np.array([[1.1, -0.1], [0.5, 0.5]])
    with pytest.raises(NegativeEntryError):
        validate_kernel(rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_kernel_rejects_non_finite_entry(bad):
    rows = np.array([[0.5, bad], [0.5, 0.5]])
    with pytest.raises(NonFiniteInputError, match=r"kernel entry \(0, 1\) is"):
        validate_kernel(rows)


def test_observable_rejects_non_finite_entry():
    pi = StationaryDist(np.array([0.5, 0.5]))
    with pytest.raises(NonFiniteInputError, match="observable entry 0 is nan"):
        as_observable([np.nan, 1.0], pi)
    with pytest.raises(NonFiniteInputError, match="observable entry 1 is -inf"):
        centered([1.0, -np.inf], pi)


def test_validate_kernel_rejects_bad_row_sum():
    rows = np.array([[0.6, 0.6], [0.5, 0.5]])
    with pytest.raises(RowSumViolationError):
        validate_kernel(rows)


def test_validate_kernel_rejects_nonsquare():
    with pytest.raises(DimensionMismatchError):
        validate_kernel(np.ones((2, 3)) / 3.0)


def test_kernel_arrays_are_defensive_copies():
    rows = np.array([[0.5, 0.5], [0.5, 0.5]])
    kernel = validate_kernel(rows)
    rows[0, 0] = 99.0
    assert kernel.rows[0, 0] == 0.5
    with pytest.raises(ValueError):
        kernel.rows[0, 0] = 0.0


def test_is_irreducible_matches_dfs_oracle(rng):
    for trial in range(50):
        n = int(rng.integers(2, 9))
        matrix = rng.random((n, n))
        # random sparsity pattern, occasionally disconnected
        mask = rng.random((n, n)) < 0.35
        matrix = matrix * mask + 1e-9
        matrix[rng.random((n, n)) < 0.2] = 0.0
        matrix += np.diag(matrix.sum(axis=1) == 0) * 1.0
        matrix /= matrix.sum(axis=1, keepdims=True)
        kernel = validate_kernel(matrix)
        assert is_irreducible(kernel) == strongly_connected_oracle(kernel.rows)


def closure_oracle(matrix):
    # reachability by repeated squaring of the boolean matrix I + G
    reach = np.eye(len(matrix), dtype=bool) | (np.asarray(matrix) > 0)
    while True:
        step = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(step, reach):
            return bool(reach.all())
        reach = step


def test_is_irreducible_matches_transitive_closure_on_sparse_digraphs():
    rng = np.random.default_rng(20201)
    outcomes = set()
    for trial in range(200):
        n = int(rng.integers(2, 40))
        # about 1.5 expected out-edges per state: some graphs connect, some do not
        graph = rng.random((n, n)) < 1.5 / n
        expected = closure_oracle(graph)
        assert is_irreducible(graph.astype(float)) == expected, trial
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_is_irreducible_on_a_one_way_ring():
    ring = np.roll(np.eye(1000), 1, axis=1)  # i -> i+1: the sweeps take 1000 steps
    assert is_irreducible(ring)
    ring[500, 501] = 0.0
    ring[500, 500] = 1.0
    assert not is_irreducible(ring)


def test_only_self_loops_is_reducible():
    assert not is_irreducible(validate_kernel(np.eye(5)))


def test_an_empty_support_graph_is_not_irreducible():
    assert not is_irreducible(np.zeros((0, 0)))


@pytest.mark.parametrize("transpose", [False, True], ids=["reaches-all", "reached-by-all"])
def test_is_irreducible_needs_both_directions(transpose):
    # a one-way path 0 -> 1 -> ... -> 5: state 0 reaches every state, none returns
    path = np.roll(np.eye(6), 1, axis=1)
    path[5] = 0.0
    path[5, 5] = 1.0
    graph = path.T if transpose else path
    assert closure_oracle(graph) is False
    assert not is_irreducible(graph)


def test_six_cycle_kernels_irreducible(six):
    assert is_irreducible(six["P1"])
    assert is_irreducible(six["P2"])


def test_block_diagonal_is_reducible():
    rows = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    assert not is_irreducible(validate_kernel(rows))


def test_stationary_distribution_six_cycle(six):
    pi = stationary_distribution(six["P1"])
    npt.assert_allclose(pi.weights, np.full(6, 1 / 6), atol=1e-14)


def test_stationary_distribution_three_state(three):
    pi = stationary_distribution(three["P1"])
    npt.assert_allclose(pi.weights, [3 / 14, 4 / 7, 3 / 14], atol=1e-14)
    pi2 = stationary_distribution(three["P2"])
    npt.assert_allclose(pi2.weights, pi.weights, atol=1e-14)


def test_stationary_distribution_is_fixed_point(rng):
    for trial in range(20):
        n = int(rng.integers(2, 12))
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
        npt.assert_allclose(pi.weights @ kernel.rows, pi.weights, atol=1e-13)
        assert pi.weights.min() > 0
        npt.assert_allclose(pi.weights.sum(), 1.0, atol=1e-14)


def test_adjoint_of_cycle_is_transpose(six):
    pi = stationary_distribution(six["P1"])
    star = adjoint(six["P1"], pi)
    npt.assert_allclose(star.rows, six["P1"].rows.T, atol=1e-14)


def test_adjoint_is_involution(rng):
    for trial in range(10):
        kernel = random_irreducible_kernel(5, rng)
        pi = stationary_distribution(kernel)
        back = adjoint(adjoint(kernel, pi), pi)
        npt.assert_allclose(back.rows, kernel.rows, atol=1e-13)


def test_adjoint_rejects_wrong_weights(six):
    bad = StationaryDist(np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]))
    with pytest.raises(NotStationaryError):
        adjoint(six["P1"], bad)


def test_reversibilization_of_six_cycle(six):
    pi = stationary_distribution(six["P1"])
    half = reversibilization(six["P1"], pi)
    expected = np.zeros((6, 6))
    for i in range(6):
        expected[i, i] = 0.5
        expected[i, (i + 1) % 6] = 0.25
        expected[i, (i - 1) % 6] = 0.25
    npt.assert_allclose(half.rows, expected, atol=1e-14)
    assert is_reversible(half, pi)


def test_is_reversible_classifies_fixtures(six):
    pi = stationary_distribution(six["P1"])
    assert not is_reversible(six["P1"], pi)
    assert is_reversible(six["P2"], pi)


def test_pi_inner_weights_and_shapes():
    pi = np.array([0.2, 0.3, 0.5])
    f = np.array([1.0, 2.0, 3.0])
    g = np.array([1.0, 0.0, -1.0])
    assert pi_inner(f, g, pi) == pytest.approx(0.2 - 1.5)
    with pytest.raises(DimensionMismatchError):
        pi_inner(f, np.ones(4), pi)


def test_observable_centering():
    pi = np.array([0.2, 0.3, 0.5])
    obs = as_observable([1.0, 2.0, 3.0], pi)
    assert obs.pi_mean == pytest.approx(2.3)
    flat = centered(obs.values, pi)
    assert flat.pi_mean == pytest.approx(0.0, abs=1e-15)
    npt.assert_allclose(flat.values, obs.values - 2.3, atol=1e-15)


def test_observable_values_read_only():
    obs = Observable(np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        obs.values[0] = 0.0


def test_frame_basis_orthonormal_and_orthogonal_to_sqrt_pi(rng):
    for trial in range(10):
        n = int(rng.integers(2, 10))
        w = rng.random(n) + 0.1
        w /= w.sum()
        frame = MeanZeroFrame.from_pi(StationaryDist(w))
        q = frame.basis
        npt.assert_allclose(q.T @ q, np.eye(n - 1), atol=1e-13)
        npt.assert_allclose(np.sqrt(w) @ q, 0.0, atol=1e-13)


def test_frame_reduce_lift_roundtrip(rng):
    w = rng.random(7) + 0.1
    w /= w.sum()
    pi = StationaryDist(w)
    frame = MeanZeroFrame.from_pi(pi)
    f = rng.standard_normal(7)
    f -= w @ f
    y = frame.reduce(f)
    npt.assert_allclose(frame.lift(y), f, atol=1e-13)
    # constants vanish under reduction
    npt.assert_allclose(frame.reduce(np.ones(7)), 0.0, atol=1e-13)


def test_frame_reduction_is_isometry(rng):
    w = rng.random(5) + 0.1
    w /= w.sum()
    frame = MeanZeroFrame.from_pi(StationaryDist(w))
    f = rng.standard_normal(5)
    g = rng.standard_normal(5)
    f -= w @ f
    g -= w @ g
    assert frame.reduce(f) @ frame.reduce(g) == pytest.approx(
        pi_inner(f, g, w), abs=1e-13)


def test_frame_operator_symmetric_iff_reversible(rng):
    kernel, pi = random_reversible_kernel(6, rng)
    frame = MeanZeroFrame.from_pi(pi)
    a = frame.operator(kernel)
    npt.assert_allclose(a, a.T, atol=1e-12)
    skew = random_irreducible_kernel(6, rng)
    pi2 = stationary_distribution(skew)
    a2 = MeanZeroFrame.from_pi(pi2).operator(skew)
    assert np.max(np.abs(a2 - a2.T)) > 1e-6


@pytest.mark.parametrize("n", [2, 3, 50])
def test_frame_rank_one_products_match_dense_basis(rng, n):
    # the frame applies its Householder reflection by rank-1 updates; check
    # them against products with the explicit dense reflection
    w = rng.random(n) + 0.1
    w /= w.sum()
    s = np.sqrt(w)
    v = s - np.eye(n)[0]
    v /= np.linalg.norm(v)
    basis = (np.eye(n) - 2.0 * np.outer(v, v))[:, 1:]
    frame = MeanZeroFrame.from_pi(StationaryDist(w))
    M = rng.random((n, n))
    M /= M.sum(axis=1, keepdims=True)
    C = (s[:, None] * M) / s[None, :]
    f = rng.standard_normal(n)
    y = rng.standard_normal(n - 1)
    npt.assert_allclose(frame.basis, basis, rtol=0, atol=1e-13)
    npt.assert_allclose(frame.operator(M), basis.T @ C @ basis, rtol=0, atol=1e-13)
    npt.assert_allclose(frame.reduce(f), basis.T @ (s * f), rtol=0, atol=1e-13)
    npt.assert_allclose(frame.lift(y), (basis @ y) / s, rtol=0, atol=1e-13)


def test_spectral_radius_six_cycle(six):
    # lazy rotation: second largest modulus is |(1 + exp(i pi/3)) / 2|
    assert spectral_radius_mean_zero(six["P1"]) == pytest.approx(
        np.sqrt(3) / 2, abs=1e-12)
    # the symmetric walk is periodic, so the mean-zero radius hits 1
    assert spectral_radius_mean_zero(six["P2"]) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_rejects_reducible():
    rows = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    with pytest.raises(ReducibleError):
        spectral_radius_mean_zero(validate_kernel(rows))


def test_spectral_decomposition_reconstructs_kernel(rng):
    for trial in range(10):
        kernel, pi = random_reversible_kernel(6, rng)
        dec = spectral_decomposition_reversible(kernel, pi)
        w = pi.weights
        u = dec.eigenvectors
        rebuilt = (u * dec.eigenvalues) @ (u.T * w)
        npt.assert_allclose(rebuilt, kernel.rows, atol=1e-12)
        # eigenfunctions are orthonormal in the weighted inner product
        gram = (u.T * w) @ u
        npt.assert_allclose(gram, np.eye(6), atol=1e-12)
        assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

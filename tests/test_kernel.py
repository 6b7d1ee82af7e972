import numpy as np
import numpy.testing as npt
import pytest

from mavar import (
    KernelError,
    MeanZeroFrame,
    NumericalFailureError,
    ObservableError,
    ReducibleError,
    ReducedChain,
    StationaryMismatchError,
    adjoint,
    apply_drift,
    centered,
    factored_operator_inf,
    family_alpha,
    inner_sup,
    is_irreducible,
    is_reversible,
    make_nonreversible,
    peskun_residual,
    pi_inner,
    resolvent_curve,
    reversible_inf,
    saddle_point,
    solve_dual_pair,
    stationary_distribution,
    validate_drift,
    validate_kernel,
    validate_vorticity,
)

from mavar.kernel import _norm1, _shift_minus
from mavar.ordering import order_pairs

from generators import random_drift, random_irreducible_kernel, random_reversible_kernel


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
    assert len(kernel) == 2
    npt.assert_allclose(kernel.sum(axis=1), 1.0, atol=1e-15)


def test_validate_kernel_clamps_tiny_negative():
    rows = np.array([[1.0 + 1e-12, -1e-12], [0.5, 0.5]])
    kernel = validate_kernel(rows)
    assert kernel.min() >= 0.0


def test_validate_kernel_rejects_negative_entry():
    rows = np.array([[1.1, -0.1], [0.5, 0.5]])
    with pytest.raises(KernelError, match=r"entry \(0,1\) = -0.1 is below -tol"):
        validate_kernel(rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_kernel_rejects_non_finite_entry(bad):
    rows = np.array([[0.5, bad], [0.5, 0.5]])
    with pytest.raises(KernelError, match=r"kernel entry \(0, 1\) is"):
        validate_kernel(rows)


def test_observable_rejects_non_finite_entry():
    pi = np.array([0.5, 0.5])
    with pytest.raises(ObservableError, match="observable entry 0 is nan"):
        centered([np.nan, 1.0], pi)
    with pytest.raises(ObservableError, match="observable entry 1 is -inf"):
        centered([1.0, -np.inf], pi)
    # the length is checked before the entries
    with pytest.raises(ObservableError, match="observable has length"):
        centered([np.nan, 1.0, 2.0], pi)


def test_validate_kernel_rejects_bad_row_sum():
    rows = np.array([[0.6, 0.6], [0.5, 0.5]])
    with pytest.raises(KernelError, match="row 0 sums to 1.2"):
        validate_kernel(rows)


def test_validate_kernel_rejects_nonsquare():
    with pytest.raises(KernelError, match="kernel must be square"):
        validate_kernel(np.ones((2, 3)) / 3.0)


def test_kernel_arrays_are_defensive_copies():
    rows = np.array([[0.5, 0.5], [0.5, 0.5]])
    kernel = validate_kernel(rows)
    rows[0, 0] = 99.0
    assert kernel[0, 0] == 0.5
    with pytest.raises(ValueError):
        kernel[0, 0] = 0.0


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
        assert is_irreducible(kernel) == strongly_connected_oracle(kernel)


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
    npt.assert_allclose(pi, np.full(6, 1 / 6), atol=1e-14)


def test_stationary_distribution_three_state(three):
    pi = stationary_distribution(three["P1"])
    npt.assert_allclose(pi, [3 / 14, 4 / 7, 3 / 14], atol=1e-14)
    pi2 = stationary_distribution(three["P2"])
    npt.assert_allclose(pi2, pi, atol=1e-14)


def test_stationary_distribution_is_fixed_point(rng):
    for trial in range(20):
        n = int(rng.integers(2, 12))
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
        npt.assert_allclose(pi @ kernel, pi, atol=1e-13)
        assert pi.min() > 0
        npt.assert_allclose(pi.sum(), 1.0, atol=1e-14)


def test_adjoint_of_cycle_is_transpose(six):
    pi = stationary_distribution(six["P1"])
    star = adjoint(six["P1"], pi)
    npt.assert_allclose(star, six["P1"].T, atol=1e-14)


def test_adjoint_is_involution(rng):
    for trial in range(10):
        kernel = random_irreducible_kernel(5, rng)
        pi = stationary_distribution(kernel)
        back = adjoint(adjoint(kernel, pi), pi)
        npt.assert_allclose(back, kernel, atol=1e-13)


def test_adjoint_rejects_wrong_weights(six):
    bad = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
    with pytest.raises(StationaryMismatchError, match="pi P differs from pi"):
        adjoint(six["P1"], bad)


def birth_death(n, up, down):
    P = np.zeros((n, n))
    for i in range(n):
        P[i, min(i + 1, n - 1)] += up
        P[i, max(i - 1, 0)] += down
        P[i, i] += 1.0 - up - down
    return validate_kernel(P)


def test_adjoint_and_reversibilization_keep_a_chain_with_small_pi():
    # row i of the adjoint sums to 1 + (pi P - pi)_i / pi_i: at pi_min ~ 1.6e-8
    # a residual of 1e-16 is a row error far above 1e-9
    P = birth_death(20, 0.2, 0.5)
    pi = stationary_distribution(P)
    assert pi.min() < 1e-7
    star = adjoint(P, pi)
    assert not star.flags.writeable
    npt.assert_allclose(star, P, atol=1e-8)
    npt.assert_allclose(validate_kernel(0.5 * (P + star)), P, atol=1e-8)
    off = pi.copy()
    off[0] += 2e-9
    off[1] -= 2e-9
    with pytest.raises(StationaryMismatchError, match="pi P differs from pi"):
        adjoint(P, off)


def test_reversibilization_of_six_cycle(six):
    pi = stationary_distribution(six["P1"])
    half = validate_kernel(0.5 * (six["P1"] + adjoint(six["P1"], pi)))
    expected = np.zeros((6, 6))
    for i in range(6):
        expected[i, i] = 0.5
        expected[i, (i + 1) % 6] = 0.25
        expected[i, (i - 1) % 6] = 0.25
    npt.assert_allclose(half, expected, atol=1e-14)
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
    with pytest.raises(ObservableError, match="do not agree"):
        pi_inner(f, np.ones(4), pi)


def test_observable_centering():
    pi = np.array([0.2, 0.3, 0.5])
    f = np.array([1.0, 2.0, 3.0])
    flat = centered(f, pi)
    assert pi @ flat == pytest.approx(0.0, abs=1e-15)
    npt.assert_allclose(flat, f - 2.3, atol=1e-15)
    # a constant is exactly zero once centered, though its pi-mean rounds
    pi = np.array([0.3, 0.6, 0.1])
    assert np.any(np.ones(3) - pi @ np.ones(3))
    assert np.array_equal(centered(np.ones(3), pi), np.zeros(3))


# pi, observables and every function the package returns are plain arrays
PLAIN_ARRAY_RESULTS = {
    "stationary_distribution": lambda six, fk: stationary_distribution(six["P1"]),
    "centered": lambda six, fk: centered(six["f1"] + 1.0, six["pi"]),
    "phi": lambda six, fk: solve_dual_pair(six["P1"], six["pi"], six["f1"]).phi,
    "phi_star": lambda six, fk: solve_dual_pair(six["P1"], six["pi"], six["f1"]).phi_star,
    "xi_star": lambda six, fk: saddle_point(six["P1"], six["pi"], six["f1"]).xi_star,
    "eta_star": lambda six, fk: saddle_point(six["P1"], six["pi"], six["f1"]).eta_star,
    "inner_sup": lambda six, fk: inner_sup(
        six["P1"], six["pi"], six["f1"],
        saddle_point(six["P1"], six["pi"], six["f1"]).xi_star)[0],
    "reversible_inf": lambda six, fk: reversible_inf(six["P2"], six["pi"], six["f1"])[0],
    "factored_operator_inf": lambda six, fk: factored_operator_inf(
        six["P1"], six["pi"], six["f1"])[0],
    "dirichlet_order witness": lambda six, fk: order_pairs(
        fk["P"], fk["Q"], fk["pi"])["dirichlet"][0].witness,
    "domination witness": lambda six, fk: order_pairs(
        six["P1"], six["P2"], six["pi"])["domination"][0].witness,
}


@pytest.mark.parametrize("name", list(PLAIN_ARRAY_RESULTS))
def test_returned_functions_are_plain_arrays(name, six, fk):
    value = PLAIN_ARRAY_RESULTS[name](six, fk)
    assert type(value) is np.ndarray
    assert value.dtype == np.float64 and value.ndim == 1


# kernels, vorticities and drifts are plain matrices too
PLAIN_MATRIX_RESULTS = {
    "validate_kernel": lambda six, four, uni: validate_kernel(six["P1"].tolist()),
    "adjoint": lambda six, four, uni: adjoint(six["P1"], six["pi"]),
    "make_nonreversible": lambda six, four, uni: make_nonreversible(
        four["K"], four["pi"], four["gamma"]),
    "family_alpha": lambda six, four, uni: family_alpha(
        four["K"], four["pi"], four["gamma"], 0.5),
    "validate_vorticity": lambda six, four, uni: validate_vorticity(
        four["K"], four["pi"], four["gamma"].tolist()),
    "apply_drift": lambda six, four, uni: apply_drift(uni["K"], uni["pi"], uni["lam1"]),
    "validate_drift": lambda six, four, uni: validate_drift(
        uni["K"], uni["pi"], uni["lam1"].tolist()),
    "peskun_residual": lambda six, four, uni: peskun_residual(
        six["P1"], six["P2"], six["pi"]),
    "random_irreducible_kernel": lambda six, four, uni: random_irreducible_kernel(
        5, np.random.default_rng(0)),
    "random_reversible_kernel": lambda six, four, uni: random_reversible_kernel(
        5, np.random.default_rng(0))[0],
    "random_drift": lambda six, four, uni: random_drift(
        *random_reversible_kernel(5, np.random.default_rng(0)), np.random.default_rng(1)),
}


@pytest.mark.parametrize("name", list(PLAIN_MATRIX_RESULTS))
def test_kernels_and_drifts_are_plain_matrices(name, six, four, uniform3):
    value = PLAIN_MATRIX_RESULTS[name](six, four, uniform3)
    assert type(value) is np.ndarray
    assert value.dtype == np.float64 and value.ndim == 2


def test_frame_basis_orthonormal_and_orthogonal_to_sqrt_pi(rng):
    for trial in range(10):
        n = int(rng.integers(2, 10))
        w = rng.random(n) + 0.1
        w /= w.sum()
        frame = MeanZeroFrame.from_pi(w)
        q = frame._expand(np.eye(n - 1))
        npt.assert_allclose(q.T @ q, np.eye(n - 1), atol=1e-13)
        npt.assert_allclose(np.sqrt(w) @ q, 0.0, atol=1e-13)


def test_frame_reduce_lift_roundtrip(rng):
    w = rng.random(7) + 0.1
    w /= w.sum()
    pi = w
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
    frame = MeanZeroFrame.from_pi(w)
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
    frame = MeanZeroFrame.from_pi(w)
    M = rng.random((n, n))
    M /= M.sum(axis=1, keepdims=True)
    C = (s[:, None] * M) / s[None, :]
    f = rng.standard_normal(n)
    y = rng.standard_normal(n - 1)
    npt.assert_allclose(frame._expand(np.eye(n - 1)), basis, rtol=0, atol=1e-13)
    npt.assert_allclose(frame.operator(M), basis.T @ C @ basis, rtol=0, atol=1e-13)
    npt.assert_allclose(frame.reduce(f), basis.T @ (s * f), rtol=0, atol=1e-13)
    npt.assert_allclose(frame.lift(y), (basis @ y) / s, rtol=0, atol=1e-13)


def radius(P, pi=None):
    """The mean-zero spectral radius that analyze reports."""
    pi = stationary_distribution(P) if pi is None else pi
    return float(np.max(np.abs(ReducedChain(P, pi).spectrum)))


def test_spectral_radius_six_cycle(six):
    # lazy rotation: second largest modulus is |(1 + exp(i pi/3)) / 2|
    assert radius(six["P1"]) == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    # the symmetric walk is periodic, so the mean-zero radius hits 1
    assert radius(six["P2"]) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_rejects_reducible():
    # a reducible kernel has no unique pi, so there is no chain to read a radius of
    rows = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    with pytest.raises(ReducibleError):
        radius(validate_kernel(rows))


SPECTRUM_SIZES = (2, 3, 5, 10, 30, 100, 200)


def test_the_spectral_eigenpairs_rebuild_the_symmetric_part(rng):
    for n in SPECTRUM_SIZES:
        kernel, pi = random_reversible_kernel(n, rng)
        chain = ReducedChain(kernel, pi)
        vals, vecs = chain._symmetric_eigh()
        assert chain.spectrum is vals  # the chain keeps the eigenvalues only
        S = 0.5 * (chain.A + chain.A.T)
        npt.assert_allclose((vecs * vals) @ vecs.T, S, rtol=0, atol=1e-12)
        npt.assert_allclose(vecs.T @ vecs, np.eye(n - 1), rtol=0, atol=1e-12)
        # the constant is outside the frame: every eigenvalue is below 1
        assert vals.shape == (n - 1,) and vals[-1] < 1.0 - 1e-12


def test_the_radius_reads_the_spectrum_of_the_reduced_operator(rng):
    for n in SPECTRUM_SIZES:
        kernel, pi = random_reversible_kernel(n, rng)
        expected = np.max(np.abs(np.linalg.eigvals(ReducedChain(kernel, pi).A)))
        assert abs(radius(kernel, pi) - expected) <= 1e-12
        kernel = random_irreducible_kernel(n, rng)
        chain = ReducedChain(kernel, stationary_distribution(kernel))
        assert radius(chain.rows, chain.pi) == np.max(np.abs(np.linalg.eigvals(chain.A)))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_shift_minus_has_the_bits_of_the_identity_expression(rng):
    X = rng.standard_normal((7, 7)) * 10.0 ** rng.uniform(-320, 300, (7, 7))
    X[0, 1], X[1, 0], X[2, 2], X[3, 3] = 0.0, -0.0, 0.0, -0.0
    for shift in (1.0, 1.1, 1.0001):
        assert same_bits(_shift_minus(X, shift), shift * np.eye(7) - X)
    inplace = X.copy()
    assert _shift_minus(inplace, out=inplace) is inplace
    assert same_bits(inplace, np.eye(7) - X)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 199, 500, 1000])
def test_norm1_has_the_bits_of_numpys_1_norm(rng, n):
    # both Poisson gates read it; numpy's builds an n x n |X| to get the same sum
    X = rng.standard_normal((n, n))
    assert _norm1(X) == np.linalg.norm(X, 1)
    X *= 10.0 ** rng.uniform(-300, 300, (n, 1))  # rows of every scale
    assert _norm1(X) == np.linalg.norm(X, 1)


@pytest.mark.parametrize("reversible", [True, False])
def test_factors_keep_the_bits_of_their_defining_expressions(rng, reversible):
    # the expressions each factor was first written as, eye included
    n = 40
    if reversible:
        kernel, pi = random_reversible_kernel(n, rng)
    else:
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
    chain = ReducedChain(kernel, pi)
    I = np.eye(n - 1)
    A = chain.A
    assert same_bits(chain.inv, np.linalg.inv(I - A))
    C = I - 0.5 * (A + A.T)
    assert same_bits(chain.cinv, np.linalg.inv(C))
    assert same_bits(chain.T, (I - A) @ np.linalg.inv(C) @ (I - A).T)
    F = pi[:, None] * kernel
    assert is_reversible(kernel, pi) == bool(np.max(np.abs(F - F.T)) <= 1e-12)
    M = np.asarray(kernel)
    B = M.T - np.eye(n)
    B[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    x = np.linalg.solve(B, b)
    x += np.linalg.solve(B, b - B @ x)
    assert same_bits(stationary_distribution(kernel), x / x.sum())
    f = centered(rng.standard_normal(n), pi)
    betas = np.array([1e-1, 1e-3])
    expected = [pi_inner(f, np.linalg.solve((1.0 + beta) * np.eye(n) - M, f), pi)
                for beta in betas]
    assert same_bits([resolvent_curve(kernel, pi, f, beta) for beta in betas], expected)
    if reversible:
        vals, vecs = np.linalg.eigh(0.5 * (A + A.T))
        got_vals, got_vecs = chain._symmetric_eigh()
        assert same_bits(got_vals, vals)
        assert same_bits(got_vecs, vecs)


@pytest.mark.parametrize("reversible", [True, False])
def test_the_inverses_give_back_the_operator_they_shift(rng, monkeypatch, reversible):
    # inv and T form I - A in A's own memory and put A back bit for bit, also
    # when the inverse raises
    if reversible:
        kernel, pi = random_reversible_kernel(12, rng)
    else:
        kernel = random_irreducible_kernel(12, rng)
        pi = stationary_distribution(kernel)
    chain = ReducedChain(kernel, pi)
    bits = chain.A.tobytes()
    for name in ("inv", "T"):
        getattr(chain, name)
        assert chain.A.tobytes() == bits, name

    def singular(B):
        raise np.linalg.LinAlgError("Singular matrix")

    chain.forget("inv")
    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(NumericalFailureError):
        chain.inv
    assert chain.A.tobytes() == bits
    assert same_bits(chain.spectrum, ReducedChain(kernel, pi).spectrum)


@pytest.mark.parametrize("n", [2, 40, 200])
def test_the_frame_keeps_the_bits_of_its_householder_products(rng, n):
    # x[1:] - 2 v[1:] (v^T x), each product with its own temporaries, as first
    # written; the operator also keeps its C order, which its readers' BLAS
    # calls sum by
    kernel = random_irreducible_kernel(n, rng)
    frame = MeanZeroFrame.from_pi(stationary_distribution(kernel))
    v, s = frame.v, frame.sqrt_pi

    def contract(x):
        return x[1:] - 2.0 * np.multiply.outer(v[1:], v @ x)

    A = frame.operator(kernel)
    assert A.flags.c_contiguous
    assert same_bits(A, contract(contract((s[:, None] * kernel / s[None, :]).T).T))
    for g in (rng.standard_normal(n), rng.standard_normal((n, 5))):
        assert same_bits(frame.reduce(g), contract((s * g.T).T))

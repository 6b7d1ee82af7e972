import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mavar import (
    DegenerateKernelError,
    KernelError,
    MeanZeroFrame,
    ReducedChain,
    StationaryMismatchError,
    apply_drift,
    fk_order,
    is_reversible,
    make_nonreversible,
    peskun_order,
    solve_dual_pair,
    stationary_distribution,
    validate_kernel,
)
from mavar import catalog
from mavar.ordering import order_pairs

from generators import (
    random_centered_observable,
    random_drift,
    random_reversible_kernel,
    random_vorticity,
    reversible_two_blocks,
)


def forward_dirichlet(P1, P2, pi=None):
    """The Dirichlet-form report of P1 -> P2."""
    return order_pairs(P1, P2, pi)["dirichlet"][0]


def forward_domination(P1, P2, pi=None):
    """The uniform variance domination report of P1 -> P2."""
    return order_pairs(P1, P2, pi)["domination"][0]


def test_peskun_six_cycle(six):
    report = peskun_order(six["P1"], six["P2"])
    assert report.holds
    assert report.margin == pytest.approx(0.0, abs=1e-15)
    back = peskun_order(six["P2"], six["P1"])
    assert not back.holds
    assert back.margin == pytest.approx(-0.5, abs=1e-15)
    assert back.witness is not None
    i, j = back.witness
    assert six["P1"][i, j] < six["P2"][i, j]


def test_peskun_three_state(three):
    report = peskun_order(three["P1"], three["P2"])
    assert report.holds and report.margin == pytest.approx(0.0, abs=1e-15)
    assert not peskun_order(three["P2"], three["P1"]).holds


def test_peskun_reflexive(six):
    assert peskun_order(six["P1"], six["P1"]).holds


def test_order_report_as_dict(six):
    d = peskun_order(six["P2"], six["P1"]).as_dict()
    assert d["relation"] == "peskun"
    assert d["holds"] is False
    assert isinstance(d["margin"], float)


def test_dirichlet_six_cycle(six):
    # the symmetric walk doubles every edge conductance of the rotation
    report = forward_dirichlet(six["P1"], six["P2"])
    assert report.holds
    assert abs(report.margin) < 1e-12
    back = forward_dirichlet(six["P2"], six["P1"])
    assert not back.holds
    assert back.margin == pytest.approx(-1 / 6, abs=1e-12)


def test_dirichlet_incomparable_pair(fk):
    forward = forward_dirichlet(fk["P"], fk["Q"])
    backward = forward_dirichlet(fk["Q"], fk["P"])
    assert not forward.holds and not backward.holds
    assert forward.margin == pytest.approx(-1 / 6, abs=1e-12)
    assert backward.margin == pytest.approx(-1 / 18, abs=1e-12)
    # the witness is an actual direction of violation
    g = forward.witness
    assert g is not None


def test_fk_order_fixture_pair(fk):
    holds = fk_order(fk["Q"], fk["P"])
    assert holds.holds
    assert holds.margin == pytest.approx(0.0, abs=1e-14)
    fails = fk_order(fk["P"], fk["Q"])
    assert not fails.holds
    assert fails.margin == pytest.approx(-1 / 18, abs=1e-12)
    assert fails.witness == (0, 1)


def test_fk_order_six_cycle(six):
    assert fk_order(six["P2"], six["P1"]).holds
    report = fk_order(six["P1"], six["P2"])
    assert not report.holds
    assert report.margin == pytest.approx(-1 / 12, abs=1e-12)


def test_peskun_implies_weaker_orders(rng):
    # drift perturbations are Peskun improvements by construction, and a
    # Peskun pair must also be ordered in the quadratic-form senses
    for trial in range(20):
        kernel, pi = random_reversible_kernel(int(rng.integers(3, 8)), rng)
        spec = random_drift(kernel, pi, rng)
        better = apply_drift(kernel, pi, spec)
        assert peskun_order(kernel, better, pi).holds
        assert forward_dirichlet(kernel, better, pi).holds
        assert fk_order(better, kernel, pi).holds
        dominated = forward_domination(kernel, better, pi)
        assert dominated.holds and dominated.witness is None


def test_vorticity_preserves_dirichlet_form(rng):
    # adding pure circulation leaves the symmetric part untouched, so the
    # Dirichlet order holds in both directions while variances still drop
    kernel, pi = random_reversible_kernel(5, rng)
    spec = random_vorticity(kernel, pi, rng)
    skewed = make_nonreversible(kernel, pi, spec)
    assert forward_dirichlet(kernel, skewed, pi).holds
    assert forward_dirichlet(skewed, kernel, pi).holds
    assert forward_domination(kernel, skewed, pi).holds
    f = random_centered_observable(pi, rng)
    assert solve_dual_pair(skewed, pi, f).sigma2 <= (
        solve_dual_pair(kernel, pi, f).sigma2 + 1e-12)


def test_orders_require_shared_stationary(three, uniform3):
    with pytest.raises(StationaryMismatchError):
        peskun_order(uniform3["K"], three["P1"])
    with pytest.raises(StationaryMismatchError):
        forward_dirichlet(uniform3["K"], three["P1"])


def test_domination_six_cycle_fails_both_ways(six):
    pi = stationary_distribution(six["P1"])
    fwd = forward_domination(six["P1"], six["P2"], pi)
    rev = forward_domination(six["P2"], six["P1"], pi)
    assert not fwd.holds and not rev.holds
    # witnesses certify a strict violation in each direction
    f = fwd.witness
    assert solve_dual_pair(six["P2"], pi, f).sigma2 > (
        solve_dual_pair(six["P1"], pi, f).sigma2 + 1e-6)
    g = rev.witness
    assert solve_dual_pair(six["P1"], pi, g).sigma2 > (
        solve_dual_pair(six["P2"], pi, g).sigma2 + 1e-6)


def test_domination_uniform3_fixture(uniform3):
    pi = uniform3["pi"]
    report = forward_domination(uniform3["P"], uniform3["P2"], pi)
    assert report.holds and report.witness is None
    back = forward_domination(uniform3["P2"], uniform3["P"], pi)
    assert not back.holds
    assert back.witness is not None


def test_domination_transitive_chain(rng):
    # two stacked drifts on one base produce a transitive ordering
    kernel, pi = random_reversible_kernel(5, rng)
    first = apply_drift(kernel, pi, random_drift(kernel, pi, rng))
    assert forward_domination(kernel, first, pi).holds


def test_order_pairs_takes_its_chains_apart(rng):
    # neither chain keeps its kernel, a factor or its form, prebuilt factors included
    kernel, pi = random_reversible_kernel(6, rng)
    better = apply_drift(kernel, pi, random_drift(kernel, pi, rng))
    c1, c2 = ReducedChain(kernel, pi), ReducedChain(better, pi)
    _ = c1.T, c2.inv  # factors a caller built before handing the chains over
    forward = forward_domination(c1, c2, pi)
    for chain in (c1, c2):
        assert "rows" not in vars(chain)
        assert all(np.ndim(value) < 2 for value in vars(chain).values()), vars(chain)
    reverse = forward_domination(ReducedChain(better, pi), ReducedChain(kernel, pi), pi)
    assert forward == forward_domination(kernel, better, pi)
    assert forward.holds and forward.witness is None
    assert not reverse.holds
    np.testing.assert_array_equal(reverse.witness,
                                  forward_domination(better, kernel, pi).witness)
    with pytest.raises(KernelError, match="kernel was dropped"):
        c1.A  # nothing to rebuild it from


def test_a_chain_passed_twice_is_built_again_from_its_kernel(rng):
    kernel, pi = random_reversible_kernel(8, rng)
    twice = order_pairs(*[ReducedChain(kernel, pi)] * 2, pi)
    copied = order_pairs(kernel, kernel.copy(), pi)
    assert ({name: [r.as_dict() for r in pair] for name, pair in twice.items()}
            == {name: [r.as_dict() for r in pair] for name, pair in copied.items()})


def decoupled_chain(reversible):
    """(kernel, pi) of two 10-state blocks coupled at 1e-14, which the Poisson
    gate refuses: rev 1e-14, or nonrev 1e-14 from default_rng(5)."""
    if reversible:
        rows, _ = reversible_two_blocks(1e-14)
    else:
        rng = np.random.default_rng(5)
        rows = np.full((20, 20), 1e-14)
        rows[:10, :10], rows[10:, 10:] = rng.random((10, 10)), rng.random((10, 10))
        rows /= rows.sum(axis=1, keepdims=True)
    kernel = validate_kernel(rows)
    return kernel, stationary_distribution(kernel)


@pytest.mark.parametrize("reversible", [True, False])
def test_a_form_whose_gate_fails_rebuilds_the_operator_it_overwrote(reversible):
    # chain.inv inverts I - A in A's memory and turns it back into A bit for
    # bit, so a failed gate reports the spectrum of A, as a fresh chain reads it
    kernel, pi = decoupled_chain(reversible)
    assert is_reversible(kernel, pi) is reversible
    spectrum = ReducedChain(kernel, pi).spectrum
    radius = float(np.max(np.abs(spectrum)))
    separation = float(np.min(np.abs(1.0 - spectrum)))
    chain = ReducedChain(kernel, pi)
    A = chain.A.copy()
    with pytest.raises(DegenerateKernelError) as got:
        chain.inv
    assert np.array_equal(chain.A, A) and np.array_equal(np.signbit(chain.A), np.signbit(A))
    assert str(got.value) == (f"Poisson operator singular: spectrum reaches 1 "
                              f"(radius {radius}, separation {separation})")
    assert (got.value.radius, got.value.separation) == (radius, separation)
    # compare's order drops each kernel before the inverse, and still reports it
    with pytest.raises(DegenerateKernelError) as pair:
        order_pairs(kernel, kernel.copy(), pi)
    assert str(pair.value) == str(got.value)


def test_an_array_read_from_a_before_the_orders_keeps_its_bits(rng):
    # order_pairs takes the chain apart, but the A it built is given back
    # whole before the chain lets go of it
    kernel, pi = random_reversible_kernel(8, rng)
    better = apply_drift(kernel, pi, random_drift(kernel, pi, rng))
    chain = ReducedChain(kernel, pi)
    A = chain.A
    bits = A.tobytes()
    order_pairs(chain, better, pi)
    assert A.tobytes() == bits


def test_order_pairs_takes_the_kernels_it_is_handed():
    # a kernel array is read, never changed, and a chain gives the reports its
    # kernel gives
    rng = np.random.default_rng(3)
    kernel, pi = random_reversible_kernel(8, rng)
    better = apply_drift(kernel, pi, random_drift(kernel, pi, rng))
    bits = [kernel.tobytes(), better.tobytes()]
    handed = order_pairs(kernel, better, pi)
    assert [kernel.tobytes(), better.tobytes()] == bits
    chains = order_pairs(ReducedChain(kernel, pi), ReducedChain(better, pi), pi)
    assert [kernel.tobytes(), better.tobytes()] == bits
    assert ({name: [r.as_dict() for r in pair] for name, pair in handed.items()}
            == {name: [r.as_dict() for r in pair] for name, pair in chains.items()})


def drift_pair_as_read(case):
    """(K, P, pi): a reversible K and a symmetric drift P of it, so P is
    reversible too, each renormalised by validate_kernel as a command reading
    it from a file does.  A case is ("random", n, seed), the symmetric part
    of a random_drift of a random reversible kernel, or ("two-blocks", eps),
    the drift t on states 0 and 1 of the two-block chain,
    t = min(pi_0 K_00, pi_1 K_11) / 2."""
    if case[0] == "random":
        rng = np.random.default_rng(case[2])
        kernel, pi = random_reversible_kernel(case[1], rng)
        drift = random_drift(kernel, pi, rng)
        drift = 0.5 * (drift + drift.T)
    else:
        kernel, _ = reversible_two_blocks(case[1])
        pi = stationary_distribution(kernel)
        t = 0.5 * min(pi[0] * kernel[0, 0], pi[1] * kernel[1, 1])
        drift = np.zeros_like(kernel)
        drift[:2, :2] = [[-t, t], [t, -t]]
    better = apply_drift(kernel, pi, drift)
    return validate_kernel(kernel), validate_kernel(better), pi


@settings(max_examples=30, deadline=None)
@given(st.one_of(
    st.tuples(st.just("random"), st.integers(2, 12), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("two-blocks"), st.sampled_from([1e-4, 1e-6, 1e-8]))))
@example(("two-blocks", 1e-6))
@example(("random", 5, 0))
def test_peskun_implies_domination_for_reversible_pairs(case):
    # Peskun (1973), Tierney (1998): for reversible kernels sharing pi, P2 above
    # P1 off the diagonal gives sigma^2(P2, f) <= sigma^2(P1, f) for every f.  At
    # eps = 1e-6 the forms reach 4.9e4 and the smallest eigenvalue of their
    # difference reads -7.5e-6, which an absolute 1e-10 called a failure
    kernel, better, pi = drift_pair_as_read(case)
    assert is_reversible(kernel, pi) and is_reversible(better, pi)
    orders = order_pairs(kernel, better, pi)
    assert orders["peskun"][0].holds
    assert orders["domination"][0].holds, orders["domination"][0].margin


# the catalog pairs that share pi: (builder, first kernel, second kernel)
CATALOG_PAIRS = [
    ("six_cycle", "P1", "P2"), ("three_state_pair", "P1", "P2"), ("fk_pair", "P", "Q"),
    ("four_cycle_lift", "K", "P"), ("tridiag_drift", "K", "P"),
    ("uniform3", "K", "P"), ("uniform3", "K", "P1"), ("uniform3", "K", "P2"),
    ("uniform3", "P", "P1"), ("uniform3", "P", "P2"), ("uniform3", "P1", "P2"),
]


def seeded_pair(kind, n, seed):
    """A reversible kernel and its drift, or two vorticity perturbations of one
    reversible kernel (a non-reversible pair); both kernels keep pi."""
    rng = np.random.default_rng(seed)
    kernel, pi = random_reversible_kernel(n, rng)
    if kind == "drift":
        return kernel, apply_drift(kernel, pi, random_drift(kernel, pi, rng)), pi
    first, second = (make_nonreversible(kernel, pi, random_vorticity(kernel, pi, rng, d))
                     for d in (0.9, 0.4))
    return first, second, pi


def pair_of(case):
    if case[0] == "catalog":
        fixture = getattr(catalog, case[1])()
        first, second = fixture[case[2]], fixture[case[3]]
        return first, second, stationary_distribution(first)
    return seeded_pair(*case)


def eigen_witness_agrees(witness, expected, matrix, margin):
    """witness matches the swapped call's eigenvector up to sign; when the
    eigenvalue is not simple, it need only lie in the same eigenspace."""
    vals = np.linalg.eigvalsh(matrix)
    unit = witness / np.linalg.norm(witness)
    if np.min(np.abs(vals[1:] - vals[0]), initial=np.inf) > 1e-8:
        cos = unit @ expected / np.linalg.norm(expected)
        return abs(cos) >= 1.0 - 1e-10
    return np.max(np.abs(matrix @ unit - margin * unit)) <= 1e-10 * max(1.0, abs(margin))


def reverse_reports_match(case):
    P1, P2, pi = pair_of(case)
    pairs = order_pairs(P1, P2, pi)
    for name, order in (("peskun", peskun_order), ("fill_kahn", fk_order)):
        forward, reverse = pairs[name]
        assert forward == order(P1, P2, pi)
        swapped = order(P2, P1, pi)
        assert reverse == swapped
        assert np.signbit(reverse.margin) == np.signbit(swapped.margin)
    forward, reverse = pairs["dirichlet"]
    assert forward.margin == forward_dirichlet(P1, P2, pi).margin
    swapped = forward_dirichlet(P2, P1, pi)
    assert reverse.holds == swapped.holds
    assert abs(reverse.margin - swapped.margin) <= 1e-12 * max(1.0, abs(swapped.margin))
    if not swapped.holds:
        G = pi[:, None] * (P2 - P1)
        assert eigen_witness_agrees(reverse.witness, swapped.witness, 0.5 * (G + G.T),
                                    swapped.margin)
    forward, reverse = pairs["domination"]
    assert forward.margin == forward_domination(P1, P2, pi).margin
    swapped = forward_domination(P2, P1, pi)
    assert reverse.holds == swapped.holds
    assert abs(reverse.margin - swapped.margin) <= 1e-12 * max(1.0, abs(swapped.margin))
    if not swapped.holds:
        frame = MeanZeroFrame.from_pi(pi)
        X1, X2 = ReducedChain(P1, pi).inv, ReducedChain(P2, pi).inv
        D = (X2 + X2.T) / 2 - (X1 + X1.T) / 2
        y = frame.reduce(reverse.witness)
        assert eigen_witness_agrees(y, frame.reduce(swapped.witness), D, swapped.margin)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(["drift", "vorticities"]), st.integers(2, 12),
              st.integers(0, 2**32 - 1)),
    st.sampled_from([("catalog",) + pair for pair in CATALOG_PAIRS])))
@example(("drift", 5, 0))
@example(("drift", 7, 3))
@example(("vorticities", 5, 0))
@example(("vorticities", 6, 9))
@example(("catalog", "six_cycle", "P1", "P2"))
@example(("catalog", "three_state_pair", "P1", "P2"))
@example(("catalog", "fk_pair", "P", "Q"))
@example(("catalog", "four_cycle_lift", "K", "P"))
@example(("catalog", "tridiag_drift", "K", "P"))
@example(("catalog", "uniform3", "K", "P2"))
@example(("catalog", "uniform3", "P", "P1"))
def test_each_reverse_report_equals_the_swapped_call(case):
    # compare reads both directions of each order from one matrix; the entrywise
    # orders must match the swapped call exactly, the eigenvalue tests to rounding
    reverse_reports_match(case)


def test_order_pairs_stacks_at_most_four_arrays_above_its_kernels():
    # four arrays set the peak at several points: G with the first A and the
    # second A's two temporaries, or G with the second A, the first I - A
    # (in the first A's memory) and its inverse.  LAPACK's workspaces are
    # malloc'd where tracemalloc does not see them
    n = 200
    rng = np.random.default_rng(0)
    kernel, pi = random_reversible_kernel(n, rng)
    other = apply_drift(kernel, pi, random_drift(kernel, pi, rng))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        order_pairs(kernel, other, pi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (8 * n * n) < 4.35

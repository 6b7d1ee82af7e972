import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mavar import (
    MeanZeroFrame,
    ReducedChain,
    StationaryMismatchError,
    apply_drift,
    dirichlet_order,
    fk_order,
    make_nonreversible,
    peskun_order,
    solve_dual_pair,
    stationary_distribution,
    uniform_variance_domination,
)
from mavar import catalog
from mavar.ordering import order_pairs

from generators import (
    random_centered_observable,
    random_drift,
    random_reversible_kernel,
    random_vorticity,
)


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
    report = dirichlet_order(six["P1"], six["P2"])
    assert report.holds
    assert abs(report.margin) < 1e-12
    back = dirichlet_order(six["P2"], six["P1"])
    assert not back.holds
    assert back.margin == pytest.approx(-1 / 6, abs=1e-12)


def test_dirichlet_incomparable_pair(fk):
    forward = dirichlet_order(fk["P"], fk["Q"])
    backward = dirichlet_order(fk["Q"], fk["P"])
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
        assert dirichlet_order(kernel, better, pi).holds
        assert fk_order(better, kernel, pi).holds
        dominated, witness = uniform_variance_domination(kernel, better, pi)
        assert dominated and witness is None


def test_vorticity_preserves_dirichlet_form(rng):
    # adding pure circulation leaves the symmetric part untouched, so the
    # Dirichlet order holds in both directions while variances still drop
    kernel, pi = random_reversible_kernel(5, rng)
    spec = random_vorticity(kernel, pi, rng)
    skewed = make_nonreversible(kernel, pi, spec)
    assert dirichlet_order(kernel, skewed, pi).holds
    assert dirichlet_order(skewed, kernel, pi).holds
    dominated, _ = uniform_variance_domination(kernel, skewed, pi)
    assert dominated
    f = random_centered_observable(pi, rng)
    assert solve_dual_pair(skewed, pi, f).sigma2 <= (
        solve_dual_pair(kernel, pi, f).sigma2 + 1e-12)


def test_orders_require_shared_stationary(three, uniform3):
    with pytest.raises(StationaryMismatchError):
        peskun_order(uniform3["K"], three["P1"])
    with pytest.raises(StationaryMismatchError):
        dirichlet_order(uniform3["K"], three["P1"])


def test_domination_six_cycle_fails_both_ways(six):
    pi = stationary_distribution(six["P1"])
    fwd, wit_fwd = uniform_variance_domination(six["P1"], six["P2"], pi)
    rev, wit_rev = uniform_variance_domination(six["P2"], six["P1"], pi)
    assert not fwd and not rev
    # witnesses certify a strict violation in each direction
    f = wit_fwd
    assert solve_dual_pair(six["P2"], pi, f).sigma2 > (
        solve_dual_pair(six["P1"], pi, f).sigma2 + 1e-6)
    g = wit_rev
    assert solve_dual_pair(six["P1"], pi, g).sigma2 > (
        solve_dual_pair(six["P2"], pi, g).sigma2 + 1e-6)


def test_domination_uniform3_fixture(uniform3):
    pi = uniform3["pi"]
    holds, witness = uniform_variance_domination(uniform3["P"],
                                                 uniform3["P2"], pi)
    assert holds and witness is None
    back, witness = uniform_variance_domination(uniform3["P2"],
                                                uniform3["P"], pi)
    assert not back
    assert witness is not None


def test_domination_transitive_chain(rng):
    # two stacked drifts on one base produce a transitive ordering
    kernel, pi = random_reversible_kernel(5, rng)
    first = apply_drift(kernel, pi, random_drift(kernel, pi, rng))
    ok_ab, _ = uniform_variance_domination(kernel, first, pi)
    assert ok_ab


def test_domination_keeps_only_the_variance_forms(rng):
    # a comparison reads only each chain's form, so A and (I - A)^{-1} are dropped
    kernel, pi = random_reversible_kernel(6, rng)
    better = apply_drift(kernel, pi, random_drift(kernel, pi, rng))
    c1, c2 = ReducedChain(kernel, pi), ReducedChain(better, pi)
    forward = uniform_variance_domination(c1, c2, pi)
    forms = [c1.variance_form, c2.variance_form]
    for chain in (c1, c2):
        assert "variance_form" in vars(chain)
        assert "A" not in vars(chain) and "inv" not in vars(chain)
    reverse = uniform_variance_domination(c2, c1, pi)
    assert c1.variance_form is forms[0] and c2.variance_form is forms[1]  # reused
    assert forward == uniform_variance_domination(kernel, better, pi) == (True, None)
    assert not reverse[0]
    np.testing.assert_array_equal(reverse[1],
                                  uniform_variance_domination(better, kernel, pi)[1])
    np.testing.assert_array_equal(c1.A, ReducedChain(kernel, pi).A)  # rebuilt on use


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
    assert forward.margin == dirichlet_order(P1, P2, pi).margin
    swapped = dirichlet_order(P2, P1, pi)
    assert reverse.holds == swapped.holds
    assert abs(reverse.margin - swapped.margin) <= 1e-12 * max(1.0, abs(swapped.margin))
    if not swapped.holds:
        G = pi[:, None] * (P2 - P1)
        assert eigen_witness_agrees(reverse.witness, swapped.witness, 0.5 * (G + G.T),
                                    swapped.margin)
    (holds, witness), (back, back_witness) = pairs["domination"]
    assert holds == uniform_variance_domination(P1, P2, pi)[0]
    swapped_holds, swapped_witness = uniform_variance_domination(P2, P1, pi)
    assert back == swapped_holds
    if not back:
        frame = MeanZeroFrame.from_pi(pi)
        D = ReducedChain(P2, pi).variance_form - ReducedChain(P1, pi).variance_form
        y = frame.reduce(back_witness)
        assert eigen_witness_agrees(y, frame.reduce(swapped_witness), D,
                                    np.linalg.eigvalsh(D)[0])


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

import numpy as np
import pytest

from mavar import (
    NotProbabilityVectorError,
    StationaryMismatchError,
    apply_drift,
    dirichlet_order,
    fk_order,
    majorization_trajectory,
    majorizes,
    make_nonreversible,
    peskun_order,
    solve_dual_pair,
    stationary_distribution,
    stochastically_monotone,
    uniform_variance_domination,
    validate_kernel,
)
from mavar.generators import (
    random_centered_observable,
    random_drift,
    random_reversible_kernel,
    random_vorticity,
)


def monotone_oracle(matrix):
    # a kernel preserves monotone functions iff it lifts every threshold
    # indicator to a non-decreasing function
    n = matrix.shape[0]
    for k in range(1, n):
        image = matrix @ (np.arange(n) >= k).astype(float)
        if np.any(np.diff(image) < -1e-12):
            return False
    return True


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


def test_stochastically_monotone_fixtures(six, tridiag):
    assert stochastically_monotone(tridiag["K"])
    assert not stochastically_monotone(six["P1"])


def test_stochastically_monotone_matches_oracle(rng):
    hits = set()
    for trial in range(60):
        n = int(rng.integers(2, 7))
        matrix = rng.random((n, n))
        if trial % 3 == 0:
            # sorted rows are usually monotone, keeps both branches covered
            matrix = np.sort(matrix, axis=0)
        matrix /= matrix.sum(axis=1, keepdims=True)
        kernel = validate_kernel(matrix)
        verdict = stochastically_monotone(kernel)
        assert verdict == monotone_oracle(kernel)
        hits.add(verdict)
    assert hits == {True, False}


def test_majorizes_basic_cases():
    point = np.array([1.0, 0.0, 0.0])
    uniform = np.full(3, 1 / 3)
    middle = np.array([0.5, 0.3, 0.2])
    assert majorizes(point, uniform)
    assert majorizes(point, middle)
    assert majorizes(middle, uniform)
    assert not majorizes(uniform, middle)
    assert majorizes(uniform, uniform)
    # permutations do not matter
    assert majorizes(np.array([0.0, 1.0, 0.0]), np.array([0.2, 0.3, 0.5]))


def test_majorizes_incomparable_pair():
    v = np.array([0.6, 0.2, 0.2])
    w = np.array([0.5, 0.4, 0.1])
    assert not majorizes(v, w)
    assert not majorizes(w, v)


def test_majorizes_rejects_bad_input():
    with pytest.raises(NotProbabilityVectorError):
        majorizes(np.array([0.5, 0.6]), np.array([0.5, 0.5]))
    with pytest.raises(NotProbabilityVectorError):
        majorizes(np.array([1.2, -0.2]), np.array([0.5, 0.5]))


def test_majorizes_rejects_a_non_finite_entry():
    # a NaN compares False both ways, so it must be refused, not ranked
    uniform = np.full(3, 1 / 3)
    with pytest.raises(NotProbabilityVectorError, match="entry 0 is nan"):
        majorizes([np.nan, 0.5, 0.5], uniform)
    with pytest.raises(NotProbabilityVectorError, match="entry 0 is nan"):
        majorizes(uniform, [np.nan, 0.5, 0.5])


def trajectory_fixture():
    k = validate_kernel(np.array([
        [0.7, 0.3, 0.0],
        [0.3, 0.4, 0.3],
        [0.0, 0.3, 0.7],
    ]))
    accel = validate_kernel(np.array([
        [0.55, 0.45, 0.0],
        [0.45, 0.10, 0.45],
        [0.0, 0.45, 0.55],
    ]))
    return k, accel


def test_majorization_trajectory_holds():
    k, accel = trajectory_fixture()
    initial = np.array([1.0, 0.0, 0.0])
    result = majorization_trajectory(k, accel, initial, 50)
    assert result.warnings == ()
    assert len(result.steps) == 50
    for holds, margin in result.steps:
        assert holds
        assert margin >= -1e-12


def test_majorization_trajectory_warns_on_precondition(six):
    k, accel = trajectory_fixture()
    # profile not sorted in decreasing order
    result = majorization_trajectory(k, accel, np.array([0.0, 0.0, 1.0]), 5)
    assert any("initial" in w for w in result.warnings)
    # non-monotone baseline
    result = majorization_trajectory(six["P2"], six["P2"],
                                     np.full(6, 1 / 6), 3)
    assert result.warnings


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

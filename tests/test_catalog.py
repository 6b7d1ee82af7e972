import json
import os

import numpy as np
import numpy.testing as npt
import pytest

from mavar import catalog, solve_dual_pair, stationary_distribution, validate_kernel

FLAGGED = {"six-cycle/sigma2(P1,f1)", "fk-pair/form(Q)"}


def test_every_row_reproduces_derived_value():
    results = catalog.run_all(1e-9, None)
    assert len(results) == 20
    for r in results:
        assert r.delta_expected <= 1e-12, r.row.name
        assert r.verdict != catalog.FAIL, r.row.name


def test_flagged_rows_are_exactly_the_documented_ones():
    results = catalog.run_all(1e-9, None)
    flagged = {r.row.name for r in results
               if r.verdict == catalog.DOCUMENTED}
    assert flagged == FLAGGED
    for r in results:
        if r.row.name in FLAGGED:
            assert r.row.flagged
            assert r.row.note
            assert r.delta_stated > 1e-3
        else:
            assert r.verdict == catalog.PASS
            assert r.delta_stated <= 1e-9


def test_run_all_filters_by_group_and_name():
    assert len(catalog.run_all(1e-9, "six-cycle")) == 5
    assert len(catalog.run_all(1e-9, "uniform3")) == 4
    only = catalog.run_all(1e-9, "sigma2(P2,f1)")
    assert len(only) == 1
    assert only[0].row.name == "six-cycle/sigma2(P2,f1)"
    assert catalog.run_all(1e-9, "no-such-row") == []


def test_strict_tolerance_fails_flagged_rows():
    results = catalog.run_all(1e-30, "form(Q)")
    assert results[0].verdict == catalog.FAIL


def test_dump_fixtures_round_trip(tmp_path):
    written = catalog.dump_fixtures(tmp_path)
    assert len(written) == 23
    for path in written:
        assert os.path.exists(path)
    with open(tmp_path / "six-cycle" / "P1.json") as handle:
        payload = json.load(handle)
    kernel = validate_kernel(np.array(payload["rows"]))
    six = catalog.six_cycle()
    npt.assert_allclose(kernel.rows, six["P1"].rows, atol=0)
    npt.assert_allclose(payload["pi"], np.full(6, 1 / 6), atol=1e-15)
    with open(tmp_path / "six-cycle" / "f1.json") as handle:
        npt.assert_allclose(json.load(handle), six["f1"], atol=0)
    with open(tmp_path / "four-cycle-lift" / "vorticity.json") as handle:
        vort = json.load(handle)
    assert vort["kind"] == "vorticity"
    four = catalog.four_cycle_lift()
    npt.assert_allclose(vort["matrix"], four["gamma"].gamma, atol=0)
    with open(tmp_path / "tridiag-drift" / "drift.json") as handle:
        drift = json.load(handle)
    assert drift["kind"] == "drift"


def test_rational_helpers():
    from fractions import Fraction

    assert catalog.rational_repr(Fraction(5, 12)) == "5/12"
    assert catalog.rational_repr((Fraction(1, 2), Fraction(1, 3))) == "(1/2, 1/3)"
    assert catalog.rational_repr(1.0) == "1"
    assert catalog.rational_pairs(Fraction(2, 5)) == [2, 5]
    assert catalog.rational_pairs((Fraction(1, 2), 3.0)) == [[1, 2], [3, 1]]


def test_form_coefficients_reproduce_sigma2(rng):
    three = catalog.three_state_pair()
    pi = stationary_distribution(three["P1"])
    a, b, c = catalog.form_coefficients(three["P1"], pi)
    w = pi
    for trial in range(20):
        f1, f2 = rng.standard_normal(2)
        f = np.array([f1, f2, -(w[0] * f1 + w[1] * f2) / w[2]])
        direct = solve_dual_pair(three["P1"], pi, f).sigma2
        assert a * f1**2 + b * f1 * f2 + c * f2**2 == pytest.approx(
            direct, rel=1e-10, abs=1e-10)


def test_three_state_form_values():
    three = catalog.three_state_pair()
    pi = stationary_distribution(three["P1"])
    npt.assert_allclose(catalog.form_coefficients(three["P1"], pi),
                        [126 / 294, 252 / 294, 448 / 294], atol=1e-12)
    npt.assert_allclose(catalog.form_coefficients(three["P2"], pi),
                        [105 / 294, 280 / 294, 448 / 294], atol=1e-12)


def test_variance_gap_values():
    # the two bundled probe observables separate the pair in opposite ways
    three = catalog.three_state_pair()
    pi = stationary_distribution(three["P1"])
    g1, g2 = three["g1"], three["g2"]
    gap1 = (solve_dual_pair(three["P2"], pi, g1).sigma2
            - solve_dual_pair(three["P1"], pi, g1).sigma2)
    gap2 = (solve_dual_pair(three["P2"], pi, g2).sigma2
            - solve_dual_pair(three["P1"], pi, g2).sigma2)
    assert gap1 == pytest.approx(1 / 42, abs=1e-12)
    assert gap2 == pytest.approx(-2 / 21, abs=1e-12)
    assert gap1 > 0 > gap2

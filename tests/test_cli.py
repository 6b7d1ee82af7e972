import json
import os
import re
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from click.testing import CliRunner

import mavar.checks
import mavar.cli
import mavar.poisson
from mavar import apply_drift, catalog
from mavar.cli import main
from mavar.kernel import centered, stationary_distribution
from mavar.poisson import ROUTE_TOL

from generators import (
    random_centered_observable,
    random_drift,
    random_irreducible_kernel,
    random_reversible_kernel,
    reversible_two_blocks,
)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    catalog.dump_fixtures(directory)
    return directory


@pytest.fixture
def runner():
    return CliRunner()


def child_env():
    """The environment for a child Python that imports this checkout's mavar."""
    src = str(Path(mavar.cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_validate_ok(runner, fixture_dir):
    result = runner.invoke(main, ["validate", str(fixture_dir / "six-cycle" / "P1.json")])
    assert result.exit_code == 0
    assert "irreducible: yes" in result.output
    assert "reversible: no" in result.output


def test_validate_reducible_exit_code(runner, tmp_path):
    path = write_json(tmp_path / "red.json", {
        "rows": [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0],
                 [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]],
    })
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 3
    assert "irreducible: no" in result.output


def test_validate_bad_json_exit_code(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2


def test_validate_rejects_bad_rows(runner, tmp_path):
    path = write_json(tmp_path / "neg.json", {"rows": [[1.2, -0.2], [0.5, 0.5]]})
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 2


def test_analyze_six_cycle(runner, fixture_dir):
    result = runner.invoke(main, [
        "analyze",
        str(fixture_dir / "six-cycle" / "P2.json"),
        str(fixture_dir / "six-cycle" / "f1.json"),
    ])
    assert result.exit_code == 0
    assert "sigma^2: 0.5" in result.output
    assert "avar: 0.666666666667" in result.output
    assert "route spectral: 0.5" in result.output
    assert "routes agree within 1e-09: yes" in result.output


def test_analyze_json_round_trip(runner, fixture_dir):
    result = runner.invoke(main, [
        "analyze", "--json",
        str(fixture_dir / "six-cycle" / "P2.json"),
        str(fixture_dir / "six-cycle" / "f1.json"),
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["sigma2"] == pytest.approx(0.5, abs=1e-12)
    assert payload["reversible"] is True
    npt.assert_allclose(payload["phi"], [-0.5, 0.5, 1.5, 0.5, -0.5, -1.5],
                        atol=1e-12)
    assert set(payload["routes"]) == {"dual-pair", "factored-operator", "spectral"}


def test_analyze_requires_centered_or_flag(runner, fixture_dir, tmp_path):
    raw = write_json(tmp_path / "raw.json", [1.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    kernel = str(fixture_dir / "six-cycle" / "P2.json")
    result = runner.invoke(main, ["analyze", kernel, raw])
    assert result.exit_code == 2
    assert "--center" in result.output
    result = runner.invoke(main, ["analyze", kernel, raw, "--center"])
    assert result.exit_code == 0
    assert "note: centering observable" in result.output


@pytest.mark.parametrize("shift", [0.0, 5.0])
def test_the_centering_verdict_does_not_depend_on_units(runner, tmp_path, shift):
    # a pi-mean is noise only relative to f: g (centered up to rounding) is
    # centered quietly at every scale, g + 5 at none
    rng = np.random.default_rng(0)
    rows = random_irreducible_kernel(5, rng)
    g = random_centered_observable(stationary_distribution(rows), rng)
    kernel = write_json(tmp_path / "P.json", {"rows": rows.tolist()})
    for flags, expected in (([], (2, False)), (["--center"], (0, True))):
        outcomes = set()
        for k in (-60, -40, 0, 40):
            obs = write_json(tmp_path / "f.json", np.ldexp(g + shift, k).tolist())
            result = runner.invoke(main, ["analyze", kernel, obs, *flags])
            outcomes.add((result.exit_code, "note: centering" in result.stderr))
        assert outcomes == ({(0, False)} if shift == 0.0 else {expected})


def test_analyze_reducible_exit_code(runner, tmp_path):
    kernel = write_json(tmp_path / "red.json", {
        "rows": [[1.0, 0.0], [0.0, 1.0]],
    })
    obs = write_json(tmp_path / "f.json", [1.0, -1.0])
    result = runner.invoke(main, ["analyze", kernel, obs])
    assert result.exit_code == 3


def test_analyze_degenerate_exit_code(runner, tmp_path):
    eps = 1e-16
    kernel = write_json(tmp_path / "deg.json", {
        "rows": [[0.5, 0.5 - eps, eps, 0.0],
                 [0.5, 0.5, 0.0, 0.0],
                 [eps, 0.0, 0.5 - eps, 0.5],
                 [0.0, 0.0, 0.5, 0.5]],
    })
    obs = write_json(tmp_path / "f.json", [1.0, 1.0, -1.0, -1.0])
    result = runner.invoke(main, ["analyze", kernel, obs])
    assert result.exit_code == 4


def test_analyze_degenerate_stationary_solve(runner, tmp_path):
    # coupling so weak the stationary solve itself breaks down
    eps = 1e-16
    on, off = 0.5 - eps / 2, eps / 2
    kernel = write_json(tmp_path / "deg.json", {
        "rows": [[on, on, off, off],
                 [on, on, off, off],
                 [off, off, on, on],
                 [off, off, on, on]],
    })
    obs = write_json(tmp_path / "f.json", [1.0, -1.0, 1.0, -1.0])
    result = runner.invoke(main, ["analyze", kernel, obs])
    assert result.exit_code == 4
    assert "stationary solve failed" in result.output


def test_analyze_observable_csv_format(runner, fixture_dir, tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("0.0\n0.0\n1.0\n0.0\n0.0\n-1.0\n")
    result = runner.invoke(main, [
        "analyze", str(fixture_dir / "six-cycle" / "P2.json"), str(path)])
    assert result.exit_code == 0
    assert "sigma^2: 0.5" in result.output


def test_analyze_wrong_length_observable(runner, fixture_dir, tmp_path):
    obs = write_json(tmp_path / "f.json", [1.0, -1.0])
    result = runner.invoke(main, [
        "analyze", str(fixture_dir / "six-cycle" / "P2.json"), obs])
    assert result.exit_code == 2


def test_tol_flag_override(runner, fixture_dir, tmp_path):
    # mean is 1e-5: rejected at the default tolerance, accepted at --tol 1e-3
    values = [1.0 + 6e-5, 0.0, 1.0, 0.0, 0.0, -2.0]
    obs = write_json(tmp_path / "f.json", values)
    kernel = str(fixture_dir / "six-cycle" / "P2.json")
    result = runner.invoke(main, ["analyze", kernel, obs])
    assert result.exit_code == 2
    result = runner.invoke(main, ["analyze", kernel, obs, "--tol", "1e-3"])
    assert result.exit_code == 0
    result = runner.invoke(main, ["analyze", kernel, obs, "--tol", "banana"])
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_nonpositive_or_non_finite_tolerance_exits_2(runner, tmp_path, value):
    kernel = write_json(tmp_path / "flip.json", {"rows": [[0, 1], [1, 0]]})
    obs = write_json(tmp_path / "f.json", [1.0, -1.0])
    result = runner.invoke(main, ["analyze", kernel, obs, "--tol", value])
    assert result.exit_code == 2
    assert "tolerance must be positive and finite" in result.output
    assert "below -tol" not in result.output


def test_compare_six_cycle(runner, fixture_dir):
    result = runner.invoke(main, [
        "compare",
        str(fixture_dir / "six-cycle" / "P1.json"),
        str(fixture_dir / "six-cycle" / "P2.json"),
    ])
    assert result.exit_code == 0
    assert "peskun 1->2: holds" in result.output
    assert "peskun 2->1: fails" in result.output
    assert "domination 1->2: fails" in result.output


def test_compare_json(runner, fixture_dir):
    result = runner.invoke(main, [
        "compare", "--json",
        str(fixture_dir / "fk-pair" / "P.json"),
        str(fixture_dir / "fk-pair" / "Q.json"),
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["fill_kahn"]["reverse"]["holds"] is True
    assert payload["fill_kahn"]["forward"]["holds"] is False
    assert payload["fill_kahn"]["forward"]["margin"] == pytest.approx(
        -1 / 18, abs=1e-12)
    assert payload["domination"]["forward"]["holds"] is False
    assert "witness" in payload["domination"]["forward"]


def test_compare_stationary_mismatch(runner, fixture_dir):
    result = runner.invoke(main, [
        "compare",
        str(fixture_dir / "uniform3" / "K.json"),
        str(fixture_dir / "three-state-pair" / "P1.json"),
    ])
    assert result.exit_code == 6


def test_compare_size_mismatch(runner, fixture_dir):
    result = runner.invoke(main, [
        "compare",
        str(fixture_dir / "six-cycle" / "P1.json"),
        str(fixture_dir / "uniform3" / "K.json"),
    ])
    assert result.exit_code == 2


def two_state_drift(kernel, pi):
    """Lambda_01 = Lambda_10 = t, Lambda_00 = Lambda_11 = -t, with
    t = min(pi_0 K_00, pi_1 K_11) / 2: a drift that fits any kernel holding
    mass on states 0 and 1."""
    t = 0.5 * min(pi[0] * kernel[0, 0], pi[1] * kernel[1, 1])
    drift = np.zeros_like(kernel)
    drift[:2, :2] = [[-t, t], [t, -t]]
    return {"kind": "drift", "matrix": drift.tolist()}


def test_compare_a_drift_of_a_near_decomposable_chain(runner, tmp_path):
    # both kernels are reversible and Peskun-ordered, so the second never has the
    # larger variance (Peskun 1973; Tierney 1998).  The forms reach 4.9e4, and
    # reading the two files moves their smallest difference to -1e-5; an absolute
    # 1e-10 called that a failure
    rows, _ = reversible_two_blocks(1e-6)
    pi = stationary_distribution(rows)
    kernel = write_json(tmp_path / "K.json", {"rows": rows.tolist(), "pi": pi.tolist()})
    drift = write_json(tmp_path / "L.json", two_state_drift(rows, pi))
    result = runner.invoke(main, ["perturb", kernel, "--lambda", drift, "--json"])
    assert result.exit_code == 0, result.output
    perturbed = json.loads(result.output)
    second = write_json(tmp_path / "P.json", {"rows": perturbed["rows"], "pi": perturbed["pi"]})
    result = runner.invoke(main, ["compare", kernel, second])
    assert result.exit_code == 0, result.output
    assert "peskun 1->2: holds" in result.output
    assert "domination 1->2: holds (margin " in result.output
    # the drift lowers some variance by 0.019, far above the forms' rounding
    assert "domination 2->1: fails (margin -0.0189" in result.output
    result = runner.invoke(main, ["compare", "--json", kernel, second])
    report = json.loads(result.output)["domination"]
    assert report["forward"] == {"relation": "domination", "holds": True,
                                 "margin": report["forward"]["margin"], "witness": None}
    assert -1e-4 < report["forward"]["margin"] < 0.0
    assert len(report["reverse"]["witness"]) == 20


def test_perturb_refuses_a_nonreversible_base(runner, tmp_path):
    # a drift of a non-reversible kernel can raise a variance: from 0.94769 to
    # 0.94878 for one observable here
    rows = np.random.default_rng(7).random((12, 12))
    rows /= rows.sum(axis=1, keepdims=True)
    pi = stationary_distribution(rows)
    kernel = write_json(tmp_path / "K.json", {"rows": rows.tolist()})
    drift = write_json(tmp_path / "L.json", two_state_drift(rows, pi))
    result = runner.invoke(main, ["perturb", kernel, "--lambda", drift])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == ("error: base kernel is not reversible, so the "
                             "perturbation may raise its variance\n")


def two_block_rows(coupling):
    on, off = 0.5 - coupling / 2, coupling / 2
    return [[on, on, off, off], [on, on, off, off],
            [off, off, on, on], [off, off, on, on]]


@pytest.mark.parametrize("kernels, code, message", [
    # KernelError from the orders: any other MavarError exits 2
    (["six-cycle/P1.json", "uniform3/K.json"], 2, "kernels have shapes"),
    ([[[1.0, 0.0], [0.0, 1.0]]] * 2, 3, "kernel is reducible"),
    # a near-decomposable pair: coupling 1e-13 between two blocks
    ([two_block_rows(1e-13)] * 2, 4, "Poisson operator singular"),
    (["uniform3/K.json", "three-state-pair/P1.json"], 6, "second kernel moves pi by"),
], ids=["other", "reducible", "degenerate", "stationary"])
def test_library_errors_exit_by_class(runner, fixture_dir, tmp_path, kernels, code, message):
    # a fixture file by name, or rows written to a file
    paths = [str(fixture_dir / k) if isinstance(k, str)
             else write_json(tmp_path / f"k{i}.json", {"rows": k})
             for i, k in enumerate(kernels)]
    result = runner.invoke(main, ["compare", *paths])
    assert result.exit_code == code
    assert f"error: {message}" in result.output
    assert isinstance(result.exception, SystemExit)  # no traceback


@pytest.mark.parametrize("command", ["analyze", "verify", "compare", "perturb"])
def test_every_command_words_a_reducible_kernel_alike(runner, tmp_path, command):
    kernel = write_json(tmp_path / "K.json", {"rows": [[1.0, 0.0], [0.0, 1.0]]})
    f = write_json(tmp_path / "f.json", [1.0, -1.0])
    drift = write_json(tmp_path / "d.json", {"kind": "drift", "matrix": [[0.0, 0.0]] * 2})
    rest = {"analyze": [f], "verify": [f], "compare": [kernel], "perturb": ["--lambda", drift]}
    result = runner.invoke(main, [command, kernel, *rest[command]])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == "error: kernel is reducible\n"


@pytest.mark.parametrize("error, code", list(mavar.cli.EXIT_CODES.items()),
                         ids=[error.__name__ for error in mavar.cli.EXIT_CODES])
def test_an_escaping_error_exits_with_its_table_code(runner, fixture_dir, monkeypatch,
                                                     error, code):
    def escape(*args):
        raise error(f"{error.__name__} escaped")

    monkeypatch.setattr(mavar.cli, "is_irreducible", escape)
    result = runner.invoke(main, ["validate", str(fixture_dir / "six-cycle" / "P1.json")])
    assert result.exit_code == code
    assert result.stdout == ""
    assert result.stderr == f"error: {error.__name__} escaped\n"
    assert isinstance(result.exception, SystemExit)  # no traceback


@pytest.mark.parametrize("matrix, message", [
    ([[0.0, 1.0], [1.0]], "inhomogeneous shape"),
    ("abc", "could not convert string to float"),
    ([[0.0, float("nan")], [0.0, 0.0]], "perturbation matrix entry (0, 1) is nan"),
], ids=["ragged", "non-numeric", "nan"])
def test_perturb_rejects_a_malformed_matrix(runner, tmp_path, matrix, message):
    kernel = write_json(tmp_path / "flip.json", {"rows": [[0, 1], [1, 0]]})
    gamma = write_json(tmp_path / "gamma.json", {"kind": "vorticity", "matrix": matrix})
    result = runner.invoke(main, ["perturb", kernel, "--gamma", gamma])
    assert result.exit_code == 2
    assert f"error: {gamma}: " in result.output
    assert message in result.output
    assert isinstance(result.exception, SystemExit)


def test_perturb_vorticity(runner, fixture_dir):
    result = runner.invoke(main, [
        "perturb", "--json",
        str(fixture_dir / "four-cycle-lift" / "K.json"),
        "--gamma", str(fixture_dir / "four-cycle-lift" / "vorticity.json"),
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    npt.assert_allclose(payload["rows"], np.roll(np.eye(4), 1, axis=1),
                        atol=1e-14)
    assert payload["diagnostics"]["max_density"] == pytest.approx(1.0)


def test_perturb_drift(runner, fixture_dir):
    result = runner.invoke(main, [
        "perturb",
        str(fixture_dir / "tridiag-drift" / "K.json"),
        "--lambda", str(fixture_dir / "tridiag-drift" / "drift.json"),
    ])
    assert result.exit_code == 0
    assert "peskun_margin: 0" in result.output


def test_perturb_flag_validation(runner, fixture_dir):
    kernel = str(fixture_dir / "four-cycle-lift" / "K.json")
    gamma = str(fixture_dir / "four-cycle-lift" / "vorticity.json")
    drift = str(fixture_dir / "tridiag-drift" / "drift.json")
    assert runner.invoke(main, ["perturb", kernel]).exit_code == 2
    assert runner.invoke(main, [
        "perturb", kernel, "--gamma", gamma, "--lambda", drift,
    ]).exit_code == 2
    # kind must match the flag
    assert runner.invoke(main, [
        "perturb", kernel, "--lambda", gamma,
    ]).exit_code == 2
    # alpha outside the admissible interval
    assert runner.invoke(main, [
        "perturb", kernel, "--gamma", gamma, "--alpha", "1.5",
    ]).exit_code == 2
    for alpha in ("0.5", "1", "1.0"):
        assert runner.invoke(main, [
            "perturb", str(fixture_dir / "tridiag-drift" / "K.json"),
            "--lambda", drift, "--alpha", alpha,
        ]).exit_code == 2, alpha


def test_perturb_tol_tightens_but_never_loosens_the_check(runner, tmp_path):
    # the library rechecks a perturbation at 1e-9, so a looser --tol must not
    # let it through to fail there with a wrapped message
    kernel = write_json(tmp_path / "K.json", {"rows": [[1 / 3] * 3] * 3})
    circulation = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    over = write_json(tmp_path / "over.json", {
        "kind": "vorticity", "matrix": ((1 + 1e-7) / 3 * circulation).tolist()})
    result = runner.invoke(main, ["perturb", kernel, "--gamma", over, "--tol", "1e-6"])
    assert result.exit_code == 2
    assert result.output.startswith("error: density 1.0000001 at edge (0,1) exceeds 1")
    drifting = circulation / 3
    drifting[0, 0] = 1e-11
    rows = write_json(tmp_path / "rows.json", {"kind": "vorticity", "matrix": drifting.tolist()})
    result = runner.invoke(main, ["perturb", kernel, "--gamma", rows, "--tol", "1e-12"])
    assert result.exit_code == 2
    assert result.output.startswith("error: row 0 sums to")


def test_embedded_pi_tol_tightens_but_never_loosens_stationarity(runner, tmp_path):
    # pi off by 1e-7 on a symmetric kernel: a looser --tol must not accept it
    # and then call the kernel non-reversible
    rows = [[1 / 3] * 3] * 3
    obs = write_json(tmp_path / "f.json", [1.0, -1.0, 0.0])
    off = write_json(tmp_path / "off.json", {
        "rows": rows, "pi": [1 / 3 + 1e-7, 1 / 3 - 1e-7, 1 / 3]})
    result = runner.invoke(main, ["analyze", off, obs, "--tol", "1e-6"])
    assert result.exit_code == 2
    assert result.output == f"error: {off}: embedded pi is not stationary\n"
    near = write_json(tmp_path / "near.json", {
        "rows": rows, "pi": [1 / 3 + 1e-11, 1 / 3 - 1e-11, 1 / 3]})
    assert runner.invoke(main, ["analyze", near, obs]).exit_code == 0
    result = runner.invoke(main, ["analyze", near, obs, "--tol", "1e-12"])
    assert result.exit_code == 2
    assert "embedded pi is not stationary" in result.output


def test_perturb_output_feeds_analyze(runner, fixture_dir, tmp_path):
    result = runner.invoke(main, [
        "perturb", "--json",
        str(fixture_dir / "uniform3" / "K.json"),
        "--gamma", str(fixture_dir / "uniform3" / "vorticity.json"),
        "--alpha", "0.5",
    ])
    assert result.exit_code == 0
    kernel_path = tmp_path / "perturbed.json"
    kernel_path.write_text(result.output)
    obs = write_json(tmp_path / "f.json", [1.0, 0.0, -1.0])
    result = runner.invoke(main, [
        "analyze", "--json", str(kernel_path), str(obs)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["reversible"] is False
    assert payload["routes_agree"] is True


def test_verify_passes_on_fixture(runner, fixture_dir):
    result = runner.invoke(main, [
        "verify",
        str(fixture_dir / "six-cycle" / "P2.json"),
        str(fixture_dir / "six-cycle" / "f1.json"),
    ])
    assert result.exit_code == 0
    lines = [l for l in result.output.splitlines() if l]
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert "sigma^2: 0.5" in result.output


def test_verify_json_and_seed(runner, fixture_dir):
    result = runner.invoke(main, [
        "verify", "--json", "--seed", "3",
        str(fixture_dir / "three-state-pair" / "P1.json"),
        str(fixture_dir / "three-state-pair" / "g1.json"),
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["all_pass"] is True
    assert payload["seed"] == 3
    assert all(c["passed"] for c in payload["checks"])


@pytest.fixture(scope="module")
def random_chain_files(tmp_path_factory):
    """A seeded non-reversible 30-state kernel and a centered observable."""
    directory = tmp_path_factory.mktemp("random-chain")
    rng = np.random.default_rng(8)
    kernel = random_irreducible_kernel(30, rng)
    f = random_centered_observable(stationary_distribution(kernel), rng)
    return (write_json(directory / "K.json", {"rows": kernel.tolist()}),
            write_json(directory / "f.json", f.tolist()))


def test_verify_json_repeats_for_a_seed(random_chain_files):
    # two fresh interpreters, with different string hashing, print the same bytes
    args = [sys.executable, "-m", "mavar.cli", "verify", "--json", "--seed", "3",
            *random_chain_files]
    outputs = [subprocess.run(args, capture_output=True, env=dict(child_env(), PYTHONHASHSEED=h),
                              timeout=120).stdout for h in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["all_pass"] is True


def test_the_seed_moves_only_the_probe_records(runner, random_chain_files):
    reports = [json.loads(runner.invoke(main, ["verify", "--json", "--seed", seed,
                                               *random_chain_files]).output)
               for seed in ("3", "4")]
    records = [{c["name"]: c for c in report["checks"]} for report in reports]
    probes = [name for name in records[0] if "random" in name or name.startswith("orthogonality")]
    assert probes == ["orthogonality of phi against pi(f .) = 0"]
    assert records[0][probes[0]]["residual"] != records[1][probes[0]]["residual"]
    assert all(records[0][name] == records[1][name] for name in records[0] if name not in probes)
    assert all(report["all_pass"] for report in reports)


def test_verify_failure_exit_code(runner, fixture_dir, monkeypatch):
    # force every bound negative to exercise the failure path
    monkeypatch.setattr(mavar.poisson, "ROUTE_TOL", -1.0)
    result = runner.invoke(main, [
        "verify",
        str(fixture_dir / "six-cycle" / "P2.json"),
        str(fixture_dir / "six-cycle" / "f1.json"),
    ])
    assert result.exit_code == 5
    assert "FAIL" in result.output


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_verify_rejects_a_negative_seed(runner, fixture_dir, seed):
    result = runner.invoke(main, [
        "verify", "--seed", seed,
        str(fixture_dir / "six-cycle" / "P2.json"),
        str(fixture_dir / "six-cycle" / "f1.json"),
    ])
    assert result.exit_code == 2
    assert "--seed" in result.output
    assert "PASS" not in result.output


def test_simulate_reports_estimate(runner, fixture_dir):
    result = runner.invoke(main, [
        "simulate", "--json", "--n", "20000", "--seed", "11",
        str(fixture_dir / "six-cycle" / "P2.json"),
        str(fixture_dir / "six-cycle" / "f1.json"),
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["seed"] == 11
    assert payload["n_batches"] >= 2
    assert payload["analytic_avar"] == pytest.approx(2 / 3, abs=1e-12)
    assert payload["deviation_sigmas"] < 5.0


@pytest.mark.parametrize("as_json", [False, True])
def test_simulate_on_a_degenerate_chain_reports_the_estimate_alone(runner, tmp_path, as_json):
    # the stationary solve of this irreducible kernel fails, so there is no
    # analytic value to compare with, but the simulation itself is sound;
    # the report says why
    eps = 1e-16
    on, off = 0.5 - eps / 2, eps / 2
    kernel = write_json(tmp_path / "deg.json", {
        "rows": [[on, on, off, off],
                 [on, on, off, off],
                 [off, off, on, on],
                 [off, off, on, on]],
    })
    obs = write_json(tmp_path / "f.json", [1.0, -1.0, 1.0, -1.0])
    result = runner.invoke(main, ["simulate", "--n", "2000", kernel, obs]
                           + ["--json"] * as_json)
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    note = "stationary solve failed: stationary solve produced a nonpositive weight"
    if as_json:
        report = json.loads(result.stdout)
        assert set(report) == {"value", "std_error", "n_batches", "batch_len", "seed",
                               "analytic_note"}
        assert report["analytic_note"] == note
    else:
        lines = result.stdout.splitlines()
        assert lines[0].startswith("estimate: ")
        assert lines[-1] == f"analytic avar: not computed ({note})"
        assert "deviation" not in result.stdout


def test_simulate_keeps_its_estimate_when_the_variance_underflows(runner, tmp_path):
    # sigma^2 near 3e-320 is subnormal, so there is no analytic value to compare with
    kernel = write_json(tmp_path / "P.json", {"rows": [[0.9, 0.1], [0.2, 0.8]]})
    obs = write_json(tmp_path / "f.json", [1e-160, -1e-160])
    result = runner.invoke(main, ["simulate", "--n", "2000", "--json", kernel, obs])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    report = json.loads(result.stdout)
    assert set(report) == {"value", "std_error", "n_batches", "batch_len", "seed",
                           "analytic_note"}
    assert report["analytic_note"] == (
        "variance underflows float64 (sigma^2 = 2.963e-320); rescale the observable")
    assert 0.0 < report["value"] < 1e-310


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_simulate_rejects_a_negative_seed(runner, fixture_dir, seed):
    result = runner.invoke(main, [
        "simulate", "--seed", seed, "--n", "100",
        str(fixture_dir / "six-cycle" / "P2.json"),
        str(fixture_dir / "six-cycle" / "f1.json"),
    ])
    assert result.exit_code == 2
    assert "--seed" in result.output
    assert "estimate" not in result.output


def test_simulate_too_short(runner, fixture_dir):
    result = runner.invoke(main, [
        "simulate", "--n", "1", "--batch-len", "2",
        str(fixture_dir / "six-cycle" / "P2.json"),
        str(fixture_dir / "six-cycle" / "f1.json"),
    ])
    assert result.exit_code == 2


def test_simulate_bad_initial(runner, fixture_dir):
    result = runner.invoke(main, [
        "simulate", "--n", "10", "--initial", "9",
        str(fixture_dir / "six-cycle" / "P2.json"),
        str(fixture_dir / "six-cycle" / "f1.json"),
    ])
    assert result.exit_code == 2


@pytest.mark.parametrize("rows", [[[0.9, 0.1], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]])
def test_simulate_batch_means_overflow_exits_2(runner, tmp_path, rows):
    # the reducible kernel runs no analytic check, so the estimate alone decides
    kernel = write_json(tmp_path / "K.json", {"rows": rows})
    obs = tmp_path / "f.json"
    obs.write_text("[1e308, -1e308]")
    result = runner.invoke(main, ["simulate", "--json", "--n", "100", kernel, str(obs)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "error: batch-means estimate overflows float64" in result.stderr
    assert "RuntimeWarning" not in result.stderr


def test_simulate_beyond_memory_exits_2(tmp_path):
    # the child caps only its own address space, so the 80 GB draw fails at once
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    kernel = write_json(tmp_path / "K.json", {"rows": [[0.5, 0.5], [0.5, 0.5]]})
    obs = write_json(tmp_path / "f.json", [1.0, -1.0])
    env = child_env()
    done = subprocess.run(
        [sys.executable, "-m", "mavar.cli", "simulate", kernel, obs, "--n", "10000000000"],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=cap)
    assert done.returncode == 2, done.stderr
    assert done.stderr == "error: --n 10000000000 transitions do not fit in memory\n"


def test_reproduce_examples_all(runner):
    result = runner.invoke(main, ["reproduce-examples"])
    assert result.exit_code == 0
    assert "DISCREPANCY-DOCUMENTED" in result.output
    assert "20 rows, 20 acceptable" in result.output


def test_reproduce_examples_only_filter(runner):
    result = runner.invoke(main, ["reproduce-examples", "--only", "six-cycle"])
    assert result.exit_code == 0
    assert "5 rows, 5 acceptable" in result.output
    result = runner.invoke(main, ["reproduce-examples", "--only", "nonsense"])
    assert result.exit_code == 2


def test_reproduce_examples_json(runner):
    result = runner.invoke(main, ["reproduce-examples", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["all_pass"] is True
    assert len(payload["rows"]) == 20
    by_name = {row["name"]: row for row in payload["rows"]}
    flagged = by_name["six-cycle/sigma2(P1,f1)"]
    assert flagged["verdict"] == "DISCREPANCY-DOCUMENTED"
    assert flagged["stated_ratio"] == [5, 12]
    assert flagged["abs_diff_derived"] <= 1e-12


def test_reproduce_examples_strict_tol_fails(runner):
    result = runner.invoke(main, ["reproduce-examples", "--tol", "1e-30"])
    assert result.exit_code == 7


def test_reproduce_examples_dump(runner, tmp_path):
    target = tmp_path / "out"
    result = runner.invoke(main, [
        "reproduce-examples", "--dump-fixtures", str(target),
        "--only", "six-cycle"])
    assert result.exit_code == 0
    assert (target / "six-cycle" / "P1.json").exists()
    assert (target / "fk-pair" / "Q.json").exists()


def test_reproduce_examples_dump_under_a_file_exits_2(runner, tmp_path):
    target = tmp_path / "f.json"
    target.write_text("[]")
    result = runner.invoke(main, ["reproduce-examples", "--dump-fixtures",
                                  str(target / "sub")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"error: cannot write fixtures under {target / 'sub'}: " in result.output
    assert "Traceback" not in result.output


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.output.strip() == f"mavar, version {mavar.__version__}"


def test_validate_rejects_non_finite_kernel(runner, tmp_path):
    path = write_json(tmp_path / "nan.json", {"rows": [[0.5, float("nan")], [0.5, 0.5]]})
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 2
    assert "kernel entry (0, 1) is nan" in result.output


def test_validate_rejects_non_finite_embedded_pi(runner, tmp_path):
    path = write_json(tmp_path / "nan.json", {"rows": [[0.5, 0.5], [0.5, 0.5]],
                                              "pi": [float("nan"), 0.5]})
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 2
    assert "embedded pi is not a probability vector" in result.output


def test_validate_rejects_a_non_numeric_embedded_pi(runner, tmp_path):
    path = write_json(tmp_path / "pi.json", {"rows": [[0.5, 0.5], [0.5, 0.5]], "pi": "abc"})
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 2
    assert f"error: {path}: could not convert string to float" in result.output


def test_analyze_rejects_non_finite_observable(runner, tmp_path):
    kernel = write_json(tmp_path / "flip.json", {"rows": [[0, 1], [1, 0]]})
    obs = write_json(tmp_path / "f.json", [float("nan"), 1.0])
    result = runner.invoke(main, ["analyze", kernel, obs])
    assert result.exit_code == 2
    assert "observable entry 0 is nan" in result.output
    assert "pi-mean" not in result.output


def test_analyze_overflow_exit_code(runner, tmp_path):
    kernel = write_json(tmp_path / "flat.json", {"rows": [[0.5, 0.5], [0.5, 0.5]]})
    obs = write_json(tmp_path / "f.json", [1e308, -1e308])
    result = runner.invoke(main, ["analyze", kernel, obs])
    assert result.exit_code == 2
    assert "overflows float64" in result.output


def overflowing_solution_files(tmp_path):
    """The rev 1e-6 chain with f = +-1e306 by block: phi itself overflows."""
    rows, f = reversible_two_blocks(1e-6)
    return (write_json(tmp_path / "K.json", {"rows": rows.tolist()}),
            write_json(tmp_path / "f.json", (1e306 * f).tolist()))


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_an_overflowing_solution_prints_only_the_note_and_the_error(runner, tmp_path, command):
    result = runner.invoke(main, [command, "--center", *overflowing_solution_files(tmp_path)])
    assert result.exit_code == 2
    note, error = result.stderr.splitlines()
    assert note.startswith("note: centering observable (pi-mean was ")
    assert error.startswith("error: variance overflows float64 (sigma^2 = inf")


def test_simulate_drops_an_overflowing_analytic_value_without_a_warning(runner, tmp_path):
    # 100 steps stay in the first block, so the estimate is 0 and finite
    result = runner.invoke(main, ["simulate", "--json", "--n", "100",
                                  *overflowing_solution_files(tmp_path)])
    assert result.exit_code == 0
    assert result.stderr == ""
    report = json.loads(result.stdout)
    assert "analytic_avar" not in report
    assert report["analytic_note"].startswith("variance overflows float64 (sigma^2 = inf")


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("case, note", [
    ("reducible", "kernel is reducible"),
    ("degenerate", "Poisson operator singular: spectrum reaches 1 (radius "),
    ("overflow", "variance overflows float64 (sigma^2 = inf, avar = nan); "
                 "rescale the observable"),
])
def test_simulate_says_why_it_has_no_analytic_value(runner, tmp_path, case, note, as_json):
    if case == "overflow":
        files = overflowing_solution_files(tmp_path)
    else:
        rows, f = (([[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0]) if case == "reducible"
                   else (two_block_rows(1e-13), [1.0, -1.0, 1.0, -1.0]))
        files = (write_json(tmp_path / "K.json", {"rows": rows}),
                 write_json(tmp_path / "f.json", f))
    result = runner.invoke(main, ["simulate", "--n", "100", *files] + ["--json"] * as_json)
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    if as_json:
        report = json.loads(result.stdout)
        assert report["analytic_note"].startswith(note)
        assert "analytic_avar" not in report and "deviation_sigmas" not in report
    else:
        assert result.stdout.splitlines()[-1].startswith(f"analytic avar: not computed ({note}")
        assert result.stdout.endswith(")\n")


def nonreversible_files(tmp_path, n, seed):
    rng = np.random.default_rng(seed)
    kernel = random_irreducible_kernel(n, rng)
    f = random_centered_observable(stationary_distribution(kernel), rng)
    return (write_json(tmp_path / "P.json", {"rows": kernel.tolist()}),
            write_json(tmp_path / "f.json", f.tolist()))


def test_verify_route_record_catches_a_corrupted_lu(runner, tmp_path, monkeypatch):
    class CorruptedChain(mavar.cli.ReducedChain):
        @property
        def inv(self):
            bad = super().inv.copy()
            bad[0, 0] *= 1.001
            return bad

    monkeypatch.setattr(mavar.cli, "ReducedChain", CorruptedChain)
    kernel, obs = nonreversible_files(tmp_path, 8, 5)
    result = runner.invoke(main, ["verify", "--json", kernel, obs])
    assert result.exit_code == 5
    payload = json.loads(result.output.splitlines()[0])
    records = {c["name"]: c for c in payload["checks"]}
    assert records["factored-operator route"]["passed"] is False
    assert records["factored-operator minimum"]["passed"] is False


def near_decomposable_files(tmp_path, eps=1.1e-12):
    """Two lazy 2-state blocks joined by eps: an eigenvalue 1 - 2.2e-12 sits
    just outside the Poisson gate's SOLVABLE_TOL."""
    return (write_json(tmp_path / "P.json", {
                "rows": [[0.5 - eps, 0.5, eps, 0], [0.5, 0.5, 0, 0],
                         [eps, 0, 0.5 - eps, 0.5], [0, 0, 0.5, 0.5]],
                "pi": [0.25, 0.25, 0.25, 0.25]}),
            write_json(tmp_path / "f.json", [1, 1, -1, -1]))


def two_block_files(tmp_path, seed, eps, reversible, scale=1.0):
    """Two random 10-state blocks joined by weight eps, f = +scale on one and
    -scale on the other (not centered).  Symmetric block weights make the chain
    reversible."""
    rng = np.random.default_rng(seed)
    weights = np.full((20, 20), eps)
    for block in (slice(0, 10), slice(10, 20)):
        B = rng.random((10, 10))
        weights[block, block] = B + B.T if reversible else B
    rows = weights / weights.sum(axis=1, keepdims=True)
    return (write_json(tmp_path / "P.json", {"rows": rows.tolist()}),
            write_json(tmp_path / "f.json", [scale] * 10 + [-scale] * 10))


def json_line(output):
    """The one JSON line of an output that may also hold note: and error: lines."""
    (line,) = [line for line in output.splitlines() if line.startswith("{")]
    return line


def assert_spectral_route_agrees(result):
    assert result.exit_code == 0, result.output
    report = json.loads(json_line(result.output))
    assert report["reversible"] is True and report["routes_agree"] is True
    routes = report["routes"]
    assert abs(routes["spectral"] - routes["dual-pair"]) <= ROUTE_TOL * report["sigma2"]


def test_a_near_decomposable_chain_passes_the_spectral_route(runner, tmp_path):
    # an eigenvalue the gate has judged apart from 1 is a term of the spectral
    # sum, not an infinite variance
    kernel, obs = near_decomposable_files(tmp_path)
    assert_spectral_route_agrees(runner.invoke(main, ["analyze", "--json", kernel, obs]))
    result = runner.invoke(main, ["verify", "--json", kernel, obs])
    records = {c["name"]: c for c in json.loads(result.output.splitlines()[0])["checks"]}
    assert records["spectral route"]["passed"] is True


def test_analyze_keeps_the_spectral_route_apart_from_the_constant(runner, tmp_path):
    # the slow mode's eigenvalue is within 2e-6 of the Perron one, which a
    # full-space eigensolve mixes it with
    kernel, obs = two_block_files(tmp_path, 3, 1e-6, reversible=True)
    result = runner.invoke(main, ["analyze", "--json", "--center", kernel, obs])
    assert_spectral_route_agrees(result)


def test_verify_passes_a_backward_stable_solve_of_a_near_decomposable_chain(runner, tmp_path):
    # max|phi| is about 5e5: the residuals are about 3e-10, which an absolute
    # bound of 1e-10 failed, and their backward errors a few units of roundoff
    rows, f = reversible_two_blocks(1e-6)
    kernel = write_json(tmp_path / "P.json", {"rows": rows.tolist()})
    obs = write_json(tmp_path / "f.json", f.tolist())
    result = runner.invoke(main, ["verify", "--json", "--center", kernel, obs])
    assert result.exit_code == 0, result.output
    records = {c["name"]: c for c in json.loads(json_line(result.output))["checks"]}
    for name in ("poisson residual (primal)", "poisson residual (dual)"):
        assert records[name]["passed"] is True and records[name]["residual"] < 1e-15


def strict_json(text):
    """Parse text as strict JSON: Infinity and NaN are errors."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_a_failed_route_is_null_in_strict_json(runner, tmp_path, monkeypatch):
    # the spectral route is inf when a unit eigenvalue carries weight of f
    monkeypatch.setattr(mavar.checks, "avar_spectral", lambda chain, pi, f: float("inf"))
    kernel, obs = two_block_files(tmp_path, 0, 0.1, reversible=True)
    result = runner.invoke(main, ["analyze", "--json", "--center", kernel, obs])
    assert result.exit_code == 5
    assert isinstance(result.exception, SystemExit)
    assert strict_json(json_line(result.output))["routes"]["spectral"] is None
    result = runner.invoke(main, ["verify", "--json", "--center", kernel, obs])
    assert result.exit_code == 5
    records = {c["name"]: c for c in strict_json(json_line(result.output))["checks"]}
    assert records["spectral route"]["residual"] is None
    assert records["spectral route"]["passed"] is False


def test_a_failed_route_reports_its_value(runner, tmp_path):
    # the factored operator cannot reach ROUTE_TOL on blocks joined by 1e-9;
    # the route still returns its sigma^2, and the records show how far it is
    kernel, obs = two_block_files(tmp_path, 0, 1e-9, reversible=False)
    result = runner.invoke(main, ["analyze", "--json", "--center", kernel, obs])
    assert result.exit_code == 5
    report = strict_json(json_line(result.output))
    assert report["routes_agree"] is False
    assert report["routes"]["factored-operator"] == pytest.approx(report["sigma2"], rel=1e-2)
    result = runner.invoke(main, ["verify", "--json", "--center", kernel, obs])
    assert result.exit_code == 5
    records = [c for c in strict_json(json_line(result.output))["checks"] if not c["passed"]]
    assert records and all(c["residual"] > c["bound"] for c in records)


def test_verify_prints_a_failed_record_against_its_bound(runner, tmp_path):
    # nonrev eps = 1e-8: the factored-operator minimum misses 1/sigma^2 = 4.2e-8
    # by 1.6e-9 relative
    kernel, obs = two_block_files(tmp_path, 5, 1e-8, reversible=False)
    result = runner.invoke(main, ["verify", "--center", kernel, obs])
    assert result.exit_code == 5
    (line,) = [line for line in result.stdout.splitlines() if line.startswith("FAIL")]
    assert re.fullmatch(r"FAIL factored-operator minimum \(residual 6\.667\d*e-17 > "
                        r"4\.19640756051e-17\)", line), line
    assert "<=" not in line
    assert all(" <= " in line for line in result.stdout.splitlines()
               if line.startswith("PASS"))


def test_the_units_of_f_do_not_move_the_verdicts(runner, tmp_path):
    # f 2^-13 repeats f's arithmetic exactly; on blocks joined by 1e-8 the
    # factored-operator minimum misses 1/sigma^2 = 4.2e-8 by 1.4e-9 relative
    for scale in (1.0, 2.0 ** -13):
        kernel, obs = two_block_files(tmp_path, 5, 1e-8, reversible=False, scale=scale)
        result = runner.invoke(main, ["verify", "--center", kernel, obs])
        assert result.exit_code == 5, scale
        assert "FAIL factored-operator minimum" in result.stdout
        assert runner.invoke(main, ["analyze", "--center", kernel, obs]).exit_code == 0


@pytest.mark.parametrize("miss, code", [(0.9e-9, 0), (1.1e-9, 5)])
def test_analyze_judges_the_routes_as_verify_does(runner, tmp_path, monkeypatch, miss, code):
    # the two routes straddle the dual pair by miss and miss / 2 relative, so
    # they spread by 1.5 miss; each command judges every route against the dual pair
    factored = mavar.checks._factored_solve

    def sigma2(chain, f):
        return mavar.poisson.solve_dual_pair(chain, None, f).sigma2

    monkeypatch.setattr(mavar.checks, "_factored_solve", lambda chain, pi, f: (
        sigma2(chain, f) * (1.0 + miss), factored(chain, pi, f)[1]))
    monkeypatch.setattr(mavar.checks, "avar_spectral",
                        lambda chain, pi, f: sigma2(chain, f) * (1.0 - 0.5 * miss))
    rows, _ = random_reversible_kernel(8, np.random.default_rng(3))
    kernel = write_json(tmp_path / "P.json", {"rows": rows.tolist()})
    obs = write_json(tmp_path / "f.json", list(range(8)))
    result = runner.invoke(main, ["analyze", "--json", "--center", kernel, obs])
    assert result.exit_code == code, result.stderr
    report = json.loads(json_line(result.stdout))
    assert report["routes_agree"] is (code == 0)
    if code:
        distance = abs(report["sigma2"] * (1.0 + miss) - report["sigma2"])
        assert (f"error: variance routes disagree: the factored-operator route is "
                f"{distance} from the dual pair" in result.stderr)
    result = runner.invoke(main, ["verify", "--json", "--center", kernel, obs])
    assert result.exit_code == code, result.stderr
    records = {c["name"]: c for c in json.loads(json_line(result.stdout))["checks"]}
    assert records["factored-operator route"]["passed"] is (code == 0)
    assert records["spectral route"]["passed"] is True


def test_analyze_names_a_failed_solution_record(runner, tmp_path, monkeypatch):
    # T^{-1} y off by 1e-6 relative while the route's sigma^2 agrees: only the
    # solution record fails, and analyze names it
    factored = mavar.checks._factored_solve

    def off(chain, pi, f):
        sigma2, solution = factored(chain, pi, f)
        return sigma2, solution * (1.0 + 1e-6)

    monkeypatch.setattr(mavar.checks, "_factored_solve", off)
    rows, _ = random_reversible_kernel(8, np.random.default_rng(3))
    kernel = write_json(tmp_path / "P.json", {"rows": rows.tolist()})
    obs = write_json(tmp_path / "f.json", list(range(8)))
    result = runner.invoke(main, ["analyze", "--center", kernel, obs])
    assert result.exit_code == 5
    assert "routes agree within 1e-09: no" in result.stdout
    assert ("error: variance routes disagree: the factored-operator solution is "
            in result.stderr)
    result = runner.invoke(main, ["verify", "--json", "--center", kernel, obs])
    assert result.exit_code == 5
    failed = [c["name"] for c in json.loads(json_line(result.stdout))["checks"]
              if not c["passed"]]
    assert failed == ["factored-operator solution"]


def test_verify_catches_a_wrong_reduced_operator(runner, tmp_path, monkeypatch):
    # every route reads the one A, so they agree on a wrong one; the Poisson
    # residuals work with P itself and fail
    operator = mavar.kernel.MeanZeroFrame.operator

    def shifted(self, P):
        A = operator(self, P)
        A.flat[:: A.shape[0] + 1] += 0.05  # symmetric, so the spectral route runs on it
        return A

    monkeypatch.setattr(mavar.kernel.MeanZeroFrame, "operator", shifted)
    rng = np.random.default_rng(4)
    kernel, pi = random_reversible_kernel(8, rng)
    obs = write_json(tmp_path / "f.json", random_centered_observable(pi, rng).tolist())
    kernel = write_json(tmp_path / "P.json", {"rows": kernel.tolist()})
    result = runner.invoke(main, ["verify", "--json", kernel, obs])
    assert result.exit_code == 5
    records = {c["name"]: c for c in json.loads(result.output.splitlines()[0])["checks"]}
    for name in ("factored-operator route", "spectral route"):
        assert records[name]["passed"] is True
    for name in ("poisson residual (primal)", "poisson residual (dual)"):
        assert records[name]["passed"] is False


def test_validate_and_analyze_agree_on_a_nearly_reversible_kernel(runner, tmp_path):
    # detailed balance off by 6.7e-11: not reversible at the spectral route's 1e-12
    circulation = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    rows = np.full((3, 3), 1 / 3) + 1e-10 * circulation
    kernel = write_json(tmp_path / "P.json", {"rows": rows.tolist()})
    obs = write_json(tmp_path / "f.json", [1.0, 0.0, -1.0])
    for args in (["validate", kernel], ["analyze", kernel, obs]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert "reversible: no" in result.output


def test_verify_factors_the_chain_once(runner, tmp_path, monkeypatch):
    # guards the factor-once design: one reduced operator per chain, and the
    # condition estimate, not the spectrum, clears a well-conditioned chain
    counts = {"eigvals": 0, "operator": 0}
    eigvals = np.linalg.eigvals
    operator = mavar.kernel.MeanZeroFrame.operator

    def counted_eigvals(*args, **kwargs):
        counts["eigvals"] += 1
        return eigvals(*args, **kwargs)

    def counted_operator(*args, **kwargs):
        counts["operator"] += 1
        return operator(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    monkeypatch.setattr(mavar.kernel.MeanZeroFrame, "operator", counted_operator)
    kernel, obs = nonreversible_files(tmp_path, 30, 9)
    result = runner.invoke(main, ["verify", "--json", kernel, obs])
    assert result.exit_code == 0
    assert json.loads(result.output)["all_pass"] is True
    assert counts == {"eigvals": 0, "operator": 1}


def counting(monkeypatch, owner, name):
    """Replace owner.name with a wrapper; returns the list of its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_compare_runs_one_eigensolve_per_order_pair(runner, tmp_path, monkeypatch):
    # the Dirichlet and domination tests read both directions from one eigh each
    rng = np.random.default_rng(9)
    kernel, pi = random_reversible_kernel(30, rng)
    better = apply_drift(kernel, pi, random_drift(kernel, pi, rng))
    first = write_json(tmp_path / "K.json", {"rows": kernel.tolist()})
    second = write_json(tmp_path / "P.json", {"rows": better.tolist()})
    calls = counting(monkeypatch, np.linalg, "eigh")
    result = runner.invoke(main, ["compare", "--json", first, second])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["domination"]["forward"]["holds"] is True
    assert report["domination"]["reverse"]["holds"] is False
    assert len(calls) == 2


def lifetime_inputs(tmp_path, job):
    """The arguments of a verify ("rev" or "nonrev"), analyze ("analyze-rev"
    or "analyze-nonrev") or compare job on seeded 60-state chains; compare
    reads a reversible kernel and a drift of it."""
    rng = np.random.default_rng(12)
    kernel, pi = random_reversible_kernel(60, rng)
    if job == "compare":
        better = apply_drift(kernel, pi, random_drift(kernel, pi, rng))
        return ["compare", "--json", write_json(tmp_path / "K.json", {"rows": kernel.tolist()}),
                write_json(tmp_path / "P.json", {"rows": better.tolist()})]
    if job.endswith("nonrev"):
        kernel = random_irreducible_kernel(60, rng)
        pi = stationary_distribution(kernel)
    command = "analyze" if job.startswith("analyze") else "verify"
    return [command, "--json", write_json(tmp_path / "P.json", {"rows": kernel.tolist()}),
            write_json(tmp_path / "f.json", random_centered_observable(pi, rng).tolist())]


@pytest.mark.parametrize("job, calls", [
    # the inverse of I - A feeds the dual pair, which the kernel's full-space
    # records read; the eigh and the inverse of I - S run after the kernel is gone
    ("rev", [("inv", 1), ("eigh", 0), ("inv", 0)]),
    ("nonrev", [("inv", 1), ("inv", 0)]),
    ("compare", [("inv", 0), ("inv", 0), ("eigh", 0), ("eigh", 0)]),
    # analyze drops the kernel before its routes and the radius, none of which read it
    ("analyze-rev", [("eigh", 0), ("inv", 0), ("inv", 0)]),
    ("analyze-nonrev", [("inv", 0), ("inv", 0), ("eigvals", 0)]),
], ids=["rev", "nonrev", "compare", "analyze-rev", "analyze-nonrev"])
def test_no_kernel_is_alive_in_an_inverse_or_eigensolve_that_does_not_read_it(
        runner, tmp_path, monkeypatch, job, calls):
    # each kernel the command reads is freed after its last reader, so no O(n^3)
    # step holds it; a weak reference sees whether anything still names it
    kernels = []
    read_kernel = mavar.cli.read_kernel

    def reading(*args):
        kernel, pi = read_kernel(*args)
        kernels.append(weakref.ref(kernel))
        return kernel, pi

    seen = []

    def watching(name):
        solver = getattr(np.linalg, name)

        def watched(a):
            seen.append((name, sum(ref() is not None for ref in kernels)))
            return solver(a)
        return watched

    monkeypatch.setattr(mavar.cli, "read_kernel", reading)
    for name in ("inv", "eigh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, watching(name))
    result = runner.invoke(main, lifetime_inputs(tmp_path, job))
    assert result.exit_code == 0, result.output
    assert len(kernels) == (2 if job == "compare" else 1)
    assert seen == calls


def test_a_reversible_analyze_runs_one_eigensolve(runner, tmp_path, monkeypatch):
    # the spectral route's eigh fills the chain's spectrum, which the radius reads
    rng = np.random.default_rng(9)
    kernel, pi = random_reversible_kernel(30, rng)
    kernel = write_json(tmp_path / "P.json", {"rows": kernel.tolist()})
    obs = write_json(tmp_path / "f.json", random_centered_observable(pi, rng).tolist())
    calls = {name: counting(monkeypatch, np.linalg, name)
             for name in ("eigh", "eigvals", "eigvalsh")}
    result = runner.invoke(main, ["analyze", kernel, obs])
    assert result.exit_code == 0, result.output
    assert "route spectral" in result.output
    assert {name: len(c) for name, c in calls.items()} == {"eigh": 1, "eigvals": 0,
                                                           "eigvalsh": 0}


def test_verify_solves_only_the_resolvent_it_records(runner, tmp_path, monkeypatch):
    # two solves for pi and one for the factored-operator route: no record
    # reads a resolvent, so none is solved
    kernel, obs = nonreversible_files(tmp_path, 30, 9)
    calls = counting(monkeypatch, np.linalg, "solve")
    result = runner.invoke(main, ["verify", "--json", kernel, obs])
    assert result.exit_code == 0
    records = json.loads(result.output)["checks"]
    assert not [r["name"] for r in records if "resolvent" in r["name"]]
    assert len(calls) == 3


def birth_death_files(tmp_path, n, up=0.2, down=0.5, f=np.cos):
    """Up `up`, down `down`, the rest held: pi falls by a factor up/down per
    state.  The observable is f(i)."""
    rows = np.zeros((n, n))
    i = np.arange(n - 1)
    rows[i, i + 1] = up
    rows[i + 1, i] = down
    rows[np.arange(n), np.arange(n)] = 1.0 - rows.sum(axis=1)
    return (write_json(tmp_path / "P.json", {"rows": rows.tolist()}),
            write_json(tmp_path / "f.json", f(np.arange(n, dtype=float)).tolist()))


@pytest.mark.parametrize("n, code, failed", [
    (14, 0, []),  # pi_min 4e-6
    # pi_min 1.6e-8: max|eta*| is 2.2e-7 at the lightest states, but
    # ||eta*||_pi is 3.5e-11, within the 7.1e-8 that rounding A can leave
    (20, 0, []),
])
def test_verify_on_small_stationary_weights(runner, tmp_path, n, code, failed):
    # the dual residual applies P* = P^T (pi .) / pi as defined; a kernel
    # built from it would renormalize rows summing to 1 + residual / pi_i
    kernel, obs = birth_death_files(tmp_path, n)
    result = runner.invoke(main, ["verify", "--json", "--center", kernel, obs])
    assert result.exit_code == code, result.stderr
    records = json.loads(result.stdout)["checks"]
    assert [c["name"] for c in records if not c["passed"]] == failed
    assert "sums to" not in result.stderr


@pytest.mark.parametrize("up", [0.28, 0.25, 0.2])
def test_verify_passes_eta_star_on_a_reversible_chain_with_tiny_weights(runner, tmp_path,
                                                                        up):
    # f = i; pi_min is 9.8e-9 at up = 0.28.  The record reads
    # ||eta*||_pi = ||phi - phi*||_pi / (2 sigma^2), which rounding leaves at
    # 7e-12 to 4e-9 here, each time hundreds of times below its bound
    kernel, obs = birth_death_files(tmp_path, 20, up, 0.72, f=lambda i: i)
    analyzed = runner.invoke(main, ["analyze", "--json", "--center", kernel, obs])
    assert analyzed.exit_code == 0, analyzed.stderr
    result = runner.invoke(main, ["verify", "--json", "--center", kernel, obs])
    assert result.exit_code == 0, result.stderr
    record = next(c for c in json.loads(result.stdout)["checks"]
                  if c["name"] == "eta* vanishes (reversible)")
    report = json.loads(analyzed.stdout)
    pi, phi, phi_star = (np.array(report[key]) for key in ("pi", "phi", "phi_star"))
    assert record["residual"] == pytest.approx(
        np.sqrt(pi @ (phi - phi_star) ** 2) / (2.0 * report["sigma2"]), rel=1e-12)
    assert record["residual"] * 100.0 < record["bound"]


def test_zero_variance_exits_2_from_verify_and_0_from_analyze(runner, tmp_path):
    # verify checks the variational formula for 1/sigma^2, which needs sigma^2 > 0
    kernel = write_json(tmp_path / "P.json", {"rows": [[0.5, 0.5], [0.5, 0.5]]})
    obs = write_json(tmp_path / "f.json", [0, 0])
    result = runner.invoke(main, ["analyze", kernel, obs])
    assert result.exit_code == 0
    assert "sigma^2: 0\n" in result.stdout
    result = runner.invoke(main, ["verify", kernel, obs])
    assert result.exit_code == 2
    assert result.stderr == "error: sigma^2 = 0.0 is not positive\n"


@pytest.mark.parametrize("value, flags", [(1.0, ["--center"]), (3e-12, ["--center"])])
def test_a_centered_constant_has_zero_variance(runner, tmp_path, value, flags):
    # a constant's mean is its whole size, so it is centered only on request;
    # at any scale the rounding that centering leaves of it is not a variance
    rows = random_irreducible_kernel(10, np.random.default_rng(0))
    f = np.full(10, value)
    assert np.any(f - stationary_distribution(rows) @ f)  # centering leaves noise
    kernel = write_json(tmp_path / "P.json", {"rows": rows.tolist()})
    obs = write_json(tmp_path / "f.json", f.tolist())
    result = runner.invoke(main, ["analyze", kernel, obs, *flags])
    assert result.exit_code == 0
    assert "sigma^2: 0\n" in result.stdout
    result = runner.invoke(main, ["verify", kernel, obs, *flags])
    assert result.exit_code == 2
    assert result.stderr.endswith("error: sigma^2 = 0.0 is not positive\n")


def test_a_small_observable_verifies(runner, tmp_path):
    # sigma^2 near 8e-13 is small because f is, not zero
    rng = np.random.default_rng(1)
    kernel = write_json(tmp_path / "P.json",
                        {"rows": random_irreducible_kernel(10, rng).tolist()})
    obs = write_json(tmp_path / "f.json", (1e-6 * rng.standard_normal(10)).tolist())
    result = runner.invoke(main, ["verify", kernel, obs, "--center", "--json"])
    assert result.exit_code == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["all_pass"] and 0.0 < report["sigma2"] < 1e-11


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_an_underflowing_variance_exits_2(runner, tmp_path, command):
    # sigma^2 near 3e-320 is subnormal: most of its digits would be rounding
    kernel = write_json(tmp_path / "P.json", {"rows": [[0.9, 0.1], [0.2, 0.8]]})
    obs = write_json(tmp_path / "f.json", [1e-160, -1e-160])
    result = runner.invoke(main, [command, kernel, obs, "--center"])
    assert result.exit_code == 2
    assert result.stdout == ""
    # the pi-mean, a third of f's size, is no rounding noise: centered with a note
    note, error = result.stderr.splitlines()
    assert note.startswith("note: centering observable (pi-mean was 3.33333333333e-161)")
    assert error.startswith("error: variance underflows float64 (sigma^2 = ")
    assert error.endswith("); rescale the observable")


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("case", ["1e-170", "1e-320", "6 states"])
def test_a_variance_underflowing_to_zero_exits_2(runner, tmp_path, command, case):
    # sigma^2 >= <f, f>_pi / 2 > 0 for a nonzero f, so a sigma^2 of 0 has
    # underflowed: it is no zero variance and no disagreement of the routes
    if case == "6 states":
        rng = np.random.default_rng(0)
        rows = random_irreducible_kernel(6, rng)
        f = 1e-170 * random_centered_observable(stationary_distribution(rows), rng)
    else:
        rows, f = [[0.5, 0.5], [0.5, 0.5]], [float(case), -float(case)]
    kernel = write_json(tmp_path / "P.json", {"rows": np.asarray(rows).tolist()})
    obs = write_json(tmp_path / "f.json", np.asarray(f).tolist())
    result = runner.invoke(main, [command, kernel, obs, "--json"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (
        "error: variance underflows float64 (sigma^2 = 0.0); rescale the observable\n")


def test_simulate_has_no_analytic_value_when_the_variance_underflows_to_zero(
        runner, tmp_path):
    kernel = write_json(tmp_path / "P.json", {"rows": [[0.5, 0.5], [0.5, 0.5]]})
    obs = write_json(tmp_path / "f.json", [1e-170, -1e-170])
    result = runner.invoke(main, ["simulate", "--n", "1000", "--json", kernel, obs])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    report = json.loads(result.stdout)
    assert set(report) == {"value", "std_error", "n_batches", "batch_len", "seed",
                           "analytic_note"}
    assert report["analytic_note"] == (
        "variance underflows float64 (sigma^2 = 0.0); rescale the observable")


@pytest.mark.parametrize("reversible", [True, False])
def test_scaling_the_observable_scales_sigma2_by_its_square(runner, tmp_path, reversible):
    # sigma^2(P, c f) = c^2 sigma^2(P, f), through both commands, over 300 decades
    rng = np.random.default_rng(7)
    if reversible:
        rows, _ = random_reversible_kernel(12, rng)
    else:
        rows = random_irreducible_kernel(12, rng)
    f = rng.standard_normal(12)
    kernel = write_json(tmp_path / "P.json", {"rows": rows.tolist()})
    sigma2 = {}
    for c in (1.0, 2.0 ** -500, 1e-150, 1e-6, 1e6, 1e150):
        obs = write_json(tmp_path / "f.json", (c * f).tolist())
        for command, verdict in (("analyze", "routes_agree"), ("verify", "all_pass")):
            result = runner.invoke(main, [command, kernel, obs, "--center", "--json"])
            assert result.exit_code == 0, (c, command, result.stderr)
            report = json.loads(result.stdout)
            assert report[verdict] is True, (c, command)
            sigma2[c, command] = report["sigma2"]
    for (c, command), value in sigma2.items():
        assert value / c ** 2 == pytest.approx(sigma2[1.0, "analyze"], rel=1e-12), (c, command)


IMPORT_GUARD = """
import json, sys
from mavar.cli import main
for args in json.loads(sys.argv[1]):
    try:
        main(args)
    except SystemExit as exc:
        assert not exc.code, (args, exc.code)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_cli_commands_never_import_scipy(fixture_dir):
    # scipy costs most of a command's wall clock to import; numpy covers mavar's needs
    six = fixture_dir / "six-cycle"
    four = fixture_dir / "four-cycle-lift"
    commands = [
        ["validate", str(six / "P1.json")],
        ["analyze", str(six / "P1.json"), str(six / "f1.json")],
        ["analyze", str(six / "P2.json"), str(six / "f1.json")],
        ["verify", str(six / "P2.json"), str(six / "f1.json")],
        ["compare", str(six / "P1.json"), str(six / "P2.json")],
        ["perturb", str(four / "K.json"), "--gamma", str(four / "vorticity.json")],
        ["simulate", "--n", "1000", str(six / "P2.json"), str(six / "f1.json")],
        ["reproduce-examples"],
    ]
    env = child_env()
    done = subprocess.run([sys.executable, "-c", IMPORT_GUARD, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    for marker in ("states:", "sigma^2", "shared pi", "perturbed kernel", "estimate:",
                   "20 rows"):
        assert marker in done.stdout
    assert json.loads(done.stdout.splitlines()[-1]) == []


# an exit hook registered before the import, as a wrapper that measures the
# process registers one; atexit runs it after every hook the import registers
EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count(), file=sys.stderr))
if sys.argv[1] == "main":
    from mavar.cli import main
    sys.exit(main(sys.argv[2:]))
exec(sys.argv[1])
"""


def frozen_at_exit(stderr):
    return int(stderr.splitlines()[-1].removeprefix("frozen at exit: "))


@pytest.mark.parametrize("statement, frozen", [("import mavar.cli", True),
                                               ("import mavar", False)])
def test_only_the_cli_freezes_the_collector_at_exit(statement, frozen):
    # the CLI spares its exit a full collection; the library leaves the
    # interpreter's collector alone
    done = subprocess.run([sys.executable, "-c", EXIT_PROBE, statement],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert (frozen_at_exit(done.stderr) > 0) == frozen


def test_a_frozen_exit_keeps_piped_output_and_earlier_hooks(tmp_path):
    rng = np.random.default_rng(2)
    kernel, pi = random_reversible_kernel(200, rng)
    other = apply_drift(kernel, pi, random_drift(kernel, pi, rng))
    first = write_json(tmp_path / "K1.json", {"rows": kernel.tolist()})
    second = write_json(tmp_path / "K2.json", {"rows": other.tolist()})
    done = subprocess.run([sys.executable, "-c", EXIT_PROBE, "main", "compare", "--json",
                           first, second],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert len(report["pi"]) == 200 and report["domination"]["forward"]["holds"] is True
    assert frozen_at_exit(done.stderr) > 0


def seeded_chain_files(tmp_path, scale=1.0):
    """{(kind, n): (kernel file, observable file)}: rng = default_rng(1), then for
    n = 10, 50 and 200 in turn B = rng.random((n, n)), the "nonrev" chain B and
    the "rev" chain B + B^T with rows normalised, and the observable
    scale * rng.standard_normal(n), not centered."""
    rng = np.random.default_rng(1)
    files = {}
    for n in (10, 50, 200):
        B = rng.random((n, n))
        obs = write_json(tmp_path / f"f{n}.json", (scale * rng.standard_normal(n)).tolist())
        for kind, weights in (("nonrev", B), ("rev", B + B.T)):
            rows = weights / weights.sum(axis=1, keepdims=True)
            files[kind, n] = write_json(tmp_path / f"{kind}{n}.json", {"rows": rows.tolist()}), obs
    return files


@pytest.mark.parametrize("kind", ["rev", "nonrev"])
def test_verify_passes_a_large_observable(runner, tmp_path, kind):
    # pi(f xi*) misses 1 by rounding, which inner_sup must not take for a xi
    # off the constraint at any scale of f
    files = seeded_chain_files(tmp_path, 1e8)
    for n in (10, 50, 200):
        result = runner.invoke(main, ["verify", "--json", "--center", *files[kind, n]])
        assert result.exit_code == 0, result.stderr
        assert all(c["passed"] for c in json.loads(result.stdout)["checks"])


def test_verify_tol_below_rounding_fails_no_check(runner, tmp_path):
    # --tol reaches the observable's centering, not the battery's probes, whose
    # pi(f xi) misses 1 by ~1e-15 here
    kernel, obs = seeded_chain_files(tmp_path)["nonrev", 200]
    result = runner.invoke(main, ["verify", "--center", "--tol", "1e-15", kernel, obs])
    assert result.exit_code == 0, result.stderr


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_tol_leaves_the_report_of_a_centered_observable_unchanged(runner, tmp_path,
                                                                  command):
    # --tol reaches only what the command validates, none of it in play here
    rng = np.random.default_rng(8)
    rev, _ = random_reversible_kernel(12, rng)
    for kernel in (rev, random_irreducible_kernel(12, rng)):
        f = centered(rng.standard_normal(12), stationary_distribution(kernel))
        args = [command, "--json", write_json(tmp_path / "P.json", {"rows": kernel.tolist()}),
                write_json(tmp_path / "f.json", f.tolist())]
        results = [runner.invoke(main, args + extra)
                   for extra in ([], ["--tol", "1e-3"], ["--tol", "1e-12"])]
        assert [r.exit_code for r in results] == [0, 0, 0]
        assert results[0].stdout == results[1].stdout == results[2].stdout

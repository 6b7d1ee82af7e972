import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from click.testing import CliRunner

import mavar.checks
import mavar.cli
from mavar import apply_drift, catalog
from mavar.cli import main
from mavar.kernel import stationary_distribution

from generators import (
    random_centered_observable,
    random_drift,
    random_irreducible_kernel,
    random_reversible_kernel,
)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    catalog.dump_fixtures(directory)
    return directory


@pytest.fixture
def runner():
    return CliRunner()


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


def test_mavar_tol_env_override(runner, fixture_dir, tmp_path):
    # mean is 1e-5: rejected at the default tolerance, accepted at 1e-3
    values = [1.0 + 6e-5, 0.0, 1.0, 0.0, 0.0, -2.0]
    obs = write_json(tmp_path / "f.json", values)
    kernel = str(fixture_dir / "six-cycle" / "P2.json")
    result = runner.invoke(main, ["analyze", kernel, obs])
    assert result.exit_code == 2
    result = runner.invoke(main, ["analyze", kernel, obs],
                           env={"MAVAR_TOL": "1e-3"})
    assert result.exit_code == 0
    result = runner.invoke(main, ["analyze", kernel, obs],
                           env={"MAVAR_TOL": "banana"})
    assert result.exit_code == 2


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_nonpositive_or_non_finite_tolerance_exits_2(runner, tmp_path, source, value):
    kernel = write_json(tmp_path / "flip.json", {"rows": [[0, 1], [1, 0]]})
    obs = write_json(tmp_path / "f.json", [1.0, -1.0])
    args, env = ["analyze", kernel, obs], {}
    if source == "flag":
        args += ["--tol", value]
    else:
        env["MAVAR_TOL"] = value
    result = runner.invoke(main, args, env=env)
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


def two_block_rows(coupling):
    on, off = 0.5 - coupling / 2, coupling / 2
    return [[on, on, off, off], [on, on, off, off],
            [off, off, on, on], [off, off, on, on]]


@pytest.mark.parametrize("kernels, code, message", [
    # DimensionMismatchError from the orders: any other MavarError exits 2
    (["six-cycle/P1.json", "uniform3/K.json"], 2, "kernels have shapes"),
    ([[[1.0, 0.0], [0.0, 1.0]]] * 2, 3, "kernel is not irreducible"),
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
    assert runner.invoke(main, [
        "perturb", str(fixture_dir / "tridiag-drift" / "K.json"),
        "--lambda", drift, "--alpha", "0.5",
    ]).exit_code == 2


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
        "verify", "--json", "--seed", "3", "--trials", "5",
        str(fixture_dir / "three-state-pair" / "P1.json"),
        str(fixture_dir / "three-state-pair" / "g1.json"),
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["all_pass"] is True
    assert payload["seed"] == 3
    assert all(c["passed"] for c in payload["checks"])


def test_verify_failure_exit_code(runner, fixture_dir, monkeypatch):
    # force every bound negative to exercise the failure path
    monkeypatch.setattr(mavar.checks, "ROUTE_TOL", -1.0)
    result = runner.invoke(main, [
        "verify",
        str(fixture_dir / "six-cycle" / "P2.json"),
        str(fixture_dir / "six-cycle" / "f1.json"),
    ])
    assert result.exit_code == 5
    assert "FAIL" in result.output


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_nonpositive_trials(runner, fixture_dir, trials):
    result = runner.invoke(main, [
        "verify", "--trials", trials,
        str(fixture_dir / "six-cycle" / "P2.json"),
        str(fixture_dir / "six-cycle" / "f1.json"),
    ])
    assert result.exit_code == 2
    assert "--trials" in result.output
    assert "PASS" not in result.output


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
    src = str(Path(mavar.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
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
    result = runner.invoke(main, ["reproduce-examples"],
                           env={"MAVAR_TOL": "1e-30"})
    assert result.exit_code == 7


@pytest.mark.parametrize("env", ["abc", ""])
def test_reproduce_examples_rejects_a_bad_mavar_tol(runner, env):
    result = runner.invoke(main, ["reproduce-examples"], env={"MAVAR_TOL": env})
    assert result.exit_code == 2
    assert f"MAVAR_TOL = {env!r} is not a number" in result.output


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
    result = runner.invoke(main, ["verify", "--json", "--trials", "3", kernel, obs])
    assert result.exit_code == 5
    payload = json.loads(result.output.splitlines()[0])
    records = {c["name"]: c for c in payload["checks"]}
    assert records["factored-operator route"]["passed"] is False
    assert records["factored-operator minimum"]["passed"] is False


def near_decomposable_files(tmp_path, eps=1.1e-12):
    """Two lazy 2-state blocks joined by eps, where the spectral route fails."""
    return (write_json(tmp_path / "P.json", {
                "rows": [[0.5 - eps, 0.5, eps, 0], [0.5, 0.5, 0, 0],
                         [eps, 0, 0.5 - eps, 0.5], [0, 0, 0.5, 0.5]],
                "pi": [0.25, 0.25, 0.25, 0.25]}),
            write_json(tmp_path / "f.json", [1, 1, -1, -1]))


def test_a_near_decomposable_chain_exits_5_without_a_traceback(runner, tmp_path):
    kernel, obs = near_decomposable_files(tmp_path)
    result = runner.invoke(main, ["verify", "--json", "--trials", "3", kernel, obs])
    assert result.exit_code == 5
    assert isinstance(result.exception, SystemExit)
    records = {c["name"]: c for c in json.loads(result.output.splitlines()[0])["checks"]}
    assert records["spectral route"]["passed"] is False
    result = runner.invoke(main, ["analyze", kernel, obs])
    assert result.exit_code == 5
    assert isinstance(result.exception, SystemExit)
    assert "route spectral: inf" in result.output
    assert "the spectral route most" in result.output


def strict_json(text):
    """Parse text as strict JSON: Infinity and NaN are errors."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_a_failed_route_is_null_in_strict_json(runner, tmp_path):
    kernel, obs = near_decomposable_files(tmp_path)
    result = runner.invoke(main, ["analyze", "--json", kernel, obs])
    assert result.exit_code == 5
    assert strict_json(result.output.splitlines()[0])["routes"]["spectral"] is None
    result = runner.invoke(main, ["verify", "--json", "--trials", "3", kernel, obs])
    assert result.exit_code == 5
    records = {c["name"]: c for c in strict_json(result.output.splitlines()[0])["checks"]}
    assert records["spectral route"]["residual"] is None
    assert records["spectral route"]["passed"] is False


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


def test_verify_solves_only_the_resolvent_it_records(runner, tmp_path, monkeypatch):
    # two solves for pi, one for the factored-operator route, one resolvent
    kernel, obs = nonreversible_files(tmp_path, 30, 9)
    calls = counting(monkeypatch, np.linalg, "solve")
    result = runner.invoke(main, ["verify", "--json", kernel, obs])
    assert result.exit_code == 0
    records = json.loads(result.output)["checks"]
    assert "resolvent tail" in [r["name"] for r in records]
    assert len(calls) == 4


def birth_death_files(tmp_path, n):
    """Up 0.2, down 0.5, the rest held: pi falls by a factor 0.4 per state."""
    rows = np.zeros((n, n))
    i = np.arange(n - 1)
    rows[i, i + 1] = 0.2
    rows[i + 1, i] = 0.5
    rows[np.arange(n), np.arange(n)] = 1.0 - rows.sum(axis=1)
    return (write_json(tmp_path / "P.json", {"rows": rows.tolist()}),
            write_json(tmp_path / "f.json", np.cos(np.arange(n)).tolist()))


@pytest.mark.parametrize("n, code, failed", [
    (14, 0, []),  # pi_min 4e-6
    # pi_min 1.6e-8: the frame gives eta* only to about 2e-7 here
    (20, 5, ["eta* vanishes (reversible)"]),
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
        ["verify", "--trials", "3", str(six / "P2.json"), str(six / "f1.json")],
        ["compare", str(six / "P1.json"), str(six / "P2.json")],
        ["perturb", str(four / "K.json"), "--gamma", str(four / "vorticity.json")],
        ["simulate", "--n", "1000", str(six / "P2.json"), str(six / "f1.json")],
        ["reproduce-examples"],
    ]
    src = str(Path(mavar.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_GUARD, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    for marker in ("states:", "sigma^2", "shared pi", "perturbed kernel", "estimate:",
                   "20 rows"):
        assert marker in done.stdout
    assert json.loads(done.stdout.splitlines()[-1]) == []

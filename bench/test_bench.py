"""Tests of the benchmark itself: oracle, span arithmetic, traced counts,
seeded inputs and BENCHMARK.json.  Run with `python3 -m pytest bench`."""

import json
import sys

import numpy as np
import pytest

import oracle
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


def test_oracle_reproduces_catalog_exact_values():
    values = workloads.catalog_reference()
    assert values["six-cycle/sigma2(P1,f1)"] == pytest.approx(1 / 3, rel=1e-12)
    assert values["six-cycle/sigma2(P2,f1)"] == pytest.approx(1 / 2, rel=1e-12)
    assert values["six-cycle/sigma2(P1,f2)"] == pytest.approx(1 / 3, rel=1e-12)
    assert values["six-cycle/sigma2(P2,f2)"] == pytest.approx(5 / 18, rel=1e-12)
    np.testing.assert_allclose(values["three-state-pair/stationary"],
                               [3 / 14, 4 / 7, 3 / 14], rtol=1e-12)


def test_catalog_check_names_exist():
    from mavar import catalog

    names = {result.row.name for result in catalog.run_all()}
    assert set(workloads.catalog_reference()) <= names


def _span(name, start, end, parent):
    span = tracing.Span(name, start, parent, 0, 0.0)
    span.end = end
    return span


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("poisson.solve_dual_pair", 1.0, 4.0, 0),
        _span("linalg.eigvals", 2.0, 3.0, 1),
        _span("kernel.validate_kernel", 5.0, 9.0, 0),
        _span("kernel.validate_kernel", 6.0, 8.5, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.5])
    assert tracing.outermost(spans) == [True, True, True, True, False]
    summary = tracing.summarize(spans, jobs=2)
    assert summary["kernel.validate_kernel.calls"] == 1.0
    assert summary["kernel.validate_kernel.s"] == pytest.approx(2.0)  # counted once
    assert summary["kernel.self_s"] == pytest.approx(2.0)
    assert summary["cli.self_s"] == pytest.approx(1.5)
    assert summary["linalg.eigvals.s"] == pytest.approx(0.5)


def test_tail_rank():
    assert run.tail(list(range(1, 25)))[:2] == (14, pytest.approx(100 * 14 / 24))
    assert run.tail([3.0, 1.0, 2.0, 4.0])[0] == 3.0
    assert run.tail([5.0, 6.0]) == (6.0, 100.0, 0)


def test_traced_counts_of_a_nonreversible_verify(tmp_path):
    """Counts do not depend on n; these are the ROADMAP's n=500 figures."""
    import mavar.cli
    import mavar.errors

    job = workloads.Inputs(tmp_path, "t").verify(
        "chain", workloads.positive_chain(np.random.default_rng(0), 20),
        np.random.default_rng(1).standard_normal(20), False, [0], 7)
    tracer = tracing.Tracer(mavar.errors.MavarError)
    original = np.linalg.eigvals
    tracer.install()
    try:
        code, out, err = tracer.root("cli.main", 0, run.call_in_process,
                                     mavar.cli.main, job.args)
    finally:
        tracer.uninstall()
    assert job.check(code, out, err)[0], err
    assert np.linalg.eigvals is original
    summary = tracing.summarize(tracer.spans, jobs=1)
    assert summary["kernel.operator.calls"] == 27
    assert summary["linalg.eigvals.calls"] == 5
    assert summary["linalg.eigvalsh.calls"] == 23
    assert summary["linalg.lu_factor.calls"] == 5
    assert summary["poisson.solve_dual_pair.calls"] == 4
    assert summary["cli.main.calls"] == 1


@pytest.mark.parametrize("name", list(run.RUNNABLE))
def test_inputs_repeat_for_a_seed(tmp_path, name):
    if name == "solve-n1000":
        pytest.skip("n=1000 inputs are slow to write; same code path as the others")
    workload = run.RUNNABLE[name]
    first = [job.args for job in workload.round(0, 5, tmp_path)]
    contents = {p.name: p.read_text() for p in tmp_path.glob("*.json")}
    second = [job.args for job in workload.round(0, 5, tmp_path)]
    assert first == second
    assert contents == {p.name: p.read_text() for p in tmp_path.glob("*.json")}
    workload.round(0, 6, tmp_path)
    assert contents != {p.name: p.read_text() for p in tmp_path.glob("*.json")}


def test_perturbations_are_valid_by_construction():
    rng = np.random.default_rng(3)
    K = workloads.reversible_chain(rng, 30)
    pi = oracle.stationary(K)
    L = workloads.drift(rng, K, pi)
    Q = K + L / pi[:, None]
    off = ~np.eye(30, dtype=bool)
    assert np.all(Q[off] > K[off]) and np.all(np.diag(Q) >= 0)
    np.testing.assert_allclose(pi @ Q, pi, atol=1e-15)
    G = workloads.vorticity(rng, K, pi)
    np.testing.assert_allclose(G.sum(axis=1), 0.0, atol=1e-12)
    weighted = pi[:, None] * G
    np.testing.assert_allclose(weighted, -weighted.T, atol=1e-15)
    assert np.max(np.abs(weighted) / (pi[:, None] * K)) <= 0.9 + 1e-12


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

"""The mavar benchmark: CLI wall clock on seeded workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--out REPORT.json] [--spans SPANS.json]

Run it from the root of a mavar checkout; it runs the package in src/.
NAME is a workload of workloads.py, or `all` to run each workload of
BENCHMARK.json in turn.

--trace 0 runs each job as a fresh CLI process (closed loop, one client,
one job at a time, interpreter start included) and reports the
end-to-end metrics.  --trace 1 runs the same jobs in-process through
mavar.cli.main, once with spans around every layer and once without, and
reports per-job layer metrics; the difference of the two is the tracing
overhead.  Every job's output is checked against oracle.py.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --out writes the full report:
machine, provenance, failures, and every job with its n, reversibility and
seed (untraced) or span counts per command (traced).  --spans writes the
raw spans of a traced run.
"""

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The console script's body, plus an exit hook that records the process's
# own peak resident set.  wait4's ru_maxrss cannot serve: Linux carries the
# parent's peak across fork and exec, so it would report the benchmark's size.
PROGRAM = """import atexit, os, sys
def record_peak():
    with open("/proc/self/status") as status, open(os.environ["BENCH_PEAK_FILE"], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
atexit.register(record_peak)
from mavar.cli import main
sys.exit(main())
"""
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
JOB_TIMEOUT_S = 100.0

RUNNABLE = {**workloads.WORKLOADS, **workloads.EXTRA_WORKLOADS}

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.cpu_s": "s",
    "kernel.stationary_distribution.calls": "count",
    "kernel.stationary_distribution.s": "s",
    "kernel.operator.calls": "count",
    "kernel.operator.s": "s",
    "kernel.spectral_radius_mean_zero.s": "s",
    "kernel.self_s": "s",
    "poisson.solve_dual_pair.calls": "count",
    "poisson.solve_dual_pair.s": "s",
    "poisson.avar_via_factored_operator.s": "s",
    "poisson.avar_spectral.s": "s",
    "poisson.resolvent_curve.s": "s",
    "poisson.variance_form_reduced.calls": "count",
    "poisson.variance_form_reduced.s": "s",
    "poisson.self_s": "s",
    "variational.saddle_point.s": "s",
    "variational.inner_sup.calls": "count",
    "variational.inner_sup.s": "s",
    "variational.factored_operator_inf.s": "s",
    "variational.reversible_inf.s": "s",
    "variational.self_s": "s",
    "ordering.uniform_variance_domination.s": "s",
    "ordering.dirichlet_order.s": "s",
    "ordering.peskun_order.s": "s",
    "ordering.fk_order.s": "s",
    "ordering.self_s": "s",
    "perturb.validate_vorticity.s": "s",
    "perturb.family_alpha.s": "s",
    "perturb.validate_drift.s": "s",
    "perturb.apply_drift.s": "s",
    "perturb.self_s": "s",
    "montecarlo.simulate.s": "s",
    "montecarlo.steps_per_s": "1/s",
    "montecarlo.batch_means_avar.s": "s",
    "catalog.run_all.s": "s",
    **{f"linalg.{name}.{what}": unit
       for name in tracing.LINALG for what, unit in (("calls", "count"), ("s", "s"))},
    "linalg.gflop_computed": "Gflop",
    "linalg.share": "ratio",
    "check.max_rel_err": "ratio",
    "check.error_rate": "ratio",
    "errors.raised": "count",
    "trace.overhead_s": "s",
    "job.inproc_s": "s",
}


# ---------------------------------------------------------------- machine

def provenance() -> dict:
    """git SHA and dirty flag when ROOT is a git work tree, plus a hash of
    the package sources, which also identifies a plain checkout."""
    def git(*args):
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = dirty = None
    top = git("rev-parse", "--show-toplevel")
    if top and Path(top).resolve() == ROOT:
        sha = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain"))
    digest = hashlib.sha256()
    for path in sorted((SRC / "mavar").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "git_dirty": dirty, "src_sha256": digest.hexdigest()[:16]}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS") if k in os.environ}
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "blas": {
            "vendor": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            # no override: jobs run with the thread count users get
            "threads": thread_env or f"library default (one per core: {os.cpu_count()})",
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        **provenance(),
    }


# ---------------------------------------------------------------- processes

@contextlib.contextmanager
def workdir():
    """A private directory for inputs and outputs under the checkout,
    removed on exit."""
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = scratch / str(os.getpid())
    work.mkdir()
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv, env, work, timeout=JOB_TIMEOUT_S):
    """Run argv to completion: (exit code, wall s, stdout, stderr).

    A child still running after `timeout` seconds is killed and reported
    as exit -9.  The wait blocks until the child exits: a wait with a
    timeout polls, and its 50 ms sleeps would round every wall time up.
    """
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(timeout, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
            if child.returncode is None:
                child.kill()
                child.wait()
        wall = time.perf_counter() - start
        watchdog.join()
    return (code, wall, out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"))


def import_wall(env, work) -> float:
    """Wall clock of a fresh interpreter that imports mavar.cli and exits.

    Fails the benchmark unless mavar comes from this checkout's src/.
    """
    code, wall, out, err = run_process(
        [sys.executable, "-c", "import mavar.cli; print(mavar.cli.__file__)"], env, work)
    if code != 0 or Path(out.strip()).resolve().parent.parent != SRC:
        sys.exit(f"error: cannot import mavar from {SRC}: {err.strip()[-300:]}")
    return wall


# ---------------------------------------------------------------- loop

def run_rounds(workload, seed, seconds, work, run_job, before_round=None):
    """Run whole rounds until the next one would end nearer past the deadline
    than this one ended before it.  run_job(job) returns a job record;
    before_round(), if given, runs ahead of each round."""
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        if before_round:
            before_round()
        jobs = workload.round(r, seed, work)
        for job in jobs:
            records.append(run_job(job))
        for path in work.glob("*.json"):
            path.unlink()
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / r >= seconds:
            return records


def checked(job, code, out, err) -> dict:
    try:
        ok, rel_err, reason = job.check(code, out, err)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        ok, rel_err, reason = False, 0.0, f"malformed output: {exc!r}"
    return {**job.record(), "exit": code, "ok": bool(ok), "rel_err": rel_err,
            "reason": reason}


def tail(times):
    """(value, percentile, jobs beyond) of the highest percentile with ten
    jobs beyond it.  Below 20 jobs that percentile would be the median or
    lower, so the 75th percentile stands in."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 10 if n >= 20 else math.ceil(0.75 * n)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def run_end_to_end(workload, seed, seconds, work) -> dict:
    env = program_env()
    import_wall(env, work)  # the first start also compiles the package's bytecode
    # more starts, one ahead of each round, sample the host's speed over the
    # whole run rather than in the first few seconds
    setup = [import_wall(env, work) for _ in range(SETUP_REPEATS)]

    peak = work / "peak_kb"
    env["BENCH_PEAK_FILE"] = str(peak)

    def run_job(job):
        peak.unlink(missing_ok=True)
        code, wall, out, err = run_process([sys.executable, "-c", PROGRAM, *job.args],
                                           env, work)
        rss = int(peak.read_text()) / 1024.0 if peak.exists() else 0.0
        return {**checked(job, code, out, err), "wall_s": wall, "rss_mb": rss}

    records = run_rounds(workload, seed, seconds, work, run_job,
                         before_round=lambda: setup.append(import_wall(env, work)))
    times = [r["wall_s"] for r in records]
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    return {"records": records, "metrics": metrics, "units": END_TO_END,
            "setup_runs_s": setup,
            "job_tail": {"percentile": tail_pct, "jobs": len(times), "beyond": beyond},
            "by_kind_p50_s": {kind: statistics.median(r["wall_s"] for r in records
                                                      if r["kind"] == kind)
                              for kind in sorted({r["kind"] for r in records})}}


# ---------------------------------------------------------------- traced

def import_seconds(env, work) -> float:
    """Interpreter start with `import mavar.cli` minus a bare start (medians)."""
    import_wall(env, work)
    bare = [run_process([sys.executable, "-c", "pass"], env, work)[1]
            for _ in range(IMPORT_REPEATS)]
    full = [import_wall(env, work) for _ in range(IMPORT_REPEATS)]
    return statistics.median(full) - statistics.median(bare)


def call_in_process(main, args):
    """(exit code, stdout, stderr) of one CLI call in this process."""
    import click

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(args), prog_name="mavar", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_traced(workload, seed, seconds, work) -> dict:
    import_s = import_seconds(program_env(), work)
    sys.path.insert(0, str(SRC))
    import mavar.cli
    import mavar.errors

    main = mavar.cli.main
    tracer = tracing.Tracer(mavar.errors.MavarError)
    # first calls load scipy submodules lazily; keep that out of job times
    warm = work / "warm.json"
    warm.write_text(json.dumps({"rows": [[0.5, 0.5], [0.5, 0.5]]}))
    call_in_process(main, ["validate", str(warm)])

    def run_job(job):
        job_id = len(tracer_jobs)
        tracer_jobs.append(job.kind)
        checks, seconds_by_pass = {}, {}
        # alternate which pass runs first, so neither always meets a cold cache
        for traced in ((True, False) if job_id % 2 == 0 else (False, True)):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            if traced:
                tracer.install()
                try:
                    outcome = tracer.root("cli.main", job_id, call_in_process, main, job.args)
                finally:
                    tracer.uninstall()
            else:
                outcome = call_in_process(main, job.args)
                cpu_s = time.process_time() - cpu0
            seconds_by_pass[traced] = time.perf_counter() - t0
            checks[traced] = checked(job, *outcome)
        record = checks[False] if checks[True]["ok"] else checks[True]
        return {**record, "traced_s": seconds_by_pass[True],
                "plain_s": seconds_by_pass[False], "cpu_s": cpu_s}

    tracer_jobs = []
    records = run_rounds(workload, seed, seconds, work, run_job)
    jobs = len(records)
    summary = tracing.summarize(tracer.spans, jobs)
    traced_s = sum(r["traced_s"] for r in records) / jobs
    plain_s = sum(r["plain_s"] for r in records) / jobs
    derived = {
        "cli.import_s": import_s,
        "cli.cpu_s": sum(r["cpu_s"] for r in records) / jobs,
        "montecarlo.steps_per_s": (summary.get("montecarlo.simulate.work", 0.0)
                                   / summary["montecarlo.simulate.s"]
                                   if summary.get("montecarlo.simulate.s") else 0.0),
        "linalg.gflop_computed": sum(summary.get(f"linalg.{name}.work", 0.0)
                                     for name in tracing.LINALG) / 1e9,
        "linalg.share": summary.get("linalg.self_s", 0.0) / traced_s,
        "check.max_rel_err": max(r["rel_err"] for r in records),
        "check.error_rate": sum(not r["ok"] for r in records) / jobs,
        "errors.raised": sum(tracer.errors.values()) / jobs,
        "trace.overhead_s": traced_s - plain_s,
        "job.inproc_s": plain_s,
    }
    metrics = {name: derived.get(name, summary.get(name, 0.0)) for name in PER_LAYER}
    calls = defaultdict(Counter)
    for span in tracer.spans:
        calls[tracer_jobs[span.job]][span.name] += 1
    per_kind = Counter(tracer_jobs)
    errors = defaultdict(Counter)
    for (job_id, name), count in tracer.errors.items():
        errors[tracer_jobs[job_id]][name] += count
    return {
        "records": records, "metrics": metrics, "units": PER_LAYER,
        "calls_per_job_by_kind": {kind: {name: count / per_kind[kind]
                                         for name, count in sorted(counter.items())}
                                  for kind, counter in sorted(calls.items())},
        "errors_by_kind": {kind: dict(counter) for kind, counter in errors.items()},
        "spans": tracer.spans,
    }


# ---------------------------------------------------------------- main

def run_workload(name, seed, seconds, traced, work) -> dict:
    runner = run_traced if traced else run_end_to_end
    report = runner(RUNNABLE[name], seed, seconds, work)
    records = report["records"]
    failures = [r for r in records if not r["ok"]]
    report.update(workload=name, seed=seed, seconds=seconds, trace=int(traced),
                  attempted=len(records), failed=len(failures), failures=failures)
    if traced:
        # thousands of in-process jobs on small-cli; the untraced run lists jobs
        del report["records"]
    for key, value in report["metrics"].items():
        print(f"{name}  {key:<42} {value:.6g} {report['units'][key]}")
    for r in failures:
        print(f"{name}  FAILED {r['kind']} n={r['n']} seed={r['seed']}: {r['reason']}")
    return report


def result_line(metrics, units, attempted, failed) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*RUNNABLE, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, help="write the full report here")
    parser.add_argument("--spans", type=Path, help="write a traced run's spans here")
    args = parser.parse_args(argv)
    if not (SRC / "mavar" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'mavar'} not found; run from the root of a mavar checkout")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    with workdir() as work:
        about = machine()
        reports = [run_workload(name, args.seed, args.seconds, bool(args.trace), work)
                   for name in names]

    if args.spans and args.trace:
        args.spans.write_text(json.dumps({r["workload"]: [s.as_list() for s in r["spans"]]
                                          for r in reports}))
    for r in reports:
        r.pop("spans", None)
    if args.out:
        args.out.write_text(json.dumps({"machine": about, "reports": reports}, indent=1)
                            + "\n")
    if len(reports) == 1:
        r = reports[0]
        print(result_line(r["metrics"], r["units"], r["attempted"], r["failed"]))
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
        units = {f"{r['workload']}.{k}": u for r in reports for k, u in r["units"].items()}
        print(result_line(metrics, units, sum(r["attempted"] for r in reports),
                          sum(r["failed"] for r in reports)))


if __name__ == "__main__":
    main()

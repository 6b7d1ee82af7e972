"""Compare the CLI's outputs between two source trees.

    python tests/output_corpus.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the `src` directories of two checkouts.  The script
writes seeded inputs to a temporary directory: chains from
tests/generators.py, the test chains of ROADMAP.md ("rev eps", "nonrev eps",
the "rev 1e-6" chain with an observable of +-1e306 by block), a reducible
kernel, two blocks coupled at 1e-13 and the fixtures of
`reproduce-examples --dump-fixtures`.  It runs every job once against each
tree, in a fresh interpreter with OPENBLAS_NUM_THREADS=1, and prints each
job whose exit code, stdout or stderr differs (a tree's own path in a
message is read as SRC).  Exits 1 if any job differs, else 0.

Pytest does not collect this file; it is a tool for reviewing a change
that should keep every output, and lists the jobs a change does move.
"""

import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np

PROGRAM = "from mavar.cli import main; main()"


def write(work, name, payload):
    """Write payload as JSON to work/name; the name, as the jobs run in work."""
    (work / name).write_text(json.dumps(payload))
    return name


def is_kernel(path):
    payload = json.loads(path.read_text())
    return isinstance(payload, dict) and "rows" in payload


def nonreversible_two_blocks(eps):
    """Two 10-state blocks from one default_rng(5), every cross-block entry eps."""
    rng = np.random.default_rng(5)
    rows = np.full((20, 20), eps)
    rows[:10, :10], rows[10:, 10:] = rng.random((10, 10)), rng.random((10, 10))
    return rows / rows.sum(axis=1, keepdims=True), np.repeat([1.0, -1.0], 10)


def both_formats(*args):
    return [list(args), [args[0], "--json", *args[1:]]]


def build_jobs(work, src):
    """Every job's argv, over inputs written under work with the mavar in src."""
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    from generators import (
        random_centered_observable,
        random_drift,
        random_irreducible_kernel,
        random_reversible_kernel,
        reversible_two_blocks,
    )
    from mavar import apply_drift, catalog, stationary_distribution

    jobs = []
    for n in (40, 500):
        for seed in (0, 3):
            rng = np.random.default_rng(seed)
            K, pi = random_reversible_kernel(n, rng)
            Q = apply_drift(K, pi, random_drift(K, pi, rng))
            N = random_irreducible_kernel(n, rng)
            tag = f"n{n}-s{seed}"
            files = {name: write(work, f"{tag}-{name}.json", {"rows": M.tolist()})
                     for name, M in (("K", K), ("Q", Q), ("N", N))}
            fK = write(work, f"{tag}-fK.json", random_centered_observable(pi, rng).tolist())
            fN = write(work, f"{tag}-fN.json", random_centered_observable(
                stationary_distribution(N), rng).tolist())
            for command in ("analyze", "verify"):
                for kernel, f in ((files["K"], fK), (files["N"], fN)):
                    jobs += both_formats(command, kernel, f)
            jobs += both_formats("compare", files["K"], files["Q"])
            if n == 40:
                jobs.append(["simulate", "--json", "--n", "20000", files["N"], fN])
    for label, chain in (("rev", reversible_two_blocks), ("nonrev", nonreversible_two_blocks)):
        for eps in (1e-14, 1e-8, 1e-6):
            rows, f = chain(eps)
            kernel = write(work, f"{label}-{eps}.json", {"rows": rows.tolist()})
            obs = write(work, f"{label}-{eps}-f.json", f.tolist())
            for command in ("analyze", "verify"):
                jobs += both_formats(command, "--center", kernel, obs)
    # phi itself overflows float64 here, not only sigma^2
    rows, f = reversible_two_blocks(1e-6)
    kernel = write(work, "rev-huge.json", {"rows": rows.tolist()})
    huge = write(work, "rev-huge-f.json", (1e306 * f).tolist())
    jobs += [["analyze", "--center", kernel, huge],
             ["verify", "--center", kernel, huge]]
    jobs += both_formats("simulate", "--n", "100", kernel, huge)
    # no analytic value for simulate: a reducible kernel and a degenerate one
    reducible = write(work, "identity.json", {"rows": [[1.0, 0.0], [0.0, 1.0]]})
    pair = write(work, "identity-f.json", [1.0, -1.0])
    on, off = 0.5 - 0.5e-13, 0.5e-13
    coupled = write(work, "coupled-1e-13.json", {"rows": [
        [on, on, off, off], [on, on, off, off], [off, off, on, on], [off, off, on, on]]})
    alternating = write(work, "coupled-1e-13-f.json", [1.0, -1.0, 1.0, -1.0])
    jobs += both_formats("simulate", "--n", "100", reducible, pair)
    jobs += both_formats("simulate", "--n", "100", coupled, alternating)
    zero = write(work, "zero-drift.json", {"kind": "drift", "matrix": [[0.0, 0.0]] * 2})
    jobs += [["compare", reducible, reducible], ["perturb", reducible, "--lambda", zero]]
    signed = write(work, "signed-zeros.json",
                   {"rows": [[0.5, 0.5, -0.0], [0.25, 0.5, 0.25], [-0.0, 0.5, 0.5]]})
    other = write(work, "signed-zeros-Q.json",
                  {"rows": [[0.25, 0.75, -0.0], [0.375, 0.25, 0.375], [-0.0, 0.75, 0.25]]})
    line = write(work, "signed-zeros-f.json", [1.0, -0.0, -1.0])
    for command in ("analyze", "verify"):
        jobs += both_formats(command, signed, line)
    jobs += both_formats("compare", signed, other)
    jobs += both_formats("reproduce-examples")
    catalog.dump_fixtures(work / "fixtures")
    for directory in sorted(p for p in (work / "fixtures").iterdir() if p.is_dir()):
        kernels = sorted(str(p.relative_to(work)) for p in directory.glob("*.json")
                         if is_kernel(p))
        for a, b in combinations(kernels, 2):
            jobs += both_formats("compare", a, b) + both_formats("compare", b, a)
    for alpha in ([], ["--alpha", "1"], ["--alpha", "0.5"]):
        jobs.append(["perturb", "fixtures/tridiag-drift/K.json",
                     "--lambda", "fixtures/tridiag-drift/drift.json", *alpha])
        jobs.append(["perturb", "--json", "fixtures/four-cycle-lift/K.json",
                     "--gamma", "fixtures/four-cycle-lift/vorticity.json", *alpha])
    return jobs


def run(src, argv, work):
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", PROGRAM, *argv], capture_output=True,
                          text=True, env=env, cwd=work)
    return done.returncode, done.stdout.replace(str(src), "SRC"), done.stderr.replace(
        str(src), "SRC")


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    old, new = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        jobs = build_jobs(work, new)
        differ = 0
        for args in jobs:
            before, after = run(old, args, work), run(new, args, work)
            if before != after:
                differ += 1
                print("DIFFERS: mavar " + " ".join(args))
                for field, a, b in zip(("exit", "stdout", "stderr"), before, after):
                    if a != b:
                        print(f"  old {field}: {str(a).strip()[-300:]!r}")
                        print(f"  new {field}: {str(b).strip()[-300:]!r}")
        print(f"{differ} of {len(jobs)} jobs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

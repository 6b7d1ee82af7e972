"""Seeded inputs, jobs and output checks for each benchmark workload.

Inputs come from this file's own numpy code, never from mavar.generators,
so a change to the package cannot change a workload.  Every job gets its
inputs as files; its expected output comes from oracle.py.

A workload is a sequence of rounds.  A round is the smallest balanced mix
of its jobs (for example one reversible and one non-reversible chain), and
the runner always completes whole rounds, so per-job means and counts do
not depend on how many rounds fit in a run.
"""

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle

REL_TOL = 1e-9
# Batch-means deviation beyond which a simulated estimate is wrong rather
# than unlucky; the chains mix in a step or two, so this is ~1e-15 likely.
MAX_DEVIATION_SIGMAS = 8.0


@dataclass
class Job:
    kind: str
    args: list
    n: int
    reversible: bool | None
    seed: list
    # (exit code, stdout, stderr) -> (ok, worst relative error, reason)
    check: Callable = field(repr=False)

    def record(self) -> dict:
        return {"kind": self.kind, "n": self.n, "reversible": self.reversible,
                "seed": self.seed}


def rng_for(seed: int, workload: int, unit: int):
    entropy = [seed % 2**64, workload, unit]
    return entropy, np.random.default_rng(entropy)


# ---------------------------------------------------------------- chains

def positive_chain(rng, n):
    """Strictly positive random rows: irreducible, aperiodic, non-reversible."""
    rows = rng.random((n, n)) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


def reversible_chain(rng, n):
    """Random walk on symmetric positive edge weights."""
    w = rng.uniform(0.2, 1.0, size=(n, n))
    w = 0.5 * (w + w.T)
    return w / w.sum(axis=1, keepdims=True)


def two_block_chain(rng, m, coupling):
    """Two positive m-state blocks joined by total coupling mass per row."""
    P = np.zeros((2 * m, 2 * m))
    P[:m, :m] = positive_chain(rng, m)
    P[m:, m:] = positive_chain(rng, m)
    P[:m, m:] = coupling / m
    P[m:, :m] = coupling / m
    P[np.arange(2 * m), np.arange(2 * m)] -= coupling
    return P


def drift(rng, P, pi, share=0.5):
    """A pi-weighted drift Lambda for a reversible P.

    Lambda is symmetric with zero row sums and positive off-diagonal
    entries, and Lambda_ii uses `share` of the holding mass pi_i P_ii, so
    P + diag(pi)^-1 Lambda is a kernel that is Peskun-above P by
    construction.
    """
    L = rng.random(P.shape)
    L = 0.5 * (L + L.T)
    np.fill_diagonal(L, 0.0)
    L *= share * np.min(pi * np.diag(P) / L.sum(axis=1))
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def vorticity(rng, P, pi, density=0.9):
    """A kernel-level vorticity Gamma for P: zero row sums, diag(pi) Gamma
    antisymmetric, and |pi_i Gamma_ij| / (pi_i P_ij) at most `density`."""
    n = P.shape[0]
    B = rng.standard_normal((n, n))
    B = B - B.T
    r = B.sum(axis=1)
    B -= (r[:, None] - r[None, :]) / n
    B *= density / np.max(np.abs(B) / (pi[:, None] * P))
    return B / pi[:, None]


# ---------------------------------------------------------------- checks

def _verdict(errors: dict, conditions: dict):
    worst = max(errors.values(), default=0.0)
    bad = [name for name, err in errors.items() if not err <= REL_TOL]
    bad += [name for name, ok in conditions.items() if not ok]
    return not bad, worst, ", ".join(bad)


def _expect_json(check):
    """Wrap a check of a parsed JSON report; exit code must be 0."""
    def run(code, out, err):
        if code != 0:
            return False, 0.0, f"exit {code}: {err.strip()[-200:]}"
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return False, 0.0, "stdout is not JSON"
        return _verdict(*check(report))
    return run


def _expect_exit(code_wanted):
    def run(code, out, err):
        ok = code == code_wanted and "error:" in err
        return ok, 0.0, "" if ok else f"exit {code}, want {code_wanted}"
    return run


# ---------------------------------------------------------------- inputs

class Inputs:
    """Writes one round's input files and builds its jobs."""

    def __init__(self, work, tag):
        self.work = work
        self.tag = tag

    def write(self, name, payload) -> str:
        path = self.work / f"{self.tag}-{name}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def kernel(self, name, P) -> str:
        return self.write(name, {"n": int(P.shape[0]), "rows": P.tolist()})

    # -- one method per job type; each returns a Job

    def analyze(self, name, P, f, reversible, seed):
        pi = oracle.stationary(P)
        f = oracle.centered(f, pi)
        _, sigma2, avar = oracle.poisson(P, pi, f)
        routes = {"dual-pair", "factored-operator"} | ({"spectral"} if reversible else set())

        def check(rep):
            errors = {"sigma2": oracle.rel_err(rep["sigma2"], sigma2),
                      "avar": oracle.rel_err(rep["avar"], avar),
                      "pi": oracle.rel_err(rep["pi"], pi)}
            errors.update({f"route {k}": oracle.rel_err(v, sigma2)
                           for k, v in rep["routes"].items()})
            return errors, {"reversible flag": rep["reversible"] == reversible,
                            "routes run": set(rep["routes"]) == routes,
                            "routes agree": rep["routes_agree"] is True}

        args = ["analyze", self.kernel(name, P), self.write(name + "-f", f.tolist()),
                "--json"]
        return Job(_kind("analyze", reversible), args, P.shape[0], reversible, seed,
                   _expect_json(check))

    def verify(self, name, P, f, reversible, seed, check_seed):
        pi = oracle.stationary(P)
        f = oracle.centered(f, pi)
        _, sigma2, _ = oracle.poisson(P, pi, f)

        def check(rep):
            return ({"sigma2": oracle.rel_err(rep["sigma2"], sigma2)},
                    {"all_pass": rep["all_pass"] is True,
                     "seed echoed": rep["seed"] == check_seed})

        args = ["verify", self.kernel(name, P), self.write(name + "-f", f.tolist()),
                "--seed", str(check_seed), "--json"]
        return Job(_kind("verify", reversible), args, P.shape[0], reversible, seed,
                   _expect_json(check))

    def compare(self, name, K, rng, seed):
        """compare K against a drift perturbation of it (K reversible)."""
        pi = oracle.stationary(K)
        Q = K + drift(rng, K, pi) / pi[:, None]

        def check(rep):
            return ({"pi": oracle.rel_err(rep["pi"], pi)},
                    {"peskun forward": rep["peskun"]["forward"]["holds"] is True,
                     "peskun reverse fails": rep["peskun"]["reverse"]["holds"] is False,
                     "domination forward": rep["domination"]["forward"]["holds"] is True})

        args = ["compare", self.kernel(name, K), self.kernel(name + "-drift", Q), "--json"]
        return Job("compare", args, K.shape[0], True, seed, _expect_json(check))

    def simulate(self, name, P, f, steps, seed, sim_seed):
        pi = oracle.stationary(P)
        _, _, avar = oracle.poisson(P, pi, oracle.centered(f, pi))
        batch_len = max(1, round(np.sqrt(steps + 1)))

        def check(rep):
            return ({"analytic_avar": oracle.rel_err(rep["analytic_avar"], avar)},
                    {"batches": rep["n_batches"] == (steps + 1) // batch_len,
                     "seed echoed": rep["seed"] == sim_seed,
                     "estimate near avar":
                         rep.get("deviation_sigmas", np.inf) < MAX_DEVIATION_SIGMAS})

        args = ["simulate", self.kernel(name, P), self.write(name + "-f", f.tolist()),
                "--n", str(steps), "--seed", str(sim_seed), "--json"]
        return Job("simulate", args, P.shape[0], False, seed, _expect_json(check))


def _kind(command, reversible):
    return f"{command}-{'rev' if reversible else 'nonrev'}"


# ---------------------------------------------------------------- workloads

class Workload:
    name = ""
    index = 0  # part of every input seed, so workloads never share inputs

    def round(self, r: int, seed: int, work) -> list:
        raise NotImplementedError


class SolveN1000(Workload):
    """One analyze per fresh dense chain at n=1000, alternating
    non-reversible and reversible chains (the spectral route runs on the
    latter).  The O(n^3) kernel, poisson and LAPACK work dominates."""

    name = "solve-n1000"
    index = 0
    n = 1000

    def round(self, r, seed, work):
        jobs = []
        for k in (2 * r, 2 * r + 1):
            entropy, rng = rng_for(seed, self.index, k)
            reversible = k % 2 == 1
            P = reversible_chain(rng, self.n) if reversible else positive_chain(rng, self.n)
            f = rng.standard_normal(self.n)
            jobs.append(Inputs(work, f"j{k}").analyze("chain", P, f, reversible, entropy))
        return jobs


class BatteryN500(Workload):
    """verify and compare on a reversible chain, verify on a non-reversible
    one, at n=500: many queries per chain, and the only workload where the
    variational and ordering layers do real work."""

    name = "battery-n500"
    index = 1
    n = 500

    def round(self, r, seed, work):
        # two verifies to one compare, so the median job is a verify and
        # does not sit in the gap between the two commands' times
        entropy, rng = rng_for(seed, self.index, r)
        inputs = Inputs(work, f"b{r}")
        K = reversible_chain(rng, self.n)
        P = positive_chain(rng, self.n)
        return [
            inputs.verify("rev", K, rng.standard_normal(self.n), True, entropy,
                          int(rng.integers(2**31))),
            inputs.compare("compare", K, rng, entropy),
            inputs.verify("nonrev", P, rng.standard_normal(self.n), False, entropy,
                          int(rng.integers(2**31))),
        ]


class SimulateMC(Workload):
    """simulate 10^6 steps on a fresh n=200 chain per job.  The Python step
    loop of the montecarlo layer dominates; the analytic solve is small."""

    name = "simulate-mc"
    index = 2
    n = 200
    steps = 1_000_000

    def round(self, r, seed, work):
        entropy, rng = rng_for(seed, self.index, r)
        P = positive_chain(rng, self.n)
        f = rng.standard_normal(self.n)
        sim_seed = int(rng.integers(2**31))
        return [Inputs(work, f"s{r}").simulate("chain", P, f, self.steps, entropy,
                                               sim_seed)]


class SmallCli(Workload):
    """Every command, and one input per documented error exit, at n <= 50.
    Linear algebra is nearly free; interpreter start, imports, JSON and
    click dominate, so any added per-call overhead shows here."""

    name = "small-cli"
    index = 3
    n = 50

    def round(self, r, seed, work):
        entropy, rng = rng_for(seed, self.index, r)
        inputs = Inputs(work, f"c{r}")
        n = self.n
        jobs = [self._catalog(entropy)]

        P = positive_chain(rng, n)
        pi = oracle.stationary(P)

        def check_validate(rep):
            return ({"pi": oracle.rel_err(rep["pi"], pi)},
                    {"n": rep["n"] == n, "irreducible": rep["irreducible"] is True,
                     "reversible flag": rep["reversible"] is False})

        jobs.append(Job("validate", ["validate", inputs.kernel("validate", P), "--json"],
                        n, False, entropy, _expect_json(check_validate)))

        K = reversible_chain(rng, n)
        jobs.append(inputs.analyze("analyze", K, rng.standard_normal(n), True, entropy))
        jobs.append(inputs.verify("verify", positive_chain(rng, n),
                                  rng.standard_normal(n), False, entropy,
                                  int(rng.integers(2**31))))
        jobs.append(inputs.compare("compare", K, rng, entropy))

        piK = oracle.stationary(K)
        kfile = inputs.kernel("base", K)
        alpha = float(rng.uniform(-1.0, 1.0))
        gamma = vorticity(rng, K, piK)
        jobs.append(self._perturb(inputs, kfile, "vorticity", gamma, K + alpha * gamma,
                                  ["--alpha", repr(alpha)], entropy))
        lam = drift(rng, K, piK)
        jobs.append(self._perturb(inputs, kfile, "drift", lam, K + lam / piK[:, None],
                                  [], entropy))

        jobs.append(inputs.simulate("simulate", positive_chain(rng, n),
                                    rng.standard_normal(n), 20_000, entropy,
                                    int(rng.integers(2**31))))

        # typed error exits, one per documented code
        m = 6
        uncentered = rng.standard_normal(n) + 1.0
        jobs.append(Job("error-uncentered",
                        ["analyze", kfile, inputs.write("uncentered", uncentered.tolist())],
                        n, True, entropy, _expect_exit(2)))
        reducible = two_block_chain(rng, m, 0.0)
        f2m = inputs.write("f2m", rng.standard_normal(2 * m).tolist())
        jobs.append(Job("error-reducible",
                        ["analyze", inputs.kernel("reducible", reducible), f2m, "--center"],
                        2 * m, False, entropy, _expect_exit(3)))
        coupled = two_block_chain(rng, m, 1e-13)
        jobs.append(Job("error-degenerate",
                        ["analyze", inputs.kernel("coupled", coupled), f2m, "--center"],
                        2 * m, False, entropy, _expect_exit(4)))
        jobs.append(Job("error-pi-mismatch",
                        ["compare", kfile, inputs.kernel("other", positive_chain(rng, n))],
                        n, False, entropy, _expect_exit(6)))
        return jobs

    @staticmethod
    def _perturb(inputs, kfile, kind, matrix, expected, extra, entropy):
        path = inputs.write(kind, {"kind": kind, "matrix": matrix.tolist()})
        flags = ["--gamma" if kind == "vorticity" else "--lambda", path, *extra]

        def check(rep):
            return ({"rows": oracle.rel_err(rep["rows"], expected)},
                    {"n": rep["n"] == expected.shape[0]})

        return Job(f"perturb-{kind}", ["perturb", kfile, *flags, "--json"],
                   expected.shape[0], False, entropy, _expect_json(check))

    @staticmethod
    def _catalog(entropy):
        """reproduce-examples, with the six-cycle variances and the
        three-state stationary law checked against the oracle."""
        expected = catalog_reference()

        def check(rep):
            rows = {row["name"]: row for row in rep["rows"]}
            errors = {name: oracle.rel_err(rows[name]["computed"], value)
                      for name, value in expected.items()}
            return errors, {"all_pass": rep["all_pass"] is True,
                            "no FAIL row": all(r["verdict"] != "FAIL" for r in rep["rows"])}

        return Job("reproduce-examples", ["reproduce-examples", "--json"], 6, None,
                   entropy, _expect_json(check))


def catalog_reference() -> dict:
    """Oracle values for catalog rows, from the benchmark's own copies of
    the inputs: a lazy clockwise walk P1 and a symmetric walk P2 on a
    six-cycle with f1 = e2 - e5 and f2 = e0 - e1, and a three-state kernel."""
    n = 6
    P1 = np.zeros((n, n))
    P2 = np.zeros((n, n))
    for i in range(n):
        P1[i, i] = P1[i, (i + 1) % n] = 0.5
        P2[i, (i + 1) % n] = P2[i, (i - 1) % n] = 0.5
    f1 = np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0])
    f2 = np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    values = {}
    for pname, P in (("P1", P1), ("P2", P2)):
        pi = oracle.stationary(P)
        for fname, f in (("f1", f1), ("f2", f2)):
            values[f"six-cycle/sigma2({pname},{fname})"] = oracle.poisson(P, pi, f)[1]
    three = np.array([[1 / 3, 1 / 3, 1 / 3], [1 / 4, 1 / 2, 1 / 4], [0.0, 1.0, 0.0]])
    values["three-state-pair/stationary"] = oracle.stationary(three)
    return values


WORKLOADS = {w.name: w for w in (BatteryN500(), SmallCli())}
# Runnable by name but not in BENCHMARK.json: on a shared 2-vCPU host,
# Python-bound jobs need 50-second runs for steady figures, and four
# workloads at that length do not fit the time a full check of the
# benchmark may take (see README.md, "Machine and noise").
EXTRA_WORKLOADS = {w.name: w for w in (SolveN1000(), SimulateMC())}

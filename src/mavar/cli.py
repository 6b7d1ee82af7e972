"""Command-line interface: read the inputs, call the library, render.

The input files are read by mavar.files, which raises the input error
classes with a message naming the file; a command resolves the tolerance,
pi and the observable's centering itself.

analyze and verify render mavar.checks: the routes and the verify battery
are computed there, and a command only prints them and picks the exit code.
Every --json report is strict JSON: a non-finite float (a failed route) is null.

Exit codes: 0 success, 2 parse or validation error (including a NaN or
infinite input, a variance that overflows or underflows float64, and a zero
variance in verify, whose variational formula for 1/sigma^2 needs
sigma^2 > 0; an observable that centering cannot tell from a constant is
zero), 3 reducible kernel, 4 degenerate kernel (Poisson equation
unsolvable), 5 route or identity disagreement, 6 stationary-distribution
mismatch, 7 unexplained fixture deviation.  A library error that escapes a
command gets its code from one table keyed by error class, EXIT_CODES,
applied once by the command group, so every command maps an error the same
way (a degenerate pair exits 4 from compare as from analyze).  The
MAVAR_TOL environment variable overrides the default validation tolerance,
which reaches only what a command validates and reproduce-examples'
pass/fail threshold; an explicit --tol flag wins over both, and either must
be positive and finite.
"""

import atexit
import gc
import json
import math
import os
import sys

import click
import numpy as np

# Every command reads a kernel, so errors, files and kernel load here.  The
# other layers are bound lazily by mavar/__init__ and reached as module
# attributes inside the commands, so a command runs only the layers it calls.
from . import __version__, catalog, checks, montecarlo, ordering, poisson
from . import perturb as perturbation
from .errors import (
    DegenerateKernelError,
    KernelError,
    MavarError,
    NumericalFailureError,
    ObservableError,
    PerturbationError,
    ReducibleError,
    SimulationError,
    StationaryMismatchError,
)
from .files import kernel_document, read_kernel, read_observable, read_perturbation
from .kernel import (
    DEFAULT_TOL,
    ReducedChain,
    centered,
    is_irreducible,
    is_reversible,
    stationary_distribution,
    stationary_residual,
)

# The interpreter's exit ends with a full collection, ~40 ms spent walking and
# freeing the ~24,000 objects numpy, click and mavar create at import, memory
# the OS reclaims anyway.  Freezing every object first makes that collection
# skip them.  atexit runs its hooks last in, first out, so one registered
# before this import still runs, after the freeze.  A frozen object in a
# reference cycle is never finalized, so a command closes every file it
# writes before it returns; click.echo flushes each line it prints.
atexit.register(gc.freeze)

EXIT_PARSE = 2
EXIT_REDUCIBLE = 3
EXIT_DEGENERATE = 4
EXIT_ROUTES = 5
EXIT_STATIONARY = 6
EXIT_FIXTURE = 7

# exit code of a library error: the entry of its most specific listed class.
# Every class of mavar.errors is listed here or caught by name; the input
# classes exit 2 as any other MavarError does.
EXIT_CODES = {
    ReducibleError: EXIT_REDUCIBLE,
    DegenerateKernelError: EXIT_DEGENERATE,
    StationaryMismatchError: EXIT_STATIONARY,
    KernelError: EXIT_PARSE,
    ObservableError: EXIT_PARSE,
    PerturbationError: EXIT_PARSE,
    SimulationError: EXIT_PARSE,
    MavarError: EXIT_PARSE,
}


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _fmt_vec(values) -> str:
    return " ".join(_fmt(v) for v in np.asarray(values, dtype=float))


def _echo_json(payload):
    """Print payload as strict JSON: a non-finite float (a failed route) is null."""
    def strict(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {key: strict(value) for key, value in x.items()}
        if isinstance(x, list):
            return [strict(value) for value in x]
        return x

    click.echo(json.dumps(strict(payload), allow_nan=False))


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _resolve_tol(tol):
    if tol is None:
        env = os.environ.get("MAVAR_TOL")
        if env is None:
            return DEFAULT_TOL
        try:
            tol = float(env)
        except ValueError:
            _fail(EXIT_PARSE, f"MAVAR_TOL = {env!r} is not a number")
    if not 0.0 < tol < np.inf:  # written so that NaN fails too
        _fail(EXIT_PARSE, f"tolerance must be positive and finite, got {tol}")
    return tol


def _resolve_pi(kernel, embedded):
    if embedded is not None:
        return embedded
    try:
        return stationary_distribution(kernel)
    except NumericalFailureError as exc:
        # an irreducible kernel whose stationary solve still fails is, for all
        # practical purposes, numerically decoupled
        raise DegenerateKernelError(f"stationary solve failed: {exc}") from exc


def _resolve_observable(f, pi, tol, center):
    mean = float(pi @ f)
    if abs(mean) <= tol * float(np.max(np.abs(f), initial=0.0)):
        # a mean below tol relative to f is treated as noise and removed quietly
        return centered(f, pi), False
    if center:
        click.echo(f"note: centering observable (pi-mean was {_fmt(mean)})", err=True)
        return centered(f, pi), True
    _fail(EXIT_PARSE, f"observable has pi-mean {mean}; pass --center to subtract it")


def _load_analysis(kernel_file, observable_file, tol, center):
    """The start of analyze and verify: (f, centered?, chain)."""
    kernel, embedded = read_kernel(kernel_file, tol)
    if not is_irreducible(kernel):
        raise ReducibleError("kernel is reducible")
    pi = _resolve_pi(kernel, embedded)
    raw = read_observable(observable_file, len(kernel))
    f, was_centered = _resolve_observable(raw, pi, tol, center)
    return f, was_centered, ReducedChain(kernel, pi)


class _Group(click.Group):
    """Exits with EXIT_CODES' code for a library error escaping a command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MavarError as exc:
            _fail(next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES),
                  str(exc))


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="mavar")
def main():
    """Asymptotic variance of finite-state Markov chains."""


@main.command()
@click.argument("kernel_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=None, help="validation tolerance")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def validate(kernel_file, tol, as_json):
    """Check stochasticity and irreducibility of a kernel file."""
    tol = _resolve_tol(tol)
    kernel, embedded = read_kernel(kernel_file, tol)
    irreducible = is_irreducible(kernel)
    info = {"n": len(kernel), "valid": True, "irreducible": irreducible}
    if irreducible:
        pi = _resolve_pi(kernel, embedded)
        info["pi"] = pi.tolist()
        info["reversible"] = is_reversible(kernel, pi)
    if as_json:
        _echo_json(info)
    else:
        click.echo(f"states: {len(kernel)}")
        click.echo("row sums: within tolerance")
        click.echo(f"irreducible: {'yes' if irreducible else 'no'}")
        if irreducible:
            click.echo(f"pi: {_fmt_vec(info['pi'])}")
            click.echo(f"reversible: {'yes' if info['reversible'] else 'no'}")
    if not irreducible:
        sys.exit(EXIT_REDUCIBLE)


@main.command()
@click.argument("kernel_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("observable_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--center", is_flag=True, help="subtract the pi-mean first")
@click.option("--tol", type=float, default=None, help="validation tolerance")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def analyze(kernel_file, observable_file, center, tol, as_json):
    """Solve the Poisson equation and report the variance by every route."""
    tol = _resolve_tol(tol)
    f, was_centered, chain = _load_analysis(kernel_file, observable_file, tol, center)
    sol, routes, records = checks.routes(chain, f)
    agree = all(r["passed"] for r in records)
    # the mean-zero spectral radius; a reversible chain's spectral route
    # filled the spectrum
    radius = float(np.max(np.abs(chain.spectrum)))
    report = {
        "n": chain.m + 1,
        "reversible": chain.reversible,
        "spectral_radius_mean_zero": radius,
        "pi": chain.pi.tolist(),
        "centered_applied": was_centered,
        "phi": sol.phi.tolist(),
        "phi_star": sol.phi_star.tolist(),
        "sigma2": sol.sigma2,
        "avar": sol.avar,
        "routes": routes,
        "routes_agree": agree,
    }
    if as_json:
        _echo_json(report)
    else:
        click.echo(f"states: {chain.m + 1}")
        click.echo(f"reversible: {'yes' if chain.reversible else 'no'}")
        click.echo(f"spectral radius (mean-zero): {_fmt(radius)}")
        click.echo(f"pi: {_fmt_vec(chain.pi)}")
        click.echo(f"phi: {_fmt_vec(sol.phi)}")
        click.echo(f"phi*: {_fmt_vec(sol.phi_star)}")
        click.echo(f"sigma^2: {_fmt(sol.sigma2)}")
        click.echo(f"avar: {_fmt(sol.avar)}")
        for name, value in routes.items():
            click.echo(f"route {name}: {_fmt(value)}")
        click.echo(f"routes agree within {poisson.ROUTE_TOL:g}: {'yes' if agree else 'no'}")
    if not agree:
        # the route furthest from the dual pair, or else the failed solution record
        worst = max((r for r in records if not r["passed"]),
                    key=lambda r: (r["name"].endswith(" route"), r["residual"]))
        _fail(EXIT_ROUTES, f"variance routes disagree: the {worst['name']} is "
                           f"{worst['residual']} from the dual pair (values {routes})")


def _order_line(label, report):
    state = "holds" if report.holds else "fails"
    line = f"{label}: {state} (margin {_fmt(report.margin)})"
    if isinstance(report.witness, np.ndarray):
        line += f" witness f = {_fmt_vec(report.witness)}"
    elif report.witness is not None:
        line += f" witness entry {report.witness}"
    return line


@main.command()
@click.argument("kernel_file_1", type=click.Path(exists=True, dir_okay=False))
@click.argument("kernel_file_2", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=None, help="validation tolerance")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def compare(kernel_file_1, kernel_file_2, tol, as_json):
    """Report the four kernel orders, uniform variance domination included."""
    tol = _resolve_tol(tol)
    k1, pi1 = read_kernel(kernel_file_1, tol)
    k2, pi2 = read_kernel(kernel_file_2, tol)
    pi = _resolve_pi(k1, pi1 if pi1 is not None else pi2)
    # order_pairs checks that the sizes match and that both kernels keep pi
    orders = ordering.order_pairs(k1, k2, pi)
    if as_json:
        report = {
            name: {"forward": fwd.as_dict(), "reverse": rev.as_dict()}
            for name, (fwd, rev) in orders.items()
        }
        report["pi"] = pi.tolist()
        _echo_json(report)
        return
    click.echo(f"shared pi: {_fmt_vec(pi)}")
    for name, (fwd, rev) in orders.items():
        click.echo(_order_line(f"{name} 1->2", fwd))
        click.echo(_order_line(f"{name} 2->1", rev))


@main.command()
@click.argument("kernel_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--gamma", "gamma_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="vorticity perturbation file")
@click.option("--lambda", "lam_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="drift perturbation file")
@click.option("--alpha", type=float, default=1.0,
              help="vorticity interpolation parameter in [-1, 1]")
@click.option("--tol", type=float, default=None, help="validation tolerance")
@click.option("--json", "as_json", is_flag=True, help="emit the kernel as JSON")
def perturb(kernel_file, gamma_path, lam_path, alpha, tol, as_json):
    """Apply a vorticity or drift perturbation to a reversible kernel."""
    tol = _resolve_tol(tol)
    if (gamma_path is None) == (lam_path is None):
        _fail(EXIT_PARSE, "pass exactly one of --gamma or --lambda")
    kernel, embedded = read_kernel(kernel_file, tol)
    pi = _resolve_pi(kernel, embedded)
    want = "vorticity" if gamma_path else "drift"
    matrix = read_perturbation(gamma_path or lam_path, want)
    tol = min(tol, DEFAULT_TOL)  # the library rechecks at DEFAULT_TOL: --tol only tightens
    diagnostics = {}
    if want == "vorticity":
        gamma = perturbation.validate_vorticity(kernel, pi, matrix, tol)
        result = perturbation.family_alpha(kernel, pi, gamma, alpha)
        h, _ = perturbation._density(kernel, pi, gamma)
        diagnostics["max_density"] = float(np.max(np.abs(alpha * h)))
        diagnostics["alpha"] = alpha
    else:
        if alpha != 1.0:
            _fail(EXIT_PARSE, "--alpha applies only to vorticity perturbations")
        drift = perturbation.validate_drift(kernel, pi, matrix, tol)
        result = perturbation.apply_drift(kernel, pi, drift)
        diagnostics["peskun_margin"] = ordering.peskun_order(kernel, result, pi).margin
    diagnostics["stationary_residual"] = stationary_residual(result, pi)
    if as_json:
        _echo_json({**kernel_document(result, pi), "diagnostics": diagnostics})
    else:
        click.echo(f"perturbed kernel ({want}, {len(kernel)} states):")
        for row in result:
            click.echo("  " + _fmt_vec(row))
        for key, value in diagnostics.items():
            click.echo(f"{key}: {_fmt(value)}")


@main.command()
@click.argument("kernel_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("observable_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--center", is_flag=True, help="subtract the pi-mean first")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              help="seed of random.Random for the random test functions")
@click.option("--trials", type=click.IntRange(min=1), default=20,
              help="random directions for the orthogonality record")
@click.option("--tol", type=float, default=None, help="validation tolerance")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def verify(kernel_file, observable_file, center, seed, trials, tol, as_json):
    """Run the variational identity battery for one kernel and observable."""
    tol = _resolve_tol(tol)
    f, _, chain = _load_analysis(kernel_file, observable_file, tol, center)
    records, sigma2 = checks.battery(chain, f, seed, trials)
    all_pass = all(c["passed"] for c in records)
    if as_json:
        _echo_json({"checks": records, "all_pass": all_pass, "sigma2": sigma2,
                    "seed": seed})
    else:
        for c in records:
            mark, relation = ("PASS", "<=") if c["passed"] else ("FAIL", ">")
            click.echo(f"{mark} {c['name']} (residual {_fmt(c['residual'])}"
                       f" {relation} {_fmt(c['bound'])})")
        click.echo(f"sigma^2: {_fmt(sigma2)}")
    if not all_pass:
        _fail(EXIT_ROUTES, "at least one variational identity failed")


@main.command()
@click.argument("kernel_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("observable_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "n_steps", type=int, required=True, help="number of transitions")
@click.option("--seed", type=click.IntRange(min=0), default=0, help="RNG seed")
@click.option("--batch-len", type=int, default=None, help="batch length")
@click.option("--initial", type=int, default=0, help="initial state")
@click.option("--tol", type=float, default=None, help="validation tolerance")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def simulate(kernel_file, observable_file, n_steps, seed, batch_len, initial,
             tol, as_json):
    """Estimate the asymptotic variance from a simulated trajectory."""
    tol = _resolve_tol(tol)
    kernel, embedded = read_kernel(kernel_file, tol)
    f = read_observable(observable_file, len(kernel))
    try:
        states = montecarlo.simulate(kernel, n_steps, seed, initial)
    except MemoryError:
        _fail(EXIT_PARSE, f"--n {n_steps} transitions do not fit in memory")
    estimate = montecarlo.batch_means_avar(states, f, batch_len)
    report = {
        "value": estimate.value,
        "std_error": estimate.std_error,
        "n_batches": estimate.n_batches,
        "batch_len": estimate.batch_len,
        "seed": seed,
    }
    if is_irreducible(kernel):
        try:
            pi = _resolve_pi(kernel, embedded)
            sol = poisson.solve_dual_pair(kernel, pi, centered(f, pi))
            report["analytic_avar"] = sol.avar
            if estimate.std_error > 0:
                report["deviation_sigmas"] = (
                    abs(estimate.value - sol.avar) / estimate.std_error)
        except (DegenerateKernelError, NumericalFailureError):
            pass  # no analytic value: a degenerate chain, or one float64 cannot hold
    if as_json:
        _echo_json(report)
    else:
        click.echo(f"estimate: {_fmt(estimate.value)}")
        click.echo(f"std error: {_fmt(estimate.std_error)}")
        click.echo(f"batches: {estimate.n_batches} x {estimate.batch_len}")
        click.echo(f"seed: {seed}")
        if "analytic_avar" in report:
            click.echo(f"analytic avar: {_fmt(report['analytic_avar'])}")
        if "deviation_sigmas" in report:
            click.echo(f"deviation: {_fmt(report['deviation_sigmas'])} std errors")


@main.command("reproduce-examples")
@click.option("--only", default=None, help="filter rows by name or group")
@click.option("--dump-fixtures", "dump_dir",
              type=click.Path(file_okay=False), default=None,
              help="write fixture input files to this directory")
@click.option("--tol", type=float, default=None, help="pass/fail threshold")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def reproduce_examples(only, dump_dir, tol, as_json):
    """Recompute every bundled reference value and report deviations."""
    tol = _resolve_tol(tol)
    if dump_dir is not None:
        try:
            written = catalog.dump_fixtures(dump_dir)
        except OSError as exc:
            _fail(EXIT_PARSE, f"cannot write fixtures under {dump_dir}: {exc}")
        if not as_json:
            click.echo(f"wrote {len(written)} fixture files under {dump_dir}")
    results = catalog.run_all(tol, only)
    if not results:
        _fail(EXIT_PARSE, f"no fixture rows match {only!r}")
    failures = [r for r in results if r.verdict == catalog.FAIL]
    if as_json:
        rows = []
        for r in results:
            rows.append({
                "name": r.row.name,
                "group": r.row.group,
                "stated": catalog.rational_repr(r.row.stated),
                "stated_ratio": catalog.rational_pairs(r.row.stated),
                "expected": catalog.rational_repr(r.row.expected),
                "computed": np.asarray(r.computed).tolist(),
                "abs_diff": r.delta_stated,
                "abs_diff_derived": r.delta_expected,
                "verdict": r.verdict,
                "note": r.row.note,
            })
        _echo_json({"rows": rows, "all_pass": not failures})
    else:
        width = max(len(r.row.name) for r in results)
        for r in results:
            if isinstance(r.computed, np.ndarray):
                computed = "(" + ", ".join(_fmt(v) for v in np.ravel(r.computed)) + ")"
            else:
                computed = _fmt(r.computed)
            stated = catalog.rational_repr(r.row.stated)
            click.echo(f"{r.row.name.ljust(width)}  stated {stated}  "
                       f"computed {computed}  |delta| {_fmt(r.delta_stated)}  "
                       f"{r.verdict}")
            if r.row.note:
                click.echo(f"{''.ljust(width)}  note: {r.row.note}")
        click.echo(f"{len(results)} rows, "
                   f"{sum(1 for r in results if r.verdict != catalog.FAIL)} acceptable")
    if failures:
        _fail(EXIT_FIXTURE,
              f"{len(failures)} fixture rows deviate beyond {tol:g}")


if __name__ == "__main__":
    main()

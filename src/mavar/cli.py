"""Command-line interface: load the inputs, call the library, render.

analyze and verify render mavar.checks: the routes and the verify battery
are computed there, and a command only prints them and picks the exit code.
Every --json report is strict JSON: a non-finite float (a failed route) is null.

Exit codes: 0 success, 2 parse or validation error (including a NaN or
infinite input, a variance that overflows float64, and a zero variance in
verify, whose variational formula for 1/sigma^2 needs sigma^2 > 0), 3 reducible
kernel, 4 degenerate kernel (Poisson equation unsolvable), 5 route or
identity disagreement (a route that failed its own cross-check is inf),
6 stationary-distribution mismatch, 7 unexplained fixture deviation.  A
library error that escapes a command gets its code from one table keyed by
error class, EXIT_CODES, applied once by the command group, so every command
maps an error the same way (a degenerate pair exits 4 from compare as from
analyze).  The MAVAR_TOL environment variable overrides the
default verification tolerance; an explicit --tol flag wins over both, and
either must be positive and finite.
"""

import io
import json
import math
import os
import sys

import click
import numpy as np
import orjson

from . import __version__, catalog, checks
from .errors import (
    DegenerateKernelError,
    MavarError,
    NumericalFailureError,
    ReducibleError,
    StationaryMismatchError,
)
from .kernel import (
    DEFAULT_TOL,
    ReducedChain,
    centered,
    check_finite,
    is_irreducible,
    is_reversible,
    spectral_radius_mean_zero,
    stationary_distribution,
    stationary_residual,
    validate_kernel,
)
from .montecarlo import batch_means_avar, simulate as run_chain
from .ordering import order_pairs, peskun_order
from .perturb import _density, apply_drift, family_alpha, validate_drift, validate_vorticity
from .poisson import ROUTE_TOL, solve_dual_pair

EXIT_PARSE = 2
EXIT_REDUCIBLE = 3
EXIT_DEGENERATE = 4
EXIT_ROUTES = 5
EXIT_STATIONARY = 6
EXIT_FIXTURE = 7

# exit code of a library error: the entry of its most specific listed class
EXIT_CODES = {
    ReducibleError: EXIT_REDUCIBLE,
    DegenerateKernelError: EXIT_DEGENERATE,
    StationaryMismatchError: EXIT_STATIONARY,
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


# orjson 3.8 recurses on the C stack once per nesting level and overflows it
# (a segfault) past ~120,000 levels with an 8 MB stack, ~5,000 with 1 MB; a
# document holding at most this many '[' and '{' bytes cannot nest deeper
ORJSON_MAX_BRACKETS = 2048


def _brackets(data, limit):
    """The number of '[' and '{' bytes in data, counted up to limit + 1."""
    count = 0
    for bracket in (b"[", b"{"):
        at = data.find(bracket)
        while at >= 0 and count <= limit:
            count += 1
            at = data.find(bracket, at + 1)
    return count


def _read_json(path):
    """The UTF-8 JSON document in path.

    orjson parses strict JSON.  A document it rejects, or one that may nest
    too deeply for it, goes to the json module, which also reads NaN,
    Infinity and 1e400 (rejected later as non-finite) and lone surrogates,
    and words every error message.  It reads the text as open() does, so an
    error names the same line and column.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        _fail(EXIT_PARSE, f"cannot read {path}: {exc}")
    if _brackets(data, ORJSON_MAX_BRACKETS) <= ORJSON_MAX_BRACKETS:
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except UnicodeDecodeError as exc:
        _fail(EXIT_PARSE, f"{path} is not UTF-8 text: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:
        _fail(EXIT_PARSE, f"{path} is not valid JSON: {exc}")


def _checked(path, convert, *args):
    """convert(*args); a parse or validation failure exits 2 naming the file."""
    try:
        return convert(*args)
    except (MavarError, TypeError, ValueError, OverflowError) as exc:
        _fail(EXIT_PARSE, f"{path}: {exc}")


def _load_kernel_file(path, tol):
    """Returns (kernel, embedded stationary or None)."""
    payload = _read_json(path)
    if not isinstance(payload, dict) or "rows" not in payload:
        _fail(EXIT_PARSE, f"{path}: expected an object with a 'rows' matrix")
    rows = payload["rows"]
    if "n" in payload and (not isinstance(rows, list) or len(rows) != payload["n"]):
        _fail(EXIT_PARSE, f"{path}: 'n' does not match the matrix size")
    kernel = _checked(path, validate_kernel, rows, tol)
    if payload.get("pi") is None:
        return kernel, None
    pi = _checked(path, np.asarray, payload["pi"], float)
    # written so that a NaN entry fails too
    if pi.shape != (len(kernel),) or not (pi.min() > 0 and abs(pi.sum() - 1.0) <= tol):
        _fail(EXIT_PARSE, f"{path}: embedded pi is not a probability vector")
    if stationary_residual(kernel, pi) > min(tol, DEFAULT_TOL):
        _fail(EXIT_PARSE, f"{path}: embedded pi is not stationary")
    return kernel, pi


def _load_observable_file(path, n):
    if str(path).endswith(".json"):
        values = _read_json(path)
        if not isinstance(values, list):
            _fail(EXIT_PARSE, f"{path}: expected a JSON array of numbers")
    else:
        try:
            with open(path, encoding="utf-8") as handle:
                values = [line for line in handle if line.strip()]
        except OSError as exc:
            _fail(EXIT_PARSE, f"cannot read {path}: {exc}")
        except UnicodeDecodeError as exc:
            _fail(EXIT_PARSE, f"{path} is not UTF-8 text: {exc}")
    f = _checked(path, check_finite, values, "observable")
    if f.ndim != 1 or f.shape[0] != n:
        _fail(EXIT_PARSE, f"{path}: expected {n} values, got shape {f.shape}")
    return f


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
    scale = max(1.0, float(np.max(np.abs(f), initial=0.0)))
    if abs(mean) <= tol * scale:
        # sub-tolerance mean is treated as noise and removed quietly
        return f - mean, False
    if center:
        click.echo(f"note: centering observable (pi-mean was {_fmt(mean)})", err=True)
        return f - mean, True
    _fail(EXIT_PARSE, f"observable has pi-mean {mean}; pass --center to subtract it")


def _load_analysis(kernel_file, observable_file, tol, center):
    """The start of analyze and verify: (f, centered?, chain)."""
    kernel, embedded = _load_kernel_file(kernel_file, tol)
    if not is_irreducible(kernel):
        raise ReducibleError("kernel is reducible")
    pi = _resolve_pi(kernel, embedded)
    raw = _load_observable_file(observable_file, len(kernel))
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
    kernel, embedded = _load_kernel_file(kernel_file, tol)
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
@click.option("--tol", type=float, default=None, help="verification tolerance")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def analyze(kernel_file, observable_file, center, tol, as_json):
    """Solve the Poisson equation and report the variance by every route."""
    tol = _resolve_tol(tol)
    f, was_centered, chain = _load_analysis(kernel_file, observable_file, tol, center)
    sol, routes, reversible = checks.routes(chain, f, tol)
    # a route that failed is inf, so the spread is inf or NaN and agree is False
    spread = max(routes.values()) - min(routes.values())
    agree = spread <= ROUTE_TOL * max(1.0, abs(sol.sigma2))
    radius = spectral_radius_mean_zero(chain)
    report = {
        "n": chain.m + 1,
        "reversible": reversible,
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
        click.echo(f"reversible: {'yes' if reversible else 'no'}")
        click.echo(f"spectral radius (mean-zero): {_fmt(radius)}")
        click.echo(f"pi: {_fmt_vec(chain.pi)}")
        click.echo(f"phi: {_fmt_vec(sol.phi)}")
        click.echo(f"phi*: {_fmt_vec(sol.phi_star)}")
        click.echo(f"sigma^2: {_fmt(sol.sigma2)}")
        click.echo(f"avar: {_fmt(sol.avar)}")
        for name, value in routes.items():
            click.echo(f"route {name}: {_fmt(value)}")
        click.echo(f"routes agree within {ROUTE_TOL:g}: {'yes' if agree else 'no'}")
    if not agree:
        worst = max(routes, key=lambda name: abs(routes[name] - sol.sigma2))
        _fail(EXIT_ROUTES, f"variance routes disagree by {spread}, the {worst} route "
                           f"most (values {routes})")


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
@click.option("--tol", type=float, default=None, help="verification tolerance")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def compare(kernel_file_1, kernel_file_2, tol, as_json):
    """Report every kernel order plus uniform variance domination."""
    tol = _resolve_tol(tol)
    k1, pi1 = _load_kernel_file(kernel_file_1, tol)
    k2, pi2 = _load_kernel_file(kernel_file_2, tol)
    pi = _resolve_pi(k1, pi1 if pi1 is not None else pi2)
    # order_pairs checks that the sizes match and that both kernels keep pi
    orders = order_pairs(k1, k2, pi)
    dom_fwd, dom_rev = orders.pop("domination")

    def _dom_payload(result):
        holds, witness = result
        payload = {"holds": holds}
        if witness is not None:
            payload["witness"] = witness.tolist()
        return payload

    if as_json:
        report = {
            name: {"forward": fwd.as_dict(), "reverse": rev.as_dict()}
            for name, (fwd, rev) in orders.items()
        }
        report["domination"] = {
            "forward": _dom_payload(dom_fwd),
            "reverse": _dom_payload(dom_rev),
        }
        report["pi"] = pi.tolist()
        _echo_json(report)
        return
    click.echo(f"shared pi: {_fmt_vec(pi)}")
    for name, (fwd, rev) in orders.items():
        click.echo(_order_line(f"{name} 1->2", fwd))
        click.echo(_order_line(f"{name} 2->1", rev))
    for label, (holds, witness) in (("domination 1->2", dom_fwd),
                                    ("domination 2->1", dom_rev)):
        if holds:
            click.echo(f"{label}: holds (second argument never worse)")
        else:
            click.echo(f"{label}: fails, witness f = {_fmt_vec(witness)}")


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
    kernel, embedded = _load_kernel_file(kernel_file, tol)
    pi = _resolve_pi(kernel, embedded)
    path = gamma_path or lam_path
    payload = _read_json(path)
    if not isinstance(payload, dict) or "kind" not in payload or "matrix" not in payload:
        _fail(EXIT_PARSE, f"{path}: expected an object with 'kind' and 'matrix'")
    want = "vorticity" if gamma_path else "drift"
    if payload["kind"] != want:
        _fail(EXIT_PARSE,
              f"{path}: kind {payload['kind']!r} does not match the flag ({want})")
    matrix = _checked(path, check_finite, payload["matrix"], "perturbation matrix")
    tol = min(tol, DEFAULT_TOL)  # the library rechecks at DEFAULT_TOL: --tol only tightens
    diagnostics = {}
    if want == "vorticity":
        gamma = validate_vorticity(kernel, pi, matrix, tol)
        result = family_alpha(kernel, pi, gamma, alpha)
        h, _ = _density(kernel, pi, gamma)
        diagnostics["max_density"] = float(np.max(np.abs(alpha * h)))
        diagnostics["alpha"] = alpha
    else:
        if alpha != 1.0:
            _fail(EXIT_PARSE, "--alpha applies only to vorticity perturbations")
        result = apply_drift(kernel, pi, validate_drift(kernel, pi, matrix, tol))
        diagnostics["peskun_margin"] = peskun_order(kernel, result, pi).margin
    diagnostics["stationary_residual"] = stationary_residual(result, pi)
    if as_json:
        _echo_json({
            "n": len(result),
            "rows": result.tolist(),
            "pi": pi.tolist(),
            "diagnostics": diagnostics,
        })
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
              help="seed for random test functions")
@click.option("--trials", type=click.IntRange(min=1), default=20,
              help="random test functions per check")
@click.option("--tol", type=float, default=None, help="verification tolerance")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def verify(kernel_file, observable_file, center, seed, trials, tol, as_json):
    """Run the variational identity battery for one kernel and observable."""
    tol = _resolve_tol(tol)
    f, _, chain = _load_analysis(kernel_file, observable_file, tol, center)
    records, sigma2 = checks.battery(chain, f, seed, trials, tol)
    all_pass = all(c["passed"] for c in records)
    if as_json:
        _echo_json({"checks": records, "all_pass": all_pass, "sigma2": sigma2,
                    "seed": seed})
    else:
        for c in records:
            mark = "PASS" if c["passed"] else "FAIL"
            click.echo(f"{mark} {c['name']} (residual {_fmt(c['residual'])}"
                       f" <= {_fmt(c['bound'])})")
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
    kernel, embedded = _load_kernel_file(kernel_file, tol)
    f = _load_observable_file(observable_file, len(kernel))
    try:
        trajectory = run_chain(kernel, n_steps, seed, initial)
    except MemoryError:
        _fail(EXIT_PARSE, f"--n {n_steps} transitions do not fit in memory")
    estimate = batch_means_avar(trajectory, f, batch_len)
    report = {
        "value": estimate.value,
        "std_error": estimate.std_error,
        "n_batches": estimate.n_batches,
        "batch_len": estimate.batch_len,
        "seed": trajectory.seed,
    }
    if is_irreducible(kernel):
        pi = _resolve_pi(kernel, embedded)
        try:
            sol = solve_dual_pair(kernel, pi, centered(f, pi), tol)
            report["analytic_avar"] = sol.avar
            if estimate.std_error > 0:
                report["deviation_sigmas"] = (
                    abs(estimate.value - sol.avar) / estimate.std_error)
        except DegenerateKernelError:
            pass  # a degenerate chain has no analytic value to compare with
    if as_json:
        _echo_json(report)
    else:
        click.echo(f"estimate: {_fmt(estimate.value)}")
        click.echo(f"std error: {_fmt(estimate.std_error)}")
        click.echo(f"batches: {estimate.n_batches} x {estimate.batch_len}")
        click.echo(f"seed: {trajectory.seed}")
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

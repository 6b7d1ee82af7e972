"""Bundled worked examples with exact reference values.

Each fixture row pairs a stated reference value (kept as exact
rationals) with a freshly computed one.  Two rows carry values whose
stated forms are internally inconsistent with their own inputs; they
are flagged, the notes explain the inconsistency, and the derived
values serve as ground truth.
"""

from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path
from typing import Callable

import numpy as np

from .kernel import _as_chain, stationary_distribution, validate_kernel
from .ordering import fk_order
from .perturb import apply_drift, make_nonreversible, validate_vorticity
from .poisson import solve_dual_pair

PASS = "PASS"
FAIL = "FAIL"
DOCUMENTED = "DISCREPANCY-DOCUMENTED"


def _floats(exact):
    return np.array(exact, dtype=float)


def rational_pairs(value):
    """Exact values as (numerator, denominator) pairs for serialization."""
    if isinstance(value, (Q, int, float, np.integer, np.floating)):
        q = Q(value)
        return [q.numerator, q.denominator]
    return [rational_pairs(v) for v in value]


def rational_repr(value) -> str:
    if isinstance(value, (Q, int, float, np.integer, np.floating)):
        return str(Q(value))
    return "(" + ", ".join(rational_repr(v) for v in value) + ")"


# six-cycle: lazy clockwise walk vs symmetric walk, uniform pi

SIX_CYCLE_P1 = tuple(
    tuple(Q(1, 2) if j in (i, (i + 1) % 6) else Q(0) for j in range(6))
    for i in range(6)
)
SIX_CYCLE_P2 = tuple(
    tuple(Q(1, 2) if j in ((i + 1) % 6, (i - 1) % 6) else Q(0) for j in range(6))
    for i in range(6)
)
SIX_CYCLE_PI = tuple(Q(1, 6) for _ in range(6))
SIX_CYCLE_F1 = (0.0, 0.0, 1.0, 0.0, 0.0, -1.0)
SIX_CYCLE_F2 = (1.0, -1.0, 0.0, 0.0, 0.0, 0.0)

# three-state pair: both non-reversible, shared pi = (3/14, 4/7, 3/14)

THREE_STATE_P1 = (
    (Q(1, 3), Q(1, 3), Q(1, 3)),
    (Q(1, 4), Q(1, 2), Q(1, 4)),
    (Q(0), Q(1), Q(0)),
)
THREE_STATE_P2 = (
    (Q(0), Q(2, 3), Q(1, 3)),
    (Q(3, 8), Q(3, 8), Q(1, 4)),
    (Q(0), Q(1), Q(0)),
)
THREE_STATE_PI = (Q(3, 14), Q(4, 7), Q(3, 14))

# partial-sum counterexample pair, uniform pi

FK_P = (
    (Q(0), Q(1, 2), Q(1, 2)),
    (Q(1, 2), Q(0), Q(1, 2)),
    (Q(1, 2), Q(1, 2), Q(0)),
)
FK_Q = (
    (Q(0), Q(1, 3), Q(2, 3)),
    (Q(1, 3), Q(1, 3), Q(1, 3)),
    (Q(2, 3), Q(1, 3), Q(0)),
)
UNIFORM3_PI = (Q(1, 3), Q(1, 3), Q(1, 3))

# four-state bipartite walk lifted to a deterministic cycle by vorticity

FOUR_CYCLE_K = (
    (Q(0), Q(1, 2), Q(0), Q(1, 2)),
    (Q(1, 2), Q(0), Q(1, 2), Q(0)),
    (Q(0), Q(1, 2), Q(0), Q(1, 2)),
    (Q(1, 2), Q(0), Q(1, 2), Q(0)),
)
FOUR_CYCLE_PI = tuple(Q(1, 4) for _ in range(4))
# the pi-weighted vorticity has entries +-1/8; the kernel-level matrix
# is diag(pi)^{-1} times it
FOUR_CYCLE_GAMMA = (
    (Q(0), Q(1, 2), Q(0), Q(-1, 2)),
    (Q(-1, 2), Q(0), Q(1, 2), Q(0)),
    (Q(0), Q(-1, 2), Q(0), Q(1, 2)),
    (Q(1, 2), Q(0), Q(-1, 2), Q(0)),
)
FOUR_CYCLE_SHIFT = tuple(
    tuple(Q(1) if j == (i + 1) % 4 else Q(0) for j in range(4)) for i in range(4)
)

# tridiagonal kernel accelerated by a symmetric drift

TRIDIAG_K = (
    (Q(2, 3), Q(1, 3), Q(0)),
    (Q(1, 3), Q(1, 3), Q(1, 3)),
    (Q(0), Q(1, 3), Q(2, 3)),
)
TRIDIAG_LAMBDA = (
    (Q(-1, 9), Q(1, 9), Q(0)),
    (Q(1, 9), Q(-1, 9), Q(0)),
    (Q(0), Q(0), Q(0)),
)
TRIDIAG_P = (
    (Q(1, 3), Q(2, 3), Q(0)),
    (Q(2, 3), Q(0), Q(1, 3)),
    (Q(0), Q(1, 3), Q(2, 3)),
)

# uniform 3-state kernel with one vorticity and two drifts

UNIFORM3_K = tuple(tuple(Q(1, 3) for _ in range(3)) for _ in range(3))
# stated pi-weighted vorticity entries are +-1/9; kernel-level is x3
UNIFORM3_GAMMA = (
    (Q(0), Q(-1, 3), Q(1, 3)),
    (Q(1, 3), Q(0), Q(-1, 3)),
    (Q(-1, 3), Q(1, 3), Q(0)),
)
UNIFORM3_LAMBDA1 = (
    (Q(-1, 9), Q(1, 9), Q(0)),
    (Q(1, 9), Q(-1, 9), Q(0)),
    (Q(0), Q(0), Q(0)),
)
UNIFORM3_LAMBDA2 = (
    (Q(-1, 9), Q(1, 9), Q(0)),
    (Q(0), Q(-1, 9), Q(1, 9)),
    (Q(1, 9), Q(0), Q(-1, 9)),
)


def six_cycle() -> dict:
    return {
        "P1": validate_kernel(_floats(SIX_CYCLE_P1)),
        "P2": validate_kernel(_floats(SIX_CYCLE_P2)),
        "pi": _floats(SIX_CYCLE_PI),
        "f1": np.array(SIX_CYCLE_F1),
        "f2": np.array(SIX_CYCLE_F2),
    }


def three_state_pair() -> dict:
    return {
        "P1": validate_kernel(_floats(THREE_STATE_P1)),
        "P2": validate_kernel(_floats(THREE_STATE_P2)),
        "pi": _floats(THREE_STATE_PI),
        "g1": np.array([1.0, 1.0, -11.0 / 3.0]),
        "g2": np.array([2.0, 1.0, -14.0 / 3.0]),
    }


def fk_pair() -> dict:
    return {
        "P": validate_kernel(_floats(FK_P)),
        "Q": validate_kernel(_floats(FK_Q)),
        "pi": _floats(UNIFORM3_PI),
    }


def four_cycle_lift() -> dict:
    K = validate_kernel(_floats(FOUR_CYCLE_K))
    pi = _floats(FOUR_CYCLE_PI)
    gamma = validate_vorticity(K, pi, _floats(FOUR_CYCLE_GAMMA))
    return {"K": K, "pi": pi, "gamma": gamma, "P": make_nonreversible(K, pi, gamma)}


def tridiag_drift() -> dict:
    K = validate_kernel(_floats(TRIDIAG_K))
    pi = _floats(UNIFORM3_PI)
    lam = _floats(TRIDIAG_LAMBDA)
    return {"K": K, "pi": pi, "lam": lam, "P": apply_drift(K, pi, lam)}


def uniform3() -> dict:
    K = validate_kernel(_floats(UNIFORM3_K))
    pi = _floats(UNIFORM3_PI)
    gamma = validate_vorticity(K, pi, _floats(UNIFORM3_GAMMA))
    lam1, lam2 = _floats(UNIFORM3_LAMBDA1), _floats(UNIFORM3_LAMBDA2)
    return {
        "K": K,
        "pi": pi,
        "gamma": gamma,
        "lam1": lam1,
        "lam2": lam2,
        "P": make_nonreversible(K, pi, gamma),
        "P1": apply_drift(K, pi, lam1),
        "P2": apply_drift(K, pi, lam2),
    }


def form_coefficients(P, pi) -> np.ndarray:
    """Coefficients (a, b, c) of sigma^2 = a f1^2 + b f1 f2 + c f2^2.

    Centered observables on three states are parameterized by (f1, f2)
    with f3 eliminated through the stationary weights.
    """
    chain = _as_chain(P, pi)
    w = chain.pi
    e1 = np.array([1.0, 0.0, -w[0] / w[2]])
    e2 = np.array([0.0, 1.0, -w[1] / w[2]])
    a = solve_dual_pair(chain, w, e1).sigma2
    c = solve_dual_pair(chain, w, e2).sigma2
    both = solve_dual_pair(chain, w, e1 + e2).sigma2
    return np.array([a, both - a - c, c])


def _coeff_matrix(coeffs) -> np.ndarray:
    a, b, c = coeffs
    return np.array([[a, b / 2.0], [b / 2.0, c]])


@dataclass(frozen=True)
class FixtureRow:
    """One reference value and how to recompute it."""

    name: str
    group: str
    stated: object
    expected: object
    compute: Callable[[], object]
    flagged: bool = False
    note: str = ""


@dataclass(frozen=True)
class FixtureResult:
    row: FixtureRow
    computed: object
    delta_stated: float
    delta_expected: float
    verdict: str


def _six_sigma2(which, f_name):
    def run():
        fx = six_cycle()
        return solve_dual_pair(fx[which], fx["pi"], fx[f_name]).sigma2

    return run


def _form(builder, which):
    def run():
        fx = builder()
        return form_coefficients(fx[which], fx["pi"])

    return run


def _three_gap(obs):
    def run():
        fx = three_state_pair()
        f = fx[obs]
        return (solve_dual_pair(fx["P2"], fx["pi"], f).sigma2
                - solve_dual_pair(fx["P1"], fx["pi"], f).sigma2)

    return run


def _fk_margin():
    fx = fk_pair()
    return fk_order(fx["Q"], fx["P"], fx["pi"]).margin


def _four_cycle_kernel():
    return four_cycle_lift()["P"]


def _four_cycle_domination():
    fx = four_cycle_lift()
    FK = _as_chain(fx["K"], fx["pi"]).variance_form
    FP = _as_chain(fx["P"], fx["pi"]).variance_form
    return float(np.min(np.linalg.eigvalsh(FK - FP)))


def _tridiag_kernel():
    return tridiag_drift()["P"]


def _uniform3_domination():
    fx = uniform3()
    better = _coeff_matrix(form_coefficients(fx["P"], fx["pi"])) - _coeff_matrix(
        form_coefficients(fx["P2"], fx["pi"]))
    return float(np.min(np.linalg.eigvalsh(better)))


def _stationary_of(builder, which):
    def run():
        return stationary_distribution(builder()[which])

    return run


FIXTURE_ROWS = (
    FixtureRow(
        "six-cycle/stationary(P1)", "six-cycle",
        SIX_CYCLE_PI, SIX_CYCLE_PI,
        _stationary_of(six_cycle, "P1"),
    ),
    FixtureRow(
        "six-cycle/sigma2(P1,f1)", "six-cycle",
        Q(5, 12), Q(1, 3),
        _six_sigma2("P1", "f1"),
        flagged=True,
        note=("stated companion solution fails its own defining equation: "
              "applying (I - P1) to it returns 1.25 f1, not f1; the direct "
              "solve gives 1/3"),
    ),
    FixtureRow(
        "six-cycle/sigma2(P2,f1)", "six-cycle",
        Q(1, 2), Q(1, 2),
        _six_sigma2("P2", "f1"),
    ),
    FixtureRow(
        "six-cycle/sigma2(P1,f2)", "six-cycle",
        Q(1, 3), Q(1, 3),
        _six_sigma2("P1", "f2"),
    ),
    FixtureRow(
        "six-cycle/sigma2(P2,f2)", "six-cycle",
        Q(5, 18), Q(5, 18),
        _six_sigma2("P2", "f2"),
    ),
    FixtureRow(
        "three-state-pair/stationary", "three-state-pair",
        THREE_STATE_PI, THREE_STATE_PI,
        _stationary_of(three_state_pair, "P1"),
    ),
    FixtureRow(
        "three-state-pair/form(P1)", "three-state-pair",
        (Q(126, 294), Q(252, 294), Q(448, 294)),
        (Q(126, 294), Q(252, 294), Q(448, 294)),
        _form(three_state_pair, "P1"),
    ),
    FixtureRow(
        "three-state-pair/form(P2)", "three-state-pair",
        (Q(105, 294), Q(280, 294), Q(448, 294)),
        (Q(105, 294), Q(280, 294), Q(448, 294)),
        _form(three_state_pair, "P2"),
    ),
    FixtureRow(
        "three-state-pair/gap(1,1,-11/3)", "three-state-pair",
        Q(1, 42), Q(1, 42),
        _three_gap("g1"),
    ),
    FixtureRow(
        "three-state-pair/gap(2,1,-14/3)", "three-state-pair",
        Q(-2, 21), Q(-2, 21),
        _three_gap("g2"),
    ),
    FixtureRow(
        "fk-pair/form(P)", "fk-pair",
        (Q(4, 9), Q(4, 9), Q(4, 9)),
        (Q(4, 9), Q(4, 9), Q(4, 9)),
        _form(fk_pair, "P"),
    ),
    FixtureRow(
        "fk-pair/form(Q)", "fk-pair",
        (Q(2, 5), Q(3, 5), Q(2, 5)),
        (Q(2, 5), Q(2, 5), Q(3, 5)),
        _form(fk_pair, "Q"),
        flagged=True,
        note=("stated cross and f2^2 coefficients are swapped: the stated "
              "form is not invariant under the kernel's own 1<->3 relabeling "
              "symmetry, which the kernel itself satisfies; exact elimination "
              "gives (2/5, 2/5, 3/5)"),
    ),
    FixtureRow(
        "fk-pair/partial-sum-margin(Q,P)", "fk-pair",
        Q(0), Q(0),
        _fk_margin,
        note=("the partial-sum criterion orders Q below P (margin 0, strict "
              "at one block); the surrounding prose labels the pair in the "
              "reverse direction"),
    ),
    FixtureRow(
        "four-cycle-lift/kernel(P)", "four-cycle-lift",
        FOUR_CYCLE_SHIFT, FOUR_CYCLE_SHIFT,
        _four_cycle_kernel,
    ),
    FixtureRow(
        "four-cycle-lift/domination-margin(K,P)", "four-cycle-lift",
        Q(0), Q(0),
        _four_cycle_domination,
    ),
    FixtureRow(
        "tridiag-drift/kernel(P')", "tridiag-drift",
        TRIDIAG_P, TRIDIAG_P,
        _tridiag_kernel,
    ),
    FixtureRow(
        "uniform3/form(vorticity)", "uniform3",
        (Q(1, 2), Q(1, 2), Q(1, 2)),
        (Q(1, 2), Q(1, 2), Q(1, 2)),
        _form(uniform3, "P"),
        note=("the stated vorticity matrix is the pi-weighted one; the "
              "kernel-level perturbation is diag(pi)^{-1} times it, matching "
              "the four-state construction and the stated variance form"),
    ),
    FixtureRow(
        "uniform3/form(drift-1)", "uniform3",
        (Q(3, 5), Q(4, 5), Q(3, 5)),
        (Q(3, 5), Q(4, 5), Q(3, 5)),
        _form(uniform3, "P1"),
    ),
    FixtureRow(
        "uniform3/form(drift-2)", "uniform3",
        (Q(3, 7), Q(3, 7), Q(3, 7)),
        (Q(3, 7), Q(3, 7), Q(3, 7)),
        _form(uniform3, "P2"),
    ),
    FixtureRow(
        "uniform3/domination-margin(vorticity,drift-2)", "uniform3",
        Q(1, 28), Q(1, 28),
        _uniform3_domination,
    ),
)


def run_fixture(row: FixtureRow, tol: float = 1e-9) -> FixtureResult:
    computed = row.compute()
    arr = np.asarray(computed, dtype=float)
    ds = float(np.max(np.abs(arr - _floats(row.stated))))
    de = float(np.max(np.abs(arr - _floats(row.expected))))
    if row.flagged:
        verdict = DOCUMENTED if de <= tol else FAIL
    else:
        verdict = PASS if ds <= tol else FAIL
    return FixtureResult(row, computed, ds, de, verdict)


def run_all(tol: float = 1e-9, only: str | None = None) -> list:
    results = []
    for row in FIXTURE_ROWS:
        if only is not None and only not in row.name and only != row.group:
            continue
        results.append(run_fixture(row, tol))
    return results


def _kernel_payload(P, pi) -> dict:
    return {"n": len(P), "rows": P.tolist(), "pi": pi.tolist()}


def fixture_files() -> dict:
    """All fixture inputs as JSON-ready payloads, grouped by fixture."""
    six = six_cycle()
    three = three_state_pair()
    fk = fk_pair()
    four = four_cycle_lift()
    tri = tridiag_drift()
    uni = uniform3()
    return {
        "six-cycle": {
            "P1.json": _kernel_payload(six["P1"], six["pi"]),
            "P2.json": _kernel_payload(six["P2"], six["pi"]),
            "f1.json": six["f1"].tolist(),
            "f2.json": six["f2"].tolist(),
        },
        "three-state-pair": {
            "P1.json": _kernel_payload(three["P1"], three["pi"]),
            "P2.json": _kernel_payload(three["P2"], three["pi"]),
            "g1.json": three["g1"].tolist(),
            "g2.json": three["g2"].tolist(),
        },
        "fk-pair": {
            "P.json": _kernel_payload(fk["P"], fk["pi"]),
            "Q.json": _kernel_payload(fk["Q"], fk["pi"]),
        },
        "four-cycle-lift": {
            "K.json": _kernel_payload(four["K"], four["pi"]),
            "P.json": _kernel_payload(four["P"], four["pi"]),
            "vorticity.json": {"kind": "vorticity",
                               "matrix": four["gamma"].tolist()},
        },
        "tridiag-drift": {
            "K.json": _kernel_payload(tri["K"], tri["pi"]),
            "P.json": _kernel_payload(tri["P"], tri["pi"]),
            "drift.json": {"kind": "drift", "matrix": tri["lam"].tolist()},
        },
        "uniform3": {
            "K.json": _kernel_payload(uni["K"], uni["pi"]),
            "P.json": _kernel_payload(uni["P"], uni["pi"]),
            "P1.json": _kernel_payload(uni["P1"], uni["pi"]),
            "P2.json": _kernel_payload(uni["P2"], uni["pi"]),
            "vorticity.json": {"kind": "vorticity",
                               "matrix": uni["gamma"].tolist()},
            "drift1.json": {"kind": "drift", "matrix": uni["lam1"].tolist()},
            "drift2.json": {"kind": "drift", "matrix": uni["lam2"].tolist()},
        },
    }


def dump_fixtures(directory) -> list:
    """Write every fixture input under directory/<group>/<name>.json."""
    import json

    written = []
    base = Path(directory)
    for group, files in fixture_files().items():
        folder = base / group
        folder.mkdir(parents=True, exist_ok=True)
        for name, payload in files.items():
            path = folder / name
            path.write_text(json.dumps(payload, indent=1))
            written.append(str(path))
    return written

"""Bundled worked examples with exact reference values.

FIXTURES maps each group name to the builder of its inputs.  Each fixture
row, named "<group>/<label>", pairs a stated reference value (kept as
exact rationals) with one freshly computed from its group's inputs.  Two
rows carry values whose stated forms are internally inconsistent with
their own inputs; they are flagged, the notes explain the inconsistency,
and the derived values serve as ground truth.
"""

from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path
from typing import Callable

import numpy as np

from . import files
from .kernel import DEFAULT_TOL, _as_chain, stationary_distribution, validate_kernel
from .ordering import fk_order, order_pairs
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

# uniform 3-state kernel with one vorticity and two drifts, the first of
# them the tridiagonal example's

UNIFORM3_K = tuple(tuple(Q(1, 3) for _ in range(3)) for _ in range(3))
# stated pi-weighted vorticity entries are +-1/9; kernel-level is x3
UNIFORM3_GAMMA = (
    (Q(0), Q(-1, 3), Q(1, 3)),
    (Q(1, 3), Q(0), Q(-1, 3)),
    (Q(-1, 3), Q(1, 3), Q(0)),
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
        "f1": np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0]),
        "f2": np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]),
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
    return {"K": K, "pi": pi, "P": make_nonreversible(K, pi, gamma), "gamma": gamma}


def tridiag_drift() -> dict:
    K = validate_kernel(_floats(TRIDIAG_K))
    pi = _floats(UNIFORM3_PI)
    lam = _floats(TRIDIAG_LAMBDA)
    return {"K": K, "pi": pi, "P": apply_drift(K, pi, lam), "lam": lam}


def uniform3() -> dict:
    K = validate_kernel(_floats(UNIFORM3_K))
    pi = _floats(UNIFORM3_PI)
    gamma = validate_vorticity(K, pi, _floats(UNIFORM3_GAMMA))
    lam1, lam2 = _floats(TRIDIAG_LAMBDA), _floats(UNIFORM3_LAMBDA2)
    return {
        "K": K,
        "pi": pi,
        "P": make_nonreversible(K, pi, gamma),
        "P1": apply_drift(K, pi, lam1),
        "P2": apply_drift(K, pi, lam2),
        "gamma": gamma,
        "lam1": lam1,
        "lam2": lam2,
    }


# the one table of worked examples: the reference rows and dump_fixtures
# both read a group's inputs from its builder here
FIXTURES = {
    "six-cycle": six_cycle,
    "three-state-pair": three_state_pair,
    "fk-pair": fk_pair,
    "four-cycle-lift": four_cycle_lift,
    "tridiag-drift": tridiag_drift,
    "uniform3": uniform3,
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


def _form_matrix(P, pi) -> np.ndarray:
    a, b, c = form_coefficients(P, pi)
    return np.array([[a, b / 2.0], [b / 2.0, c]])


def _sigma2(fx, P, f) -> float:
    return solve_dual_pair(fx[P], fx["pi"], fx[f]).sigma2


def _least_eigenvalue(A) -> float:
    return float(np.min(np.linalg.eigvalsh(A)))


@dataclass(frozen=True)
class FixtureRow:
    """One reference value and how to recompute it from its group's inputs.

    compute takes the dict FIXTURES[group]() returns.  derived is given
    only on a flagged row, whose stated value is inconsistent with its own
    inputs: the note says why, and derived is the ground truth.
    """

    name: str
    stated: object
    compute: Callable[[dict], object]
    derived: object = None
    note: str = ""

    @property
    def group(self) -> str:
        return self.name.split("/", 1)[0]

    @property
    def flagged(self) -> bool:
        return self.derived is not None

    @property
    def expected(self) -> object:
        return self.stated if self.derived is None else self.derived


@dataclass(frozen=True)
class FixtureResult:
    row: FixtureRow
    computed: object
    delta_stated: float
    delta_expected: float
    verdict: str


FIXTURE_ROWS = (
    FixtureRow("six-cycle/stationary(P1)", SIX_CYCLE_PI,
               lambda fx: stationary_distribution(fx["P1"])),
    FixtureRow("six-cycle/sigma2(P1,f1)", Q(5, 12),
               lambda fx: _sigma2(fx, "P1", "f1"),
               derived=Q(1, 3),
               note=("stated companion solution fails its own defining equation: "
                     "applying (I - P1) to it returns 1.25 f1, not f1; the direct "
                     "solve gives 1/3")),
    FixtureRow("six-cycle/sigma2(P2,f1)", Q(1, 2),
               lambda fx: _sigma2(fx, "P2", "f1")),
    FixtureRow("six-cycle/sigma2(P1,f2)", Q(1, 3),
               lambda fx: _sigma2(fx, "P1", "f2")),
    FixtureRow("six-cycle/sigma2(P2,f2)", Q(5, 18),
               lambda fx: _sigma2(fx, "P2", "f2")),
    FixtureRow("three-state-pair/stationary", THREE_STATE_PI,
               lambda fx: stationary_distribution(fx["P1"])),
    FixtureRow("three-state-pair/form(P1)", (Q(126, 294), Q(252, 294), Q(448, 294)),
               lambda fx: form_coefficients(fx["P1"], fx["pi"])),
    FixtureRow("three-state-pair/form(P2)", (Q(105, 294), Q(280, 294), Q(448, 294)),
               lambda fx: form_coefficients(fx["P2"], fx["pi"])),
    FixtureRow("three-state-pair/gap(1,1,-11/3)", Q(1, 42),
               lambda fx: _sigma2(fx, "P2", "g1") - _sigma2(fx, "P1", "g1")),
    FixtureRow("three-state-pair/gap(2,1,-14/3)", Q(-2, 21),
               lambda fx: _sigma2(fx, "P2", "g2") - _sigma2(fx, "P1", "g2")),
    FixtureRow("fk-pair/form(P)", (Q(4, 9), Q(4, 9), Q(4, 9)),
               lambda fx: form_coefficients(fx["P"], fx["pi"])),
    FixtureRow("fk-pair/form(Q)", (Q(2, 5), Q(3, 5), Q(2, 5)),
               lambda fx: form_coefficients(fx["Q"], fx["pi"]),
               derived=(Q(2, 5), Q(2, 5), Q(3, 5)),
               note=("stated cross and f2^2 coefficients are swapped: the stated "
                     "form is not invariant under the kernel's own 1<->3 relabeling "
                     "symmetry, which the kernel itself satisfies; exact elimination "
                     "gives (2/5, 2/5, 3/5)")),
    FixtureRow("fk-pair/partial-sum-margin(Q,P)", Q(0),
               lambda fx: fk_order(fx["Q"], fx["P"], fx["pi"]).margin,
               note=("the partial-sum criterion orders Q below P (margin 0, strict "
                     "at one block); the surrounding prose labels the pair in the "
                     "reverse direction")),
    FixtureRow("four-cycle-lift/kernel(P)", FOUR_CYCLE_SHIFT,
               lambda fx: fx["P"]),
    FixtureRow("four-cycle-lift/domination-margin(K,P)", Q(0),
               lambda fx: order_pairs(fx["K"], fx["P"], fx["pi"])["domination"][0].margin),
    FixtureRow("tridiag-drift/kernel(P')", TRIDIAG_P,
               lambda fx: fx["P"]),
    FixtureRow("uniform3/form(vorticity)", (Q(1, 2), Q(1, 2), Q(1, 2)),
               lambda fx: form_coefficients(fx["P"], fx["pi"]),
               note=("the stated vorticity matrix is the pi-weighted one; the "
                     "kernel-level perturbation is diag(pi)^{-1} times it, matching "
                     "the four-state construction and the stated variance form")),
    FixtureRow("uniform3/form(drift-1)", (Q(3, 5), Q(4, 5), Q(3, 5)),
               lambda fx: form_coefficients(fx["P1"], fx["pi"])),
    FixtureRow("uniform3/form(drift-2)", (Q(3, 7), Q(3, 7), Q(3, 7)),
               lambda fx: form_coefficients(fx["P2"], fx["pi"])),
    FixtureRow("uniform3/domination-margin(vorticity,drift-2)", Q(1, 28),
               lambda fx: _least_eigenvalue(_form_matrix(fx["P"], fx["pi"])
                                            - _form_matrix(fx["P2"], fx["pi"]))),
)


def run_all(tol: float = DEFAULT_TOL, only: str | None = None) -> list:
    """The FixtureResult of each row whose name holds only or whose group is
    only (every row when None), its value judged within tol."""
    results = []
    for row in FIXTURE_ROWS:
        if only is not None and only not in row.name and only != row.group:
            continue
        computed = row.compute(FIXTURES[row.group]())
        arr = np.asarray(computed, dtype=float)
        ds = float(np.max(np.abs(arr - _floats(row.stated))))
        de = float(np.max(np.abs(arr - _floats(row.expected))))
        if row.flagged:
            verdict = DOCUMENTED if de <= tol else FAIL
        else:
            verdict = PASS if ds <= tol else FAIL
        results.append(FixtureResult(row, computed, ds, de, verdict))
    return results


def dump_fixtures(directory) -> list:
    """Write every group's inputs under directory/<group>/ by
    files.write_fixture, with the group's pi embedded in each kernel; pi
    itself gets no file."""
    written = []
    base = Path(directory)
    for group, build in FIXTURES.items():
        folder = base / group
        folder.mkdir(parents=True, exist_ok=True)
        fx = build()
        for key, value in fx.items():
            if key != "pi":
                written.append(str(files.write_fixture(folder, key, value, fx["pi"])))
    return written

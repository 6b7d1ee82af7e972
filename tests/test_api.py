"""The public namespace of mavar is pinned: a name is added or removed on purpose."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import mavar

PUBLIC_NAMES = [
    "AlphaOutOfRangeError", "AvarEstimate", "BadInitialError", "DEFAULT_TOL",
    "DegenerateKernelError", "DensityExceedsOneError", "DimensionMismatchError",
    "DriftDiagonalError", "DriftRowColSumError", "InfeasibleConstraintError",
    "MavarError", "MeanZeroFrame", "NegativeEntryError",
    "NegativeOffDiagonalError", "NonFiniteInputError", "NotAntisymmetricError",
    "NotCenteredError", "NotPeskunOrderedError",
    "NotReversibleError", "NotStationaryError", "NumericalFailureError", "OrderReport",
    "PerturbationSpecError", "PoissonSolution", "ReducedChain", "ReducibleError",
    "RowSumViolationError", "SaddlePoint", "SingularReversibilizationError",
    "SpectralDecomposition", "StationaryMismatchError", "Trajectory",
    "TrajectoryTooShortError", "VorticityRowSumError", "ZeroVarianceError", "adjoint",
    "apply_drift", "avar_spectral", "avar_via_factored_operator", "batch_means_avar",
    "centered", "check_finite", "dirichlet_form", "dirichlet_order",
    "factored_operator_inf", "family_alpha", "fk_order", "inner_sup", "is_irreducible",
    "is_reversible",
    "make_nonreversible", "peskun_order", "peskun_residual", "pi_inner",
    "project_to_constraint", "resolvent_curve", "reversibilization", "reversible_inf",
    "saddle_point", "simulate", "solve_dual_pair", "spectral_decomposition_reversible",
    "spectral_radius_mean_zero", "stationary_distribution", "stationary_residual",
    "uniform_variance_domination", "validate_drift",
    "validate_kernel", "validate_vorticity",
]

# the subpackages bound by `import mavar`; mavar.cli joins once something imports it
PUBLIC_MODULES = [
    "catalog", "checks", "errors", "kernel", "montecarlo", "ordering", "perturb",
    "poisson", "variational",
]


# the public functions with a tol parameter, all reached by the CLI's --tol/MAVAR_TOL;
# every other threshold is a constant of its module
TOL_KNOBS = [
    "avar_spectral", "avar_via_factored_operator", "catalog.run_all",
    "catalog.run_fixture", "checks.battery", "checks.routes", "inner_sup",
    "resolvent_curve", "solve_dual_pair", "validate_drift", "validate_kernel",
    "validate_vorticity",
]


# the worked-example groups and the fields a catalog row sets: a row reads its
# inputs from its group's builder, and its group, flagged and expected derive
# from these fields
FIXTURE_GROUPS = [
    "six-cycle", "three-state-pair", "fk-pair", "four-cycle-lift", "tridiag-drift",
    "uniform3",
]
FIXTURE_ROW_FIELDS = ["name", "stated", "compute", "derived", "note"]


def public(modules):
    return sorted(name for name, value in vars(mavar).items()
                  if not name.startswith("_") and isinstance(value, ModuleType) == modules)


def test_public_names_are_pinned():
    assert public(modules=False) == PUBLIC_NAMES


def test_public_modules_are_pinned():
    assert [name for name in public(modules=True) if name != "cli"] == PUBLIC_MODULES


def test_tol_knobs_are_pinned():
    knobs = []
    for prefix, module in (("", mavar), ("checks.", mavar.checks), ("catalog.", mavar.catalog)):
        for name, value in vars(module).items():
            if (inspect.isfunction(value) and not name.startswith("_")
                    and (module is mavar or value.__module__ == module.__name__)
                    and "tol" in inspect.signature(value).parameters):
                knobs.append(prefix + name)
    assert sorted(knobs) == TOL_KNOBS


def test_catalog_groups_and_row_fields_are_pinned():
    catalog = mavar.catalog
    assert list(catalog.FIXTURES) == FIXTURE_GROUPS
    assert {row.group for row in catalog.FIXTURE_ROWS} == set(FIXTURE_GROUPS)
    assert [f.name for f in dataclasses.fields(catalog.FixtureRow)] == FIXTURE_ROW_FIELDS


def test_the_library_imports_neither_orjson_nor_scipy():
    # only mavar.cli parses files; the library itself needs numpy alone
    code = ("import sys, mavar; loaded = lambda: [m for m in ('orjson', 'scipy') "
            "if m in sys.modules]; before = loaded(); import mavar.cli; "
            "print(before, loaded())")
    src = str(Path(mavar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "['orjson']"]

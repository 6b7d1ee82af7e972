"""The public namespace of mavar is pinned: a name is added or removed on purpose."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import mavar

PUBLIC_NAMES = [
    "AvarEstimate", "DEFAULT_TOL", "DegenerateKernelError", "KernelError", "MavarError",
    "MeanZeroFrame", "NumericalFailureError", "ObservableError", "OrderReport",
    "PerturbationError", "PoissonSolution", "ReducedChain", "ReducibleError",
    "SaddlePoint", "SimulationError", "StationaryMismatchError", "adjoint", "apply_drift",
    "avar_spectral", "avar_via_factored_operator", "batch_means_avar", "centered",
    "check_finite", "dirichlet_form", "factored_operator_inf", "family_alpha", "fk_order",
    "inner_sup", "is_irreducible", "is_reversible", "make_nonreversible", "peskun_order",
    "peskun_residual", "pi_inner", "project_to_constraint", "resolvent_curve",
    "reversible_inf", "saddle_point", "simulate",
    "solve_dual_pair", "stationary_distribution", "stationary_residual", "validate_drift",
    "validate_kernel", "validate_vorticity",
]

# the subpackages bound by `import mavar`; mavar.cli joins once something imports it
PUBLIC_MODULES = [
    "catalog", "checks", "errors", "files", "kernel", "montecarlo", "ordering",
    "perturb", "poisson", "variational",
]


# the public functions with a tol parameter, all reached by the CLI's --tol;
# every other threshold is a constant of its module
TOL_KNOBS = [
    "catalog.run_all", "files.read_kernel", "validate_drift", "validate_kernel",
    "validate_vorticity",
]

# each command's parameters, arguments and options, in the order click lists them
CLI_OPTIONS = {
    "validate": ["kernel_file", "tol", "as_json"],
    "analyze": ["kernel_file", "observable_file", "center", "tol", "as_json"],
    "compare": ["kernel_file_1", "kernel_file_2", "tol", "as_json"],
    "perturb": ["kernel_file", "gamma_path", "lam_path", "alpha", "tol", "as_json"],
    "verify": ["kernel_file", "observable_file", "center", "seed", "tol", "as_json"],
    "simulate": ["kernel_file", "observable_file", "n_steps", "seed", "batch_len", "initial",
                 "tol", "as_json"],
    "reproduce-examples": ["only", "dump_dir", "tol", "as_json"],
}


# the worked-example groups and the fields a catalog row sets: a row reads its
# inputs from its group's builder, and its group, flagged and expected derive
# from these fields
FIXTURE_GROUPS = [
    "six-cycle", "three-state-pair", "fk-pair", "four-cycle-lift", "tridiag-drift",
    "uniform3",
]
FIXTURE_ROW_FIELDS = ["name", "stated", "compute", "derived", "note"]


def members(module):
    """{name: value} of module as dir() lists it; a name mavar serves lazily is
    not in vars(mavar) until its first use."""
    return {name: getattr(module, name) for name in dir(module)}


def public(modules):
    return sorted(name for name, value in members(mavar).items()
                  if not name.startswith("_") and isinstance(value, ModuleType) == modules)


def test_public_names_are_pinned():
    assert public(modules=False) == PUBLIC_NAMES


def test_public_modules_are_pinned():
    assert [name for name in public(modules=True) if name != "cli"] == PUBLIC_MODULES


def test_star_import_gives_the_pinned_names_and_modules():
    namespace = {}
    exec("from mavar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES + PUBLIC_MODULES)


def test_tol_knobs_are_pinned():
    knobs = []
    for prefix, module in (("", mavar), ("checks.", mavar.checks), ("catalog.", mavar.catalog),
                           ("files.", mavar.files)):
        for name, value in members(module).items():
            if (inspect.isfunction(value) and not name.startswith("_")
                    and (module is mavar or value.__module__ == module.__name__)
                    and "tol" in inspect.signature(value).parameters):
                knobs.append(prefix + name)
    assert sorted(knobs) == TOL_KNOBS


def test_cli_options_are_pinned():
    import mavar.cli

    assert {name: [param.name for param in command.params]
            for name, command in mavar.cli.main.commands.items()} == CLI_OPTIONS


def test_catalog_groups_and_row_fields_are_pinned():
    catalog = mavar.catalog
    assert list(catalog.FIXTURES) == FIXTURE_GROUPS
    assert {row.group for row in catalog.FIXTURE_ROWS} == set(FIXTURE_GROUPS)
    assert [f.name for f in dataclasses.fields(catalog.FixtureRow)] == FIXTURE_ROW_FIELDS


def caught_names(source):
    """The names of the exception classes the except clauses of source catch."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names |= {t.attr if isinstance(t, ast.Attribute) else t.id for t in types}
    return names


def test_every_error_class_has_a_reader():
    # a caller acts on a class through its exit code or an except clause that
    # names it; a class with neither says nothing its base does not
    import mavar.cli

    src = Path(mavar.__file__).parent
    caught = set().union(*(caught_names(path.read_text()) for path in src.glob("*.py")))
    listed = {cls.__name__ for cls in mavar.cli.EXIT_CODES}
    classes = {name for name, value in vars(mavar.errors).items()
               if isinstance(value, type) and value.__module__ == "mavar.errors"}
    assert {"MavarError", "NumericalFailureError", "DegenerateKernelError"} <= caught
    assert classes - listed - caught == set()


def test_the_library_imports_neither_orjson_nor_scipy():
    # only mavar.files parses files, and mavar.cli imports it; the rest of the
    # library needs numpy alone
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

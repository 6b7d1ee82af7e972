"""The public namespace of mavar is pinned: a name is added or removed on purpose."""

import inspect
from types import ModuleType

import mavar

PUBLIC_NAMES = [
    "AlphaOutOfRangeError", "AvarEstimate", "BadInitialError", "DEFAULT_TOL",
    "DegenerateKernelError", "DensityExceedsOneError", "DimensionMismatchError",
    "DriftDiagonalError", "DriftRowColSumError", "InfeasibleConstraintError",
    "MajorizationTrajectory", "MavarError", "MeanZeroFrame", "NegativeEntryError",
    "NegativeOffDiagonalError", "NonFiniteInputError", "NotAntisymmetricError",
    "NotCenteredError", "NotPeskunOrderedError", "NotProbabilityVectorError",
    "NotReversibleError", "NotStationaryError", "NumericalFailureError", "OrderReport",
    "PerturbationSpecError", "PoissonSolution", "ReducedChain", "ReducibleError",
    "ResolventCurve", "RowSumViolationError", "SaddlePoint",
    "SingularReversibilizationError", "SpectralDecomposition",
    "StationaryMismatchError", "Trajectory", "TrajectoryTooShortError",
    "VorticityRowSumError", "VorticitySpec", "ZeroVarianceError", "adjoint",
    "apply_drift", "avar_spectral", "avar_via_factored_operator", "batch_means_avar",
    "centered", "check_dual_equality", "check_finite", "dirichlet_form",
    "dirichlet_order", "factored_operator_inf", "family_alpha", "fk_order", "inner_sup",
    "is_irreducible", "is_reversible", "kernel_fingerprint", "majorization_trajectory",
    "majorizes", "make_nonreversible", "peskun_order", "peskun_residual", "pi_inner",
    "project_to_constraint", "resolvent_curve", "reversibilization", "reversible_inf",
    "saddle_point", "sigma2_quadratic_form", "simulate", "solve_dual_pair",
    "spectral_decomposition_reversible", "spectral_radius_mean_zero",
    "stationary_distribution", "stationary_residual", "stochastically_monotone",
    "uniform_variance_domination", "validate_drift", "validate_kernel",
    "validate_vorticity",
]

# the subpackages bound by `import mavar`; mavar.cli joins once something imports it
PUBLIC_MODULES = [
    "catalog", "checks", "errors", "generators", "kernel", "montecarlo", "ordering",
    "perturb", "poisson", "variational",
]


# the public functions with a tol parameter, all reached by the CLI's --tol/MAVAR_TOL;
# every other threshold is a constant of its module
TOL_KNOBS = [
    "avar_spectral", "avar_via_factored_operator", "catalog.run_all",
    "catalog.run_fixture", "checks.battery", "checks.routes", "inner_sup",
    "resolvent_curve", "solve_dual_pair", "validate_drift", "validate_kernel",
    "validate_vorticity",
]


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

"""Asymptotic variance of finite-state Markov chains.

Computing, verifying, and comparing the asymptotic variance of ergodic
averages: Poisson-equation solvers with dual and spectral routes,
variational formulas for the reciprocal variance, kernel orders, and
variance-reducing perturbations of reversible kernels.

`import mavar` runs none of the submodules.  Each is bound on the package
and placed in sys.modules at once, through importlib.util.LazyLoader, and
its code runs on the first access to one of its attributes.  The public
names below are looked up in their module on each access (PEP 562), so a
short process compiles only the layers it calls.  The first access is not
locked: two threads that first touch one submodule at the same time can
see it half-initialised.
"""

from importlib import util as _util
import sys as _sys

__version__ = "0.1.0"

# the public names, by the submodule each comes from
_EXPORTS = {
    "errors": (
        "DegenerateKernelError", "KernelError", "MavarError", "NumericalFailureError",
        "ObservableError", "PerturbationError", "ReducibleError", "SimulationError",
        "StationaryMismatchError",
    ),
    "kernel": (
        "DEFAULT_TOL", "MeanZeroFrame", "ReducedChain", "adjoint", "centered",
        "check_finite", "is_irreducible", "is_reversible", "pi_inner",
        "stationary_distribution", "stationary_residual", "validate_kernel",
    ),
    "montecarlo": ("AvarEstimate", "batch_means_avar", "simulate"),
    "ordering": ("OrderReport", "fk_order", "peskun_order"),
    "perturb": (
        "apply_drift", "family_alpha", "make_nonreversible", "peskun_residual",
        "validate_drift", "validate_vorticity",
    ),
    "poisson": (
        "PoissonSolution", "avar_spectral", "avar_via_factored_operator",
        "resolvent_curve", "solve_dual_pair",
    ),
    "variational": (
        "SaddlePoint", "dirichlet_form", "factored_operator_inf", "inner_sup",
        "project_to_constraint", "reversible_inf", "saddle_point",
    ),
}
_SUBMODULES = ("catalog", "checks", "errors", "files", "kernel", "montecarlo",
               "ordering", "perturb", "poisson", "variational")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + list(_SUBMODULES)


def _register(name):
    spec = _util.find_spec(f"{__name__}.{name}")
    loader = _util.LazyLoader(spec.loader)
    spec.loader = loader
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    loader.exec_module(module)  # defers the module's code to its first attribute access
    return module


for _name in _SUBMODULES:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME))

"""Asymptotic variance of finite-state Markov chains.

Computing, verifying, and comparing the asymptotic variance of ergodic
averages: Poisson-equation solvers with dual and spectral routes,
variational formulas for the reciprocal variance, kernel orders, and
variance-reducing perturbations of reversible kernels.
"""

from . import catalog, checks
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
from .kernel import (
    DEFAULT_TOL,
    MeanZeroFrame,
    ReducedChain,
    adjoint,
    centered,
    check_finite,
    is_irreducible,
    is_reversible,
    pi_inner,
    reversibilization,
    stationary_distribution,
    stationary_residual,
    validate_kernel,
)
from .montecarlo import AvarEstimate, Trajectory, batch_means_avar, simulate
from .ordering import OrderReport, fk_order, peskun_order
from .perturb import (
    apply_drift,
    family_alpha,
    make_nonreversible,
    peskun_residual,
    validate_drift,
    validate_vorticity,
)
from .poisson import (
    PoissonSolution,
    avar_spectral,
    avar_via_factored_operator,
    resolvent_curve,
    solve_dual_pair,
)
from .variational import (
    SaddlePoint,
    dirichlet_form,
    factored_operator_inf,
    inner_sup,
    project_to_constraint,
    reversible_inf,
    saddle_point,
)

__version__ = "0.1.0"

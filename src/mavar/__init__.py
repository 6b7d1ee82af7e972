"""Asymptotic variance of finite-state Markov chains.

Computing, verifying, and comparing the asymptotic variance of ergodic
averages: Poisson-equation solvers with dual and spectral routes,
variational formulas for the reciprocal variance, kernel orders, and
variance-reducing perturbations of reversible kernels.
"""

from . import catalog, checks
from .errors import (
    AlphaOutOfRangeError,
    BadInitialError,
    DegenerateKernelError,
    DensityExceedsOneError,
    DimensionMismatchError,
    DriftDiagonalError,
    DriftRowColSumError,
    InfeasibleConstraintError,
    MavarError,
    NegativeEntryError,
    NegativeOffDiagonalError,
    NonFiniteInputError,
    NotAntisymmetricError,
    NotCenteredError,
    NotPeskunOrderedError,
    NotReversibleError,
    NotStationaryError,
    NumericalFailureError,
    PerturbationSpecError,
    ReducibleError,
    RowSumViolationError,
    SingularReversibilizationError,
    StationaryMismatchError,
    TrajectoryTooShortError,
    VorticityRowSumError,
    ZeroVarianceError,
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
    spectral_radius_mean_zero,
    stationary_distribution,
    stationary_residual,
    validate_kernel,
)
from .montecarlo import AvarEstimate, Trajectory, batch_means_avar, simulate
from .ordering import (
    OrderReport,
    dirichlet_order,
    fk_order,
    peskun_order,
    uniform_variance_domination,
)
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

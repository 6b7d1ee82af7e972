"""Exception types raised by the library.

Every contract violation gets its own class so callers (and the CLI) can
map failures to distinct exit codes without parsing messages.
"""


class MavarError(Exception):
    """Base class for all library errors."""


# kernel validation and structure

class DimensionMismatchError(MavarError):
    """Operands have incompatible shapes, or a matrix is not square."""


class NonFiniteInputError(MavarError):
    """A kernel, distribution or observable has a NaN or infinite entry."""


class NegativeEntryError(MavarError):
    """A kernel entry is below -tol."""


class RowSumViolationError(MavarError):
    """A kernel row does not sum to 1 within tol."""


class ReducibleError(MavarError):
    """The kernel's support digraph is not strongly connected."""


class NotStationaryError(MavarError):
    """The supplied distribution is not stationary for the kernel."""


class NotReversibleError(MavarError):
    """Detailed balance fails for the given kernel and distribution."""


class NumericalFailureError(MavarError):
    """A linear solve or cross-check exceeded its accuracy budget."""


# Poisson equation

class NotCenteredError(MavarError):
    """The observable has a nonzero pi-mean."""


class DegenerateKernelError(MavarError):
    """The Poisson operator is singular on the mean-zero subspace.

    Carries the spectral radius of the mean-zero restriction and the
    distance from its spectrum to 1.
    """

    def __init__(self, message, radius=None, separation=None):
        super().__init__(message)
        self.radius = radius
        self.separation = separation


class SingularReversibilizationError(MavarError):
    """I - (P + P*)/2 is singular on the mean-zero subspace."""


# variational formulas

class ZeroVarianceError(MavarError):
    """The asymptotic variance vanishes, so 1/sigma^2 objects are undefined."""


class InfeasibleConstraintError(MavarError):
    """A candidate test function violates its normalization constraint."""


# kernel orders

class StationaryMismatchError(MavarError):
    """The two kernels do not share the given stationary distribution."""


class NotPeskunOrderedError(MavarError):
    """The kernel pair is not Peskun ordered, so no drift residual exists."""


# perturbation specs

class PerturbationSpecError(MavarError):
    """A perturbation does not match the kernel it is applied to."""


class VorticityRowSumError(MavarError):
    """A vorticity row does not sum to zero."""


class NotAntisymmetricError(MavarError):
    """The pi-weighted vorticity is not antisymmetric."""


class DensityExceedsOneError(MavarError):
    """Vorticity mass exceeds the kernel's capacity on some edge.

    Carries the offending (i, j) pair.
    """

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge


class DriftRowColSumError(MavarError):
    """A drift row or column does not sum to zero."""


class NegativeOffDiagonalError(MavarError):
    """A drift off-diagonal entry is negative."""


class DriftDiagonalError(MavarError):
    """A drift diagonal is too negative for the kernel's holding mass."""


class AlphaOutOfRangeError(MavarError):
    """Interpolation parameter outside [-1, 1]."""


# simulation

class BadInitialError(MavarError):
    """Initial state or distribution is invalid for the kernel."""


class TrajectoryTooShortError(MavarError):
    """Trajectory too short for the requested batch structure."""

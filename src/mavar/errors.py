"""Exception types raised by the library, one per thing a caller can do.

The three classes with an exit code of their own (cli.EXIT_CODES) say
what is wrong with the chain: reducible, degenerate, or not sharing the
given stationary law.  NumericalFailureError marks a solve or cross-check
that missed its accuracy budget, or a variance beyond float64.  The input
classes name the input to fix: the kernel, the observable, the
perturbation or the simulation arguments.  Any other MavarError exits 2.
"""


class MavarError(Exception):
    """Base class for all library errors."""


class ReducibleError(MavarError):
    """The kernel's support digraph is not strongly connected."""


class DegenerateKernelError(MavarError):
    """The Poisson operator is singular on the mean-zero subspace.

    Carries the spectral radius of the mean-zero restriction and the
    distance from its spectrum to 1.
    """

    def __init__(self, message, radius=None, separation=None):
        super().__init__(message)
        self.radius = radius
        self.separation = separation


class StationaryMismatchError(MavarError):
    """A kernel does not keep the given distribution stationary."""


class NumericalFailureError(MavarError):
    """A linear solve or cross-check exceeded its accuracy budget."""


class KernelError(MavarError):
    """A kernel is not a transition matrix (square, at least 2 states,
    finite, no entry below -tol, rows summing to 1), two kernels differ in
    size, or a kernel lacks what the call needs: reversibility, a
    nonsingular reversibilization, or a Peskun order."""


class ObservableError(MavarError):
    """An observable or test function does not fit the chain: a wrong
    length, a non-finite entry, a nonzero pi-mean, a zero variance, or a
    normalization constraint it misses."""


class PerturbationError(MavarError):
    """A vorticity, a drift or an interpolation parameter does not fit the
    kernel, or the perturbed kernel fails its checks."""


class SimulationError(MavarError):
    """An initial state or law, a number of transitions or a batch length
    that a trajectory cannot use."""

"""Trajectory simulation and batch-means variance estimation."""

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, SimulationError
from .kernel import _as_matrix, _as_vector

# steps simulate runs per chunk of Python floats and states; bounded, so the
# lists stay small beside the trajectory itself
SIMULATE_CHUNK = 4096


@dataclass(frozen=True)
class Trajectory:
    """A simulated path and the seed that reproduces it."""

    states: np.ndarray
    seed: int

    def __post_init__(self):
        states = np.asarray(self.states, dtype=np.int64)
        object.__setattr__(self, "states", states)
        self.states.setflags(write=False)

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class AvarEstimate:
    """Batch-means estimate of the asymptotic variance of averages."""

    value: float
    std_error: float
    n_batches: int
    batch_len: int


def simulate(P, n_steps: int, seed: int, initial=0) -> Trajectory:
    """Run the chain for n_steps transitions from a state or a law.

    initial is a state index or a probability vector to draw the start
    from; anything else, NaN included, raises SimulationError.  The path
    has n_steps + 1 entries.  Sampling inverts each row's cumulative
    distribution.
    """
    M = _as_matrix(P)
    n = M.shape[0]
    if n_steps < 1:
        raise SimulationError("need at least one transition")
    rng = np.random.default_rng(seed)
    if np.ndim(initial) == 0:
        if not (np.isfinite(initial) and float(initial).is_integer()):
            raise SimulationError(f"initial state {initial} is not an integer")
        start = int(initial)
        if not 0 <= start < n:
            raise SimulationError(f"state {start} outside 0..{n - 1}")
    else:
        law = np.asarray(initial, dtype=float)
        # written so that a NaN entry fails too
        if law.shape != (n,) or not (law.min() >= 0 and abs(law.sum() - 1.0) <= 1e-9):
            raise SimulationError("initial law is not a probability vector")
        start = int(rng.choice(n, p=law / law.sum()))
    cums = [row.cumsum().tolist() for row in M]
    top = n - 1
    uniforms = rng.random(n_steps)
    states = np.empty(n_steps + 1, dtype=np.int64)
    states[0] = start
    s = start
    # Python floats in, a list of states out, one chunk at a time: reading a
    # numpy scalar and storing one into the array on every step took ~40 %
    # of the loop
    for lo in range(0, n_steps, SIMULATE_CHUNK):
        chunk = []
        for u in uniforms[lo:lo + SIMULATE_CHUNK].tolist():
            s = min(bisect_right(cums[s], u), top)
            chunk.append(s)
        states[lo + 1:lo + 1 + len(chunk)] = chunk
    return Trajectory(states, int(seed))


def batch_means_avar(trajectory: Trajectory, f, batch_len: int | None = None) -> AvarEstimate:
    """Batch-means estimate of avar(f) from a trajectory.

    Splits the path into consecutive batches of batch_len (default
    round(sqrt(length))) and scales the empirical variance of batch
    means.  std_error uses the chi-square approximation
    value * sqrt(2 / (n_batches - 1)).  Raises SimulationError
    when fewer than 2 batches fit, and NumericalFailureError when the
    estimate overflows float64.
    """
    fv = _as_vector(f)
    values = fv[trajectory.states]
    total = values.shape[0]
    if batch_len is None:
        batch_len = max(1, round(np.sqrt(total)))
    if batch_len < 1:
        raise SimulationError(f"batch_len {batch_len} invalid")
    n_batches = total // batch_len
    if n_batches < 2:
        raise SimulationError(
            f"{total} values cannot fill two batches of {batch_len}")
    used = values[: n_batches * batch_len]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        means = used.reshape(n_batches, batch_len).mean(axis=1)
        value = batch_len * float(np.var(means, ddof=1))
        std_error = value * np.sqrt(2.0 / (n_batches - 1))
    if not (np.isfinite(value) and np.isfinite(std_error)):
        raise NumericalFailureError(
            f"batch-means estimate overflows float64 (value = {value}, "
            f"std error = {std_error}); rescale the observable")
    return AvarEstimate(value, std_error, n_batches, batch_len)

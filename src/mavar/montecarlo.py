"""Trajectory simulation and batch-means variance estimation.

simulate returns a path as a read-only int64 array of states, which
batch_means_avar reads.  It draws the path from the stream of numpy's
default_rng(seed): PCG64, O'Neill's 128-bit LCG with the XSL-RR output
(HMC-CS-2014-0905), seeded through numpy's SeedSequence.  This module
reproduces that stream bit for bit, for the draws simulate makes, so a
seed names the same path as it did when simulate called numpy.  It does
not import numpy's random subpackage, which brings secrets and _hashlib
(libcrypto) with it: about 5 MB of resident memory and 20 ms per process.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NumericalFailureError, SimulationError
from .kernel import _as_matrix, _as_vector

# steps simulate runs per chunk of Python floats and states; bounded, so the
# lists stay small beside the trajectory itself
SIMULATE_CHUNK = 4096

_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# numpy's SeedSequence: the words of its entropy pool and its hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's LCG: state <- state * _PCG_MULT + increment (mod 2^128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_pcg64(seed):
    """The (state, increment) of numpy's default_rng(seed).

    Like numpy, raises TypeError for a seed that is not an integer and
    ValueError for a negative one.
    """
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be a non-negative integer, not {seed!r}")
    entropy = int(seed)
    if entropy < 0:
        raise ValueError(f"seed must be a non-negative integer, not {entropy}")
    words = [entropy >> shift & _MASK32
             for shift in range(0, max(entropy.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    # every pool word into every other, so late bits reach early ones
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # entropy wider than the pool: each further word into every pool word
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words cycled from the pool, read
    # as four little-endian 64-bit ones, w0..w3
    hash_const = _INIT_B
    state = 0
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state |= (value ^ value >> 16) << 32 * i
    w = [state >> shift & _MASK64 for shift in (0, 64, 128, 192)]
    # PCG64 takes w0:w1 as its initial state and w2:w3 as its stream; it
    # steps once from 0, adds the initial state and steps again
    increment = (w[2] << 65 | w[3] << 1 | 1) & _MASK128
    return ((increment + (w[0] << 64 | w[1])) * _PCG_MULT + increment) & _MASK128, increment


def _limbs(values):
    """128-bit integers as read-only uint64 arrays: the low words, the high
    words and the low words' 32-bit halves."""
    low = np.array([v & _MASK64 for v in values], dtype=np.uint64)
    high = np.array([v >> 64 for v in values], dtype=np.uint64)
    limbs = low, high, low & _MASK32, low >> 32
    for limb in limbs:
        limb.setflags(write=False)
    return limbs


@cache
def _jumps():
    """The limbs of M^j and G_j = 1 + M + ... + M^(j-1) (mod 2^128) for
    j = 1..SIMULATE_CHUNK, M = _PCG_MULT: j steps of the LCG take state s
    to M^j s + G_j increment."""
    powers, sums = [], []
    power, total = _PCG_MULT, 1
    for _ in range(SIMULATE_CHUNK):
        powers.append(power)
        sums.append(total)
        total = (total + power) & _MASK128
        power = power * _PCG_MULT & _MASK128
    return _limbs(powers), _limbs(sums)


def _times(limbs, factor):
    """The low and high words of each of limbs' values times factor, mod 2^128."""
    low, high, low0, low1 = limbs
    f_low = factor & _MASK64
    f0, f1 = np.uint64(f_low & _MASK32), np.uint64(f_low >> 32)
    # the high word of low * f_low, from 32-bit halves (Warren, Hacker's
    # Delight, 8-2); no partial sum exceeds 64 bits
    t = low1 * f0
    t += low0 * f0 >> 32
    u = low0 * f1
    u += t & _MASK32
    out = low1 * f1
    out += t >> 32
    out += u >> 32
    out += high * np.uint64(f_low)
    out += low * np.uint64(factor >> 64)
    return low * np.uint64(f_low), out


class _DefaultRng:
    """numpy's default_rng(seed), bit for bit, for the draws simulate makes."""

    def __init__(self, seed):
        self.state, increment = _seed_pcg64(seed)
        self.powers, sums = _jumps()
        self.offsets = _times(sums, increment)

    def random(self, size):
        """The next size <= SIMULATE_CHUNK uniforms of numpy's random(), as a
        list: each the top 53 bits of a 64-bit output times 2^-53."""
        low, high = _times([a[:size] for a in self.powers], self.state)
        off_low, off_high = (a[:size] for a in self.offsets)
        low += off_low
        high += off_high
        high += low < off_low
        self.state = int(high[-1]) << 64 | int(low[-1])
        # XSL-RR: the high word xor the low word, rotated right by the top 6 bits
        rot = high >> 58
        high ^= low
        low = high >> rot
        rot = 64 - rot
        rot &= 63
        high <<= rot
        high |= low
        high >>= 11
        return (high * 2.0**-53).tolist()

    def choice(self, p):
        """numpy's choice(len(p), p=p): one uniform against p's normalised cumsum."""
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self.random(1)[0], side="right"))


@dataclass(frozen=True)
class AvarEstimate:
    """Batch-means estimate of the asymptotic variance of averages."""

    value: float
    std_error: float
    n_batches: int
    batch_len: int


def simulate(P, n_steps: int, seed: int, initial=0) -> np.ndarray:
    """Run the chain for n_steps transitions from a state or a law.

    initial is a state index or a probability vector to draw the start
    from; anything else, NaN included, raises SimulationError.  Returns the
    path, a read-only int64 array of n_steps + 1 states.  Sampling inverts
    each row's cumulative distribution at the uniforms of numpy's
    default_rng(seed); a negative seed raises ValueError and one that is
    not an integer TypeError.
    """
    M = _as_matrix(P)
    n = M.shape[0]
    if n_steps < 1:
        raise SimulationError("need at least one transition")
    rng = _DefaultRng(seed)
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
        start = rng.choice(law / law.sum())
    # each row's cumulative sums but the last: a uniform past all of them
    # goes to the last state, also where rounding leaves the row's sum below 1
    cums = [row.cumsum()[:-1].tolist() for row in M]
    states = np.empty(n_steps + 1, dtype=np.int64)
    states[0] = start
    s = start
    # Python floats in, a list of states out, one chunk at a time: reading a
    # numpy scalar and storing one into the array on every step took ~40 %
    # of the loop
    for lo in range(0, n_steps, SIMULATE_CHUNK):
        chunk = [s := bisect_right(cums[s], u)
                 for u in rng.random(min(SIMULATE_CHUNK, n_steps - lo))]
        states[lo + 1:lo + 1 + len(chunk)] = chunk
    states.setflags(write=False)
    return states


def batch_means_avar(states, f, batch_len: int | None = None) -> AvarEstimate:
    """Batch-means estimate of avar(f) from a path of states, as simulate
    returns it.

    Splits the path into consecutive batches of batch_len (default
    round(sqrt(length))) and scales the empirical variance of batch
    means.  std_error uses the chi-square approximation
    value * sqrt(2 / (n_batches - 1)).  Raises SimulationError
    when fewer than 2 batches fit, and NumericalFailureError when the
    estimate overflows float64.
    """
    fv = _as_vector(f)
    values = fv[states]
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

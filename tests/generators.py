"""Seeded random fixtures for property tests and verification sweeps."""

import numpy as np

from mavar.kernel import _as_matrix, _as_vector, validate_kernel
from mavar.perturb import validate_drift, validate_vorticity


def random_irreducible_kernel(n: int, rng, mix: float = 0.05) -> np.ndarray:
    """A strictly positive kernel: Dirichlet-like rows blended with uniform.

    Strict positivity guarantees irreducibility, aperiodicity, and
    spectral radius below 1 on the mean-zero subspace.
    """
    rows = rng.gamma(1.0, 1.0, size=(n, n)) + 1e-12
    rows /= rows.sum(axis=1, keepdims=True)
    rows = (1.0 - mix) * rows + mix / n
    return validate_kernel(rows)


def random_reversible_kernel(n: int, rng):
    """A reversible kernel from symmetric positive edge weights.

    Returns (kernel, stationary).  Weights stay in [0.2, 1.0], so every
    entry including the diagonal is positive, which leaves room for
    drift perturbations.
    """
    W = rng.uniform(0.2, 1.0, size=(n, n))
    W = 0.5 * (W + W.T)
    strength = W.sum(axis=1)
    K = W / strength[:, None]
    pi = strength / strength.sum()
    return validate_kernel(K), pi


def random_vorticity(K, pi, rng, target_density: float = 0.9) -> np.ndarray:
    """A valid vorticity for a strictly positive reversible kernel.

    Starts from a random antisymmetric matrix, projects onto zero row
    sums without losing antisymmetry, and scales so the largest density
    |h| equals target_density.
    """
    w = _as_vector(pi)
    n = w.shape[0]
    B = rng.standard_normal((n, n))
    B = B - B.T
    r = B.sum(axis=1)
    # (r 1^T - 1 r^T)/n is antisymmetric with the same row sums as B
    B -= (r[:, None] - r[None, :]) / n
    Kt = w[:, None] * _as_matrix(K)
    mask = Kt > 0.0
    density = np.zeros_like(B)
    density[mask] = B[mask] / Kt[mask]
    peak = np.max(np.abs(density))
    if peak == 0.0:
        return np.zeros_like(B)
    gamma = (target_density / peak) * (B / w[:, None])
    return validate_vorticity(K, pi, gamma)


def random_drift(K, pi, rng, slack: float = 0.1) -> np.ndarray:
    """A valid drift for a kernel with positive weighted holding mass.

    Off-diagonal mass is a symmetric random part plus a cyclic flow;
    diagonals absorb the row sums, which also zeroes the column sums.
    The whole matrix is scaled so the diagonal bound holds with the
    given slack fraction of min_i pi_i K_ii.
    """
    MK = _as_matrix(K)
    w = _as_vector(pi)
    n = w.shape[0]
    S = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(S, 0.0)
    off = 0.5 * (S + S.T)
    cyc = rng.uniform(0.2, 1.0)
    for i in range(n):
        off[i, (i + 1) % n] += cyc
    L = off.copy()
    np.fill_diagonal(L, -off.sum(axis=1))
    holding = w * np.diag(MK)
    floor = holding.min()
    if floor <= 0.0:
        raise ValueError("kernel needs positive weighted holding mass on every state")
    budget = holding - slack * floor
    scale = np.min(budget / -np.diag(L))
    L *= scale
    return validate_drift(K, pi, L)


def random_centered_observable(pi, rng, scale: float = 1.0) -> np.ndarray:
    """A pi-centered Gaussian observable bounded away from zero."""
    w = _as_vector(pi)
    while True:
        g = scale * rng.standard_normal(w.shape[0])
        g -= float(w @ g)
        if np.max(np.abs(g)) > 1e-6 * scale:
            return g


def reversible_two_blocks(eps: float):
    """A near-decomposable reversible chain and its slow observable.

    Two 10-state blocks with edge weights B + B^T, B drawn by
    default_rng(3) and then default_rng(4), every cross-block weight eps,
    rows normalised; the observable is +1 on the first block and -1 on the
    second (not centered).  At eps = 1e-6, max|phi| is about 5e5.
    """
    weights = np.full((20, 20), eps)
    for seed, block in ((3, slice(0, 10)), (4, slice(10, 20))):
        B = np.random.default_rng(seed).random((10, 10))
        weights[block, block] = B + B.T
    return weights / weights.sum(axis=1, keepdims=True), np.repeat([1.0, -1.0], 10)

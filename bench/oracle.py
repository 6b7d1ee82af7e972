"""Reference values for output checks, computed without calling mavar.

The stationary law and the Poisson solution both come from full-space
bordered solves (Stewart, Introduction to the Numerical Solution of Markov
Chains, 1994, ch. 2-3):

    [[I - P^T, 1], [1^T, 0]] [pi; c] = [0; 1]
    [[I - P,   1], [pi^T, 0]] [phi; c] = [f; 0]

mavar works in a Householder mean-zero frame instead, so agreement between
the two is a check, not a tautology.
"""

import numpy as np
import scipy.linalg


def _bordered(core, column, row, rhs):
    n = core.shape[0]
    system = np.empty((n + 1, n + 1))
    system[:n, :n] = core
    system[:n, n] = column
    system[n, :n] = row
    system[n, n] = 0.0
    return scipy.linalg.solve(system, rhs)[:n]


def stationary(P) -> np.ndarray:
    """The stationary law of an irreducible kernel."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    return _bordered(np.eye(n) - P.T, np.ones(n), np.ones(n), rhs)


def centered(f, pi) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    return f - float(pi @ f)


def poisson(P, pi, f):
    """(phi, sigma2, avar) for a pi-centered observable f.

    phi solves (I - P) phi = f with pi(phi) = 0, sigma2 = pi(phi f) and
    avar = 2 sigma2 - pi(f^2).
    """
    P = np.asarray(P, dtype=float)
    f = np.asarray(f, dtype=float)
    n = P.shape[0]
    phi = _bordered(np.eye(n) - P, np.ones(n), pi, np.append(f, 0.0))
    sigma2 = float(pi @ (phi * f))
    return phi, sigma2, 2.0 * sigma2 - float(pi @ (f * f))


def rel_err(got, want) -> float:
    """Largest |got - want| / |want| over the entries, with |want| floored
    at the largest |want| times 1e-12 so that near-zero entries of a
    vector do not dominate."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    floor = max(float(np.max(np.abs(want), initial=0.0)) * 1e-12, 1e-300)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), floor),
                        initial=0.0))

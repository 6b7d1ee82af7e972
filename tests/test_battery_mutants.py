"""Every verify record can fail: the battery run on deliberately corrupted chains.

Each corruption is applied to ten seeded 12-state chains, five reversible and
five not.  It changes one factor of the chain where the chain builds it, so
every later reader sees the fault: the reduced operator A (and so everything
built from it), the inverse of I - A, the inverse of I - S (and so T), T, or
pi itself.  A record catches a corruption when it fails on every chain that
emits it.  A record that catches nothing holds by construction and shows
nothing; the battery must emit none.
"""

from itertools import islice

import numpy as np
import pytest

from mavar import (
    ReducedChain,
    avar_spectral,
    avar_via_factored_operator,
    checks,
    solve_dual_pair,
    stationary_distribution,
)

from generators import (
    random_centered_observable,
    random_irreducible_kernel,
    random_reversible_kernel,
)


def shift_the_operator(delta):
    def build(kernel, pi):
        chain = ReducedChain(kernel, pi)
        chain.A = chain.A + delta * np.eye(chain.m)
        return chain
    return build


def scale_an_entry(factor, entry, delta):
    def build(kernel, pi):
        chain = ReducedChain(kernel, pi)
        bad = getattr(chain, factor).copy()
        bad[entry] *= 1.0 + delta
        setattr(chain, factor, bad)
        return chain
    return build


def scale_the_inverse(kernel, pi):
    chain = ReducedChain(kernel, pi)
    chain.inv = chain.inv * 1.001
    return chain


def move_pi(kernel, pi):
    off = pi.copy()
    off[0] += 1e-10
    off[1] -= 1e-10
    return ReducedChain(kernel, off)


CORRUPTIONS = {
    "A + 1e-6 I": shift_the_operator(1e-6),
    "A + 1e-2 I": shift_the_operator(1e-2),
    **{f"{factor}[0, {j}] x (1 + {delta})": scale_an_entry(factor, (0, j), float(delta))
       for factor in ("inv", "cinv", "T") for j in (0, 1) for delta in ("1e-6", "1e-2")},
    "inv x 1.001": scale_the_inverse,
    "pi off by 1e-10": move_pi,
}

MUST_CATCH = {
    "poisson residual (primal)": [
        "A + 1e-6 I", "A + 1e-2 I", "inv[0, 0] x (1 + 1e-6)", "inv[0, 0] x (1 + 1e-2)",
        "inv[0, 1] x (1 + 1e-6)", "inv[0, 1] x (1 + 1e-2)", "inv x 1.001"],
    "poisson residual (dual)": [
        "A + 1e-6 I", "A + 1e-2 I", "inv[0, 0] x (1 + 1e-6)", "inv[0, 0] x (1 + 1e-2)",
        "inv[0, 1] x (1 + 1e-6)", "inv[0, 1] x (1 + 1e-2)", "inv x 1.001", "pi off by 1e-10"],
    "factored-operator route": [
        "inv[0, 0] x (1 + 1e-2)", "inv[0, 1] x (1 + 1e-2)", "cinv[0, 0] x (1 + 1e-6)",
        "cinv[0, 0] x (1 + 1e-2)", "cinv[0, 1] x (1 + 1e-2)", "T[0, 0] x (1 + 1e-2)",
        "T[0, 1] x (1 + 1e-2)", "inv x 1.001"],
    "factored-operator solution": [
        "inv[0, 0] x (1 + 1e-6)", "inv[0, 0] x (1 + 1e-2)", "inv[0, 1] x (1 + 1e-6)",
        "inv[0, 1] x (1 + 1e-2)", "cinv[0, 0] x (1 + 1e-6)", "cinv[0, 0] x (1 + 1e-2)",
        "cinv[0, 1] x (1 + 1e-2)", "T[0, 0] x (1 + 1e-6)", "T[0, 0] x (1 + 1e-2)",
        "T[0, 1] x (1 + 1e-6)", "T[0, 1] x (1 + 1e-2)", "inv x 1.001"],
    "spectral route": [
        "inv[0, 0] x (1 + 1e-6)", "inv[0, 0] x (1 + 1e-2)", "inv[0, 1] x (1 + 1e-2)",
        "inv x 1.001"],
    "saddle Dirichlet identity": [
        "A + 1e-6 I", "A + 1e-2 I", "inv[0, 0] x (1 + 1e-2)", "inv[0, 1] x (1 + 1e-2)",
        "inv x 1.001"],
    "inner sup at xi*": ["inv[0, 0] x (1 + 1e-2)", "inv[0, 1] x (1 + 1e-2)", "inv x 1.001"],
    "factored-operator minimum": [
        "inv[0, 0] x (1 + 1e-2)", "inv[0, 1] x (1 + 1e-2)", "cinv[0, 0] x (1 + 1e-6)",
        "cinv[0, 0] x (1 + 1e-2)", "cinv[0, 1] x (1 + 1e-2)", "T[0, 0] x (1 + 1e-2)",
        "T[0, 1] x (1 + 1e-2)", "inv x 1.001"],
    "orthogonality of phi against pi(f .) = 0": [
        "A + 1e-6 I", "A + 1e-2 I", "inv[0, 0] x (1 + 1e-6)", "inv[0, 0] x (1 + 1e-2)",
        "inv[0, 1] x (1 + 1e-2)"],
    "reversible minimum": [
        "A + 1e-6 I", "A + 1e-2 I", "inv[0, 0] x (1 + 1e-6)", "inv[0, 0] x (1 + 1e-2)",
        "inv[0, 1] x (1 + 1e-2)", "inv x 1.001"],
    "eta* vanishes (reversible)": ["inv[0, 1] x (1 + 1e-6)", "inv[0, 1] x (1 + 1e-2)"],
}

# cinv[0, 1] x (1 + 1e-6) moves sigma^2 by 4e-11 to 4e-9 relative; on the
# chain where that stays below ROUTE_TOL no record need see it
BELOW_ROUTE_TOL = {"cinv[0, 1] x (1 + 1e-6)"}


def seeded_chains():
    rng = np.random.default_rng(26)
    for k in range(10):
        if k < 5:
            kernel, pi = random_reversible_kernel(12, rng)
        else:
            kernel = random_irreducible_kernel(12, rng)
            pi = stationary_distribution(kernel)
        yield kernel, pi, random_centered_observable(pi, rng)


@pytest.fixture(scope="module")
def failures():
    """{corruption: [{record name: failed} for each chain]}, the clean chains
    under the key None."""
    table = {}
    for kernel, pi, f in seeded_chains():
        for name, build in {None: ReducedChain, **CORRUPTIONS}.items():
            records, _ = checks.battery(build(kernel, pi), f)
            table.setdefault(name, []).append({r["name"]: not r["passed"] for r in records})
    return table


def caught(failures, record):
    """The corruptions the record fails on, on every chain that emits it."""
    return {name for name, runs in failures.items() if name is not None
            and all(run[record] for run in runs if record in run)
            and any(record in run for run in runs)}


def test_the_clean_chains_pass_every_record(failures):
    for run in failures[None]:
        assert not any(run.values()), [name for name, failed in run.items() if failed]
    assert [len(run) for run in failures[None]] == [11] * 5 + [8] * 5


def test_every_record_catches_a_corruption(failures):
    emitted = {record for runs in failures.values() for run in runs for record in run}
    assert not [record for record in sorted(emitted) if not caught(failures, record)]
    assert emitted == set(MUST_CATCH)


@pytest.mark.parametrize("record", list(MUST_CATCH))
def test_each_record_catches_its_corruptions(failures, record):
    assert set(MUST_CATCH[record]) <= caught(failures, record), (
        sorted(set(MUST_CATCH[record]) - caught(failures, record)))


def test_the_battery_catches_each_corruption_on_every_chain(failures):
    missed = {name: sum(not any(run.values()) for run in runs)
              for name, runs in failures.items() if name is not None}
    assert {name for name, count in missed.items() if count} <= BELOW_ROUTE_TOL, missed


# The routes are the package's oracle only while each reads factors the
# others do not: a route's value must not move when a factor it does not
# read is scaled.
ROUTES = {
    "dual-pair": lambda chain, f: solve_dual_pair(chain, None, f).sigma2,
    "factored-operator": lambda chain, f: avar_via_factored_operator(chain, None, f),
    "spectral": lambda chain, f: avar_spectral(chain, None, f),
}
IGNORES = {
    "inv": ["factored-operator", "spectral"],
    "cinv": ["dual-pair", "spectral"],
    "T": ["dual-pair", "spectral"],
}


# ...and while each builds only the factors it reads: a route run alone on a
# fresh chain leaves the others unbuilt.
UNBUILT = {
    "factored-operator": ["inv"],
    "dual-pair": ["cinv", "T"],
    "spectral": ["inv", "cinv", "T"],
}


@pytest.mark.parametrize("route", list(UNBUILT))
def test_each_route_builds_only_the_factors_it_reads(route):
    for kernel, pi, f in seeded_chains():
        chain = ReducedChain(kernel, pi)
        if route == "spectral" and not chain.reversible:
            continue
        ROUTES[route](chain, f)
        assert not set(UNBUILT[route]) & set(vars(chain)), route


@pytest.mark.parametrize("factor", list(IGNORES))
def test_each_route_ignores_the_factors_it_does_not_read(factor):
    for kernel, pi, f in islice(seeded_chains(), 5):  # the reversible five
        clean, bad = ReducedChain(kernel, pi), ReducedChain(kernel, pi)
        setattr(bad, factor, getattr(bad, factor) * 1.001)
        for route in IGNORES[factor]:
            assert ROUTES[route](bad, f) == ROUTES[route](clean, f), route

import math

import numpy as np
import pytest

from mavar import (
    NotReversibleError,
    ReducedChain,
    checks,
    is_reversible,
    resolvent_curve,
    reversible_inf,
    stationary_distribution,
    validate_kernel,
)
from mavar.generators import random_centered_observable, random_irreducible_kernel


def near_decomposable(eps=1.1e-12):
    """Two lazy 2-state blocks joined by eps: reversible, and decoupled to
    within the 1e-12 unit-eigenvalue cut of the spectral route."""
    rows = [[0.5 - eps, 0.5, eps, 0.0], [0.5, 0.5, 0.0, 0.0],
            [eps, 0.0, 0.5 - eps, 0.5], [0.0, 0.0, 0.5, 0.5]]
    return ReducedChain(validate_kernel(rows), np.full(4, 0.25))


def records_by_name(chain, f, **kwargs):
    records, _ = checks.battery(chain, f, **kwargs)
    return {r["name"]: r for r in records}


def test_battery_passes_on_the_catalog_cases(catalog_cases):
    for kernel, pi, f in catalog_cases:
        records, sigma2 = checks.battery(ReducedChain(kernel, pi), f)
        failed = [r["name"] for r in records if not r["passed"]]
        assert not failed, (kernel.tolist(), f.tolist(), failed)
        assert sigma2 > 0.0


def test_battery_record_order_and_reversible_extras(six):
    pi = stationary_distribution(six["P2"])
    records, sigma2 = checks.battery(ReducedChain(six["P2"], pi), six["f1"], trials=3)
    names = [r["name"] for r in records]
    assert names[:5] == ["poisson residual (primal)", "poisson residual (dual)",
                         "pairing equality <phi,f> vs <f,phi*>",
                         "factored-operator route", "spectral route"]
    assert names[-2:] == ["reversible minimum", "eta* vanishes (reversible)"]
    assert sigma2 == pytest.approx(0.5, abs=1e-13)
    records, _ = checks.battery(ReducedChain(six["P1"], pi), six["f1"], trials=3)
    assert "spectral route" not in [r["name"] for r in records]


def test_battery_is_deterministic_in_the_seed(three):
    chain = ReducedChain(three["P1"], stationary_distribution(three["P1"]))
    first, _ = checks.battery(chain, three["g1"], seed=4, trials=5)
    again, _ = checks.battery(chain, three["g1"], seed=4, trials=5)
    assert first == again


def test_battery_rejects_fewer_than_one_trial(six):
    chain = ReducedChain(six["P2"], stationary_distribution(six["P2"]))
    with pytest.raises(ValueError, match="trials"):
        checks.battery(chain, six["f1"], trials=0)


def test_a_corrupted_inverse_fails_the_factored_operator_records():
    rng = np.random.default_rng(5)
    kernel = random_irreducible_kernel(8, rng)
    pi = stationary_distribution(kernel)
    f = random_centered_observable(pi, rng)
    chain = ReducedChain(kernel, pi)
    bad = chain.inv.copy()
    bad[0, 0] *= 1.001
    chain.inv = bad
    _, values, _ = checks.routes(chain, f)
    assert values["factored-operator"] == math.inf
    records = records_by_name(chain, f, trials=3)
    assert records["factored-operator route"]["passed"] is False
    assert records["factored-operator minimum"]["passed"] is False
    assert records["poisson residual (primal)"]["passed"] is False


def test_routes_agree_on_a_reversible_fixture(six):
    pi = stationary_distribution(six["P2"])
    sol, values, reversible = checks.routes(ReducedChain(six["P2"], pi), six["f1"])
    assert reversible
    assert list(values) == ["dual-pair", "factored-operator", "spectral"]
    assert values["dual-pair"] == sol.sigma2
    for value in values.values():
        assert value == pytest.approx(0.5, abs=1e-12)


def test_a_near_decomposable_chain_fails_the_spectral_route():
    chain = near_decomposable()
    f = np.array([1.0, 1.0, -1.0, -1.0])
    sol, values, reversible = checks.routes(chain, f)
    assert reversible
    assert values["spectral"] == math.inf
    assert math.isfinite(values["dual-pair"]) and values["dual-pair"] == sol.sigma2
    records = records_by_name(chain, f, trials=3)
    assert records["spectral route"]["passed"] is False
    assert records["spectral route"]["residual"] == math.inf


def test_a_nearly_reversible_chain_skips_the_spectral_route():
    # detailed balance fails by 6.7e-11, beyond the spectral route's 1e-12, so
    # every route must see the chain as non-reversible, not only the spectral one
    circulation = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    kernel = validate_kernel(np.full((3, 3), 1 / 3) + 1e-10 * circulation)
    chain = ReducedChain(kernel, stationary_distribution(kernel))
    f = np.array([1.0, 0.0, -1.0])
    _, values, reversible = checks.routes(chain, f)
    assert not reversible
    assert list(values) == ["dual-pair", "factored-operator"]
    records, _ = checks.battery(chain, f, trials=3)
    assert all(r["passed"] for r in records)


def test_every_reversibility_test_uses_one_threshold():
    # detailed balance off by 6.7e-11: between the 1e-12 threshold and the 1e-10
    # that resolvent_curve and reversible_inf once used on their own
    circulation = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    kernel = validate_kernel(np.full((3, 3), 1 / 3) + 1e-10 * circulation)
    pi = stationary_distribution(kernel)
    f = np.array([1.0, 0.0, -1.0])
    assert not is_reversible(kernel, pi)
    assert not resolvent_curve(kernel, pi, f, [1e-1, 1e-2]).reversible
    assert not checks.routes(ReducedChain(kernel, pi), f)[2]
    with pytest.raises(NotReversibleError):
        reversible_inf(kernel, pi, f)

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mavar.kernel
from mavar import (
    KernelError,
    ReducedChain,
    checks,
    dirichlet_form,
    is_reversible,
    project_to_constraint,
    reversible_inf,
    solve_dual_pair,
    stationary_distribution,
    validate_kernel,
)
from mavar.poisson import ROUTE_TOL

from generators import (
    random_centered_observable,
    random_irreducible_kernel,
    random_reversible_kernel,
    reversible_two_blocks,
)


def near_decomposable(eps=1.1e-12):
    """Two lazy 2-state blocks joined by eps: reversible, with an eigenvalue
    1 - 2.2e-12 just outside the Poisson gate's SOLVABLE_TOL."""
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
                         "factored-operator route", "factored-operator solution",
                         "spectral route"]
    assert names[-2:] == ["reversible minimum", "eta* vanishes (reversible)"]
    assert len(names) == 11
    assert sigma2 == pytest.approx(0.5, abs=1e-13)
    records, _ = checks.battery(ReducedChain(six["P1"], pi), six["f1"], trials=3)
    rest = [r["name"] for r in records]
    assert rest == [name for name in names[:-2] if name != "spectral route"]


def test_battery_is_deterministic_in_the_seed(three):
    pi = stationary_distribution(three["P1"])
    first, _ = checks.battery(ReducedChain(three["P1"], pi), three["g1"], seed=4, trials=5)
    again, _ = checks.battery(ReducedChain(three["P1"], pi), three["g1"], seed=4, trials=5)
    assert first == again


@pytest.mark.parametrize("reversible", [True, False])
def test_the_battery_takes_its_chain_apart(reversible):
    # the chain keeps its frame, pi, m, spectrum and flags: no kernel, and no
    # array of m^2 entries or more
    chain, f = seeded_chain(reversible, 12, 3)
    checks.battery(chain, f, trials=3)
    assert "rows" not in vars(chain)
    assert all(np.size(value) < chain.m ** 2 for value in vars(chain).values()), vars(chain)


def test_battery_rejects_fewer_than_one_trial(six):
    chain = ReducedChain(six["P2"], stationary_distribution(six["P2"]))
    with pytest.raises(ValueError, match="trials"):
        checks.battery(chain, six["f1"], trials=0)


def test_battery_takes_a_nonnegative_integer_seed(six):
    pi = stationary_distribution(six["P2"])

    def chain():
        return ReducedChain(six["P2"], pi)

    with pytest.raises(ValueError, match="seed"):
        checks.battery(chain(), six["f1"], seed=-1, trials=3)
    with pytest.raises(TypeError):
        checks.battery(chain(), six["f1"], seed=1.5, trials=3)
    assert (checks.battery(chain(), six["f1"], seed=np.int64(7), trials=3)
            == checks.battery(chain(), six["f1"], seed=7, trials=3))


def test_a_corrupted_inverse_fails_the_factored_operator_records():
    rng = np.random.default_rng(5)
    kernel = random_irreducible_kernel(8, rng)
    pi = stationary_distribution(kernel)
    f = random_centered_observable(pi, rng)
    chain = ReducedChain(kernel, pi)
    _, clean, _ = checks.routes(chain, f)
    bad = chain.inv.copy()
    bad[0, 0] *= 1.001
    chain.inv = bad
    # the route returns its value through T; only the records compare it
    _, values, _ = checks.routes(chain, f)
    assert values["factored-operator"] == clean["factored-operator"]
    records = records_by_name(chain, f, trials=3)
    assert records["factored-operator route"]["passed"] is False
    assert records["factored-operator solution"]["passed"] is False
    assert records["factored-operator minimum"]["passed"] is False
    assert records["poisson residual (primal)"]["passed"] is False


RESIDUAL_RECORDS = ["poisson residual (primal)", "poisson residual (dual)"]


def test_the_residual_records_pass_a_backward_stable_solve_of_a_near_decomposable_chain():
    # max|phi| is about 5e5, so the residuals are about 3e-10, as rounding
    # leaves them; their backward errors are a few units of roundoff
    rows, f = reversible_two_blocks(1e-6)
    kernel = validate_kernel(rows)
    pi = stationary_distribution(kernel)
    records = records_by_name(ReducedChain(kernel, pi), f - pi @ f, trials=3)
    for name in RESIDUAL_RECORDS:
        assert records[name]["residual"] <= 8 * checks.UNIT_ROUNDOFF < records[name]["bound"]
    assert all(r["passed"] for r in records.values())


def shift_the_operator(chain):
    chain.A = chain.A + 0.05 * np.eye(chain.m)


def scale_an_inverse_entry(factor):
    def corrupt(chain):
        bad = chain.inv.copy()
        bad[0, 0] *= factor
        chain.inv = bad
    return corrupt


@pytest.mark.parametrize("corrupt", [shift_the_operator, scale_an_inverse_entry(1.001),
                                     scale_an_inverse_entry(1.0 + 1e-9)],
                         ids=["A + 0.05 I", "inv[0, 0] * 1.001", "inv[0, 0] * (1 + 1e-9)"])
def test_the_residual_records_catch_each_corruption(corrupt):
    # backward errors 1.8e-2, 1.0e-4 and 1.0e-10 against bounds near 2.5e-15
    rng = np.random.default_rng(4)
    kernel, pi = random_reversible_kernel(8, rng)
    f = random_centered_observable(pi, rng)
    chain = ReducedChain(kernel, pi)
    corrupt(chain)
    records = records_by_name(chain, f, trials=3)
    for name in RESIDUAL_RECORDS:
        assert records[name]["passed"] is False
        assert records[name]["residual"] >= 1e-11 > 1e3 * records[name]["bound"]


def test_the_eta_star_record_catches_an_asymmetric_inverse():
    # a reversible chain's inverse of I - A is symmetric; one off-diagonal entry
    # scaled by 1 + 1e-12 moves ||eta*||_pi from 2e-16 to 2.8e-14 against a bound of 6.5e-15
    rng = np.random.default_rng(4)
    kernel, pi = random_reversible_kernel(8, rng)
    f = random_centered_observable(pi, rng)
    assert records_by_name(ReducedChain(kernel, pi), f, trials=3)[
        "eta* vanishes (reversible)"]["passed"]
    chain = ReducedChain(kernel, pi)
    bad = chain.inv.copy()
    bad[0, 1] *= 1.0 + 1e-12
    chain.inv = bad
    record = records_by_name(chain, f, trials=3)["eta* vanishes (reversible)"]
    assert record["passed"] is False
    assert record["residual"] > 2.0 * record["bound"]


def seeded_chain(reversible, n, seed):
    """(ReducedChain, centered f) drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    if reversible:
        kernel, pi = random_reversible_kernel(n, rng)
    else:
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
    return ReducedChain(kernel, pi), random_centered_observable(pi, rng)


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.integers(3, 12), st.integers(0, 2**32 - 1), st.integers(-480, 480))
@example(True, 3, 0, -480)
@example(True, 7, 1, -100)
@example(True, 12, 2, 480)
@example(False, 3, 3, -7)
@example(False, 7, 4, 9)
@example(False, 12, 5, 200)
def test_scaling_f_by_a_power_of_two_scales_every_record_alike(reversible, n, seed, k):
    # sigma^2(P, c f) = c^2 sigma^2(P, f), and c = 2^k scales every computation
    # exactly, so each record's residual and bound scale by one power of two
    chain, f = seeded_chain(reversible, n, seed)
    base, sigma2 = checks.battery(chain, f, trials=3)
    chain, _ = seeded_chain(reversible, n, seed)
    scaled, scaled_sigma2 = checks.battery(chain, np.ldexp(f, k), trials=3)
    assert scaled_sigma2 == np.ldexp(sigma2, 2 * k)
    assert [(r["name"], r["passed"]) for r in scaled] == [(r["name"], r["passed"]) for r in base]
    for r, r0 in zip(scaled, base):
        assert r["residual"] * r0["bound"] == r0["residual"] * r["bound"], (r, r0)


def test_a_wrong_factored_route_fails_its_record_at_any_scale(monkeypatch):
    # at f 2^-500 the doubled route misses sigma^2 = 4.2e-302 by as much, which
    # an absolute bound of 1e-9 let pass
    factored = checks._factored_solve
    monkeypatch.setattr(checks, "_factored_solve", lambda chain, pi, f: (
        2.0 * solve_dual_pair(chain, pi, f).sigma2, factored(chain, pi, f)[1]))
    for k in (-500, 0, 500):
        chain, f = seeded_chain(True, 12, 7)
        record = records_by_name(chain, np.ldexp(f, k), trials=3)["factored-operator route"]
        assert record["passed"] is False, k


def test_a_shifted_operator_fails_the_orthogonality_record_at_a_huge_scale():
    # at f 1e150 a bound that grew as sigma^2 max|f| overflowed to inf
    chain, f = seeded_chain(True, 12, 7)
    chain.A = chain.A + 1e-6 * np.eye(chain.m)
    record = records_by_name(chain, 1e150 * f, trials=3)[
        "orthogonality of phi against pi(f .) = 0"]
    assert record["passed"] is False and math.isfinite(record["bound"])


def test_routes_agree_on_a_reversible_fixture(six):
    pi = stationary_distribution(six["P2"])
    sol, values, records = checks.routes(ReducedChain(six["P2"], pi), six["f1"])
    assert list(values) == ["dual-pair", "factored-operator", "spectral"]
    assert [r["name"] for r in records] == [
        "factored-operator route", "factored-operator solution", "spectral route"]
    assert all(r["passed"] for r in records)
    assert values["dual-pair"] == sol.sigma2
    for value in values.values():
        assert value == pytest.approx(0.5, abs=1e-12)


def test_the_spectral_route_solves_a_chain_the_gate_passes():
    chain = near_decomposable()
    f = np.array([1.0, 1.0, -1.0, -1.0])
    sol, values, _ = checks.routes(chain, f)
    assert chain.reversible
    assert math.isfinite(values["dual-pair"]) and values["dual-pair"] == sol.sigma2
    assert abs(values["spectral"] - sol.sigma2) <= ROUTE_TOL * sol.sigma2
    records = records_by_name(chain, f, trials=3)
    assert records["spectral route"]["passed"] is True


def test_the_chain_keeps_no_eigenvectors(rng):
    kernel, pi = random_reversible_kernel(30, rng)
    chain = ReducedChain(kernel, pi)
    _, values, _ = checks.routes(chain, random_centered_observable(pi, rng))
    assert chain.reversible and "spectral" in values
    square = {name for name, value in vars(chain).items()
              if isinstance(value, np.ndarray) and value.shape == (chain.m, chain.m)}
    assert square == {"A", "inv", "cinv", "T"}
    assert chain.spectrum.shape == (chain.m,)


def test_a_nearly_reversible_chain_skips_the_spectral_route():
    # detailed balance fails by 6.7e-11, beyond the spectral route's 1e-12, so
    # every route must see the chain as non-reversible, not only the spectral one
    circulation = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    kernel = validate_kernel(np.full((3, 3), 1 / 3) + 1e-10 * circulation)
    chain = ReducedChain(kernel, stationary_distribution(kernel))
    f = np.array([1.0, 0.0, -1.0])
    _, values, _ = checks.routes(chain, f)
    assert not chain.reversible
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
    assert "spectral" not in checks.routes(ReducedChain(kernel, pi), f)[1]
    with pytest.raises(KernelError, match="not reversible"):
        reversible_inf(kernel, pi, f)


def test_a_reversible_battery_tests_detailed_balance_once(six, monkeypatch):
    # the routes, the spectral route and reversible_inf all read chain.reversible
    passes = []
    test = mavar.kernel.is_reversible

    def counted(P, pi):
        passes.append(P)
        return test(P, pi)

    monkeypatch.setattr(mavar.kernel, "is_reversible", counted)
    pi = stationary_distribution(six["P2"])
    chain = ReducedChain(six["P2"], pi)
    records, _ = checks.battery(chain, six["f1"], trials=3)
    assert "reversible minimum" in [r["name"] for r in records]
    assert len(passes) == 1 and chain.reversible is True
    # another pi is tested, not answered from the cache
    chain = ReducedChain(six["P2"], pi)
    assert chain.reversible
    assert not is_reversible(chain, np.full(6, 1 / 6) + np.linspace(-0.01, 0.01, 6))


ORTHOGONALITY = "orthogonality of phi against pi(f .) = 0"


def reference_normals(rng, n):
    """One probe's n normals from the random.Random rng, by the generator's
    definition: 2n uniforms, the top 53 bits of each little-endian 64-bit
    word of 16n bytes, paired by Box-Muller as (u_i, u_{n+i})."""
    data = rng.randbytes(16 * n)
    u = np.array([(int.from_bytes(data[8 * i:8 * i + 8], "little") >> 11) * 2.0 ** -53
                  for i in range(2 * n)])
    return np.sqrt(-2.0 * np.log(1.0 - u[:n])) * np.cos(2.0 * np.pi * u[n:])


def per_probe_orthogonality(chain, f, seed, trials):
    """battery's orthogonality residual, one probe and one call at a time, and
    the normals it drew, one row per probe."""
    sol = solve_dual_pair(chain, None, f)
    w = chain.pi
    rng = random.Random(seed)
    draws = []
    worst = 0.0
    for _ in range(trials):
        draws.append(reference_normals(rng, w.shape[0]))
        g = project_to_constraint(draws[-1], f, w, 0.0)
        worst = max(worst, abs(dirichlet_form(chain, None, sol.phi, g)),
                    abs(dirichlet_form(chain, None, g, sol.phi_star)))
    return worst, np.array(draws)


def seeded_cases():
    rng = np.random.default_rng(11)
    for n in (30, 200):
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
        yield kernel, pi, random_centered_observable(pi, rng)
    kernel, pi = random_reversible_kernel(30, rng)
    yield kernel, pi, random_centered_observable(pi, rng)


@pytest.mark.parametrize("trials", [1, 20, 65])
def test_blocked_probes_match_a_per_probe_loop(catalog_cases, trials, monkeypatch):
    # 65 probes cross a block boundary; the blocks draw the loop's normals in its order
    cases = list(catalog_cases) + list(seeded_cases())
    expected = [per_probe_orthogonality(ReducedChain(kernel, pi), f, 5, trials)
                for kernel, pi, f in cases]
    blocks = []
    standard_normals = checks._standard_normals

    def recording_normals(rng, k, n):
        blocks.append(standard_normals(rng, k, n))
        return blocks[-1]

    monkeypatch.setattr(checks, "_standard_normals", recording_normals)
    for (kernel, pi, f), (reference, draws) in zip(cases, expected):
        blocks.clear()
        got = records_by_name(ReducedChain(kernel, pi), f, seed=5, trials=trials)[
            ORTHOGONALITY]["residual"]
        assert abs(got - reference) <= 1e-12 * max(1.0, reference), (got, reference)
        assert all(b.shape[0] <= 64 for b in blocks)
        np.testing.assert_array_equal(np.concatenate(blocks), draws)


def test_the_probe_normals_are_standard():
    # 2 x 10^5 draws: mean and variance within 5 standard errors, tails as the normal's
    z = checks._standard_normals(random.Random(0), 4, 50_000).ravel()
    assert abs(z.mean()) < 5 * math.sqrt(1 / z.size)
    assert abs(z.var() - 1.0) < 5 * math.sqrt(2 / z.size)
    assert abs(np.mean(np.abs(z) > 1.96) - 0.05) < 5 * math.sqrt(0.05 * 0.95 / z.size)
    assert np.all(np.isfinite(z))


def test_probe_memory_does_not_grow_with_trials():
    rng = np.random.default_rng(2)
    n = 30
    kernel = random_irreducible_kernel(n, rng)
    pi = stationary_distribution(kernel)
    f = random_centered_observable(pi, rng)
    peaks = []
    for trials in (64, 10**5):
        chain = ReducedChain(kernel, pi)
        tracemalloc.start()
        try:
            checks.battery(chain, f, trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # probes run 64 at a time; drawing all at once would hold trials * n doubles (24 MB)
    assert peaks[1] <= peaks[0] + 64 * n * 8


@pytest.mark.parametrize("reversible", [True, False])
def test_the_battery_holds_at_most_four_arrays(reversible):
    # A, (I - S)^-1, T and the factored operator's one temporary set the peak:
    # I - A takes A's own memory, and (I - A)^-1 is gone by then.  The battery
    # takes the chain apart, so it holds no array after.
    # The rest is vectors and probe blocks of n x 64, at most 0.35 of an
    # array at n = 200.  LAPACK's workspaces are malloc'd where tracemalloc
    # does not see them.
    n = 200
    rng = np.random.default_rng(0)
    if reversible:
        kernel, pi = random_reversible_kernel(n, rng)
    else:
        kernel = random_irreducible_kernel(n, rng)
        pi = stationary_distribution(kernel)
    chain = ReducedChain(kernel, pi)
    assert chain.reversible is reversible
    f = random_centered_observable(pi, rng)
    battery = checks.battery  # loads the lazy module before tracing: its code is no array
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        battery(chain, f)
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    array = 8 * n * n
    assert peak < 4.35 * array and held < 0.35 * array, (peak / array, held / array)

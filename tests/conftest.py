import numpy as np
import pytest

from mavar import catalog, stationary_distribution


@pytest.fixture(scope="session")
def six():
    return catalog.six_cycle()


@pytest.fixture(scope="session")
def three():
    return catalog.three_state_pair()


@pytest.fixture(scope="session")
def fk():
    return catalog.fk_pair()


@pytest.fixture(scope="session")
def four():
    return catalog.four_cycle_lift()


@pytest.fixture(scope="session")
def tridiag():
    return catalog.tridiag_drift()


@pytest.fixture(scope="session")
def uniform3():
    return catalog.uniform3()


@pytest.fixture(scope="session")
def catalog_cases(six, three, fk, uniform3):
    """The 13 catalog (kernel, pi, f) cases of the variational suite."""
    probe3 = np.array([1.0, 0.0, -1.0])
    cases = [
        (six["P1"], six["f1"]), (six["P1"], six["f2"]),
        (six["P2"], six["f1"]), (six["P2"], six["f2"]),
        (three["P1"], three["g1"]), (three["P1"], three["g2"]),
        (three["P2"], three["g1"]), (three["P2"], three["g2"]),
        (fk["P"], probe3), (fk["Q"], probe3),
        (uniform3["P"], probe3), (uniform3["P1"], probe3), (uniform3["P2"], probe3),
    ]
    return [(kernel, stationary_distribution(kernel), np.asarray(f, dtype=float))
            for kernel, f in cases]


@pytest.fixture
def rng():
    return np.random.default_rng(0)

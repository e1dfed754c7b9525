import numpy as np
import pytest
from hypothesis import settings

from fracvolt import ExponentialWeight, StandardWeight, TailExprWeight, TaylorSeries

# property tests draw the same examples on every run, with no time limit
# per example and no example database written to disk
settings.register_profile("fracvolt", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("fracvolt")


@pytest.fixture(scope="session")
def std1():
    return StandardWeight(1.0)


@pytest.fixture(scope="session")
def std2():
    return StandardWeight(2.0)


@pytest.fixture(scope="session")
def exp_weight():
    return ExponentialWeight(1.0, 1.0)


@pytest.fixture(scope="session")
def slow_tail_weight():
    # tail 1/(1 + log(1/(1-r))): slowly varying, the lower-doubling failure
    return TailExprWeight("1/(1+log(1/(1-r)))")


def random_polynomial(rng, degree, complex_coeffs=True):
    c = rng.standard_normal(degree + 1)
    if complex_coeffs:
        c = c + 1j * rng.standard_normal(degree + 1)
    c = c / np.linalg.norm(c)
    return TaylorSeries.from_coeffs(c)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240813)

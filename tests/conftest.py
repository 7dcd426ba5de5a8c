import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_equatorial_phase(rng):
    return float(rng.uniform(0.0, 2.0 * np.pi))

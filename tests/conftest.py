import tracemalloc

import numpy as np
import pytest

from rotor_spectra import build_band_model, laplacian_generator

CASE_BETA = (np.pi / 20, np.e / 7, 1 / np.sqrt(2))
CASE_L = (11, 7, 15)


@pytest.fixture(scope="session")
def case_model():
    return build_band_model(CASE_BETA, CASE_L)


@pytest.fixture(scope="session")
def case_gen():
    return laplacian_generator(33)


@pytest.fixture(scope="session")
def two_band_model():
    """The smallest nontrivial two-band model used in worked examples."""
    return build_band_model([0.0, 0.25], [1, 1])


@pytest.fixture(scope="session")
def two_band_gen():
    return laplacian_generator(2)


def traced_peak(fn, *args):
    """The tracemalloc peak of ``fn(*args)`` in bytes: the most it holds at
    once of what it allocates, beyond what the caller already holds."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_banded_model(rng, max_bands=4, max_width=5):
    """A random model with distinct speeds and positive widths."""
    s = int(rng.integers(1, max_bands + 1))
    beta = np.round(rng.uniform(-1, 1, size=s), 6)
    while len(set(beta)) != s:
        beta = np.round(rng.uniform(-1, 1, size=s), 6)
    widths = rng.integers(1, max_width + 1, size=s)
    return build_band_model(beta, widths)

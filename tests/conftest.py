import os

import numpy as np
import pytest
from hypothesis import settings

from tniso.codes import make_example2_channel, make_repetition_example

# CI replays the same examples on every run; per-test max_examples still apply
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def repetition():
    """The 3-qubit repetition system at p = 0.4."""
    return make_repetition_example(0.4)


@pytest.fixture(scope="session")
def example2_channel():
    return make_example2_channel(0.4, 0.05)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
RHO_COHERENT = 0.5 * np.ones((2, 2), dtype=complex)

import os

import numpy as np
import pytest
from hypothesis import settings

from tniso import serialize
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


def nested_form(payload):
    """A data file's payload with every packed matrix in the nested form,
    as files were written before matrices were packed."""
    if isinstance(payload, dict) and serialize.PACKED_TAG in payload:
        ndim = len(payload["shape"])
        return serialize.matrix_to_json(serialize.matrix_from_json(payload, "packed", ndim))
    if isinstance(payload, dict):
        return {key: nested_form(value) for key, value in payload.items()}
    return payload

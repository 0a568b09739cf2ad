import os

import numpy as np
import pytest
from hypothesis import settings

from tniso import serialize
from tniso.channels import KrausChannel
from tniso.codes import make_example2_channel, make_repetition_example
from tniso.errors import ContractViolation, ConvergenceError
from tniso.opcore import trace_norm
from tniso.sampling import haar_unitary, random_density

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


# contraction-witness state pairs closer than this in trace norm are resampled
PAIR_DISTANCE_FLOOR = 1e-12


def trace_norm_contraction_witness(
    channel: KrausChannel,
    samples: int,
    seed: int = 0,
    state_sampler=None,
) -> float:
    """Max observed ratio ||E(r1)-E(r2)||_1 / ||r1-r2||_1 over random pairs.

    CPTP maps never increase trace distance, so the result must not exceed
    1 beyond rounding. Pairs closer than ``PAIR_DISTANCE_FLOOR`` in trace
    norm are resampled.
    ``state_sampler(rng) -> ndarray`` overrides the default Haar-mixed
    sampler (useful for restricting to encoded states).
    """
    if samples < 1:
        raise ContractViolation(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ContractViolation(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    if state_sampler is None:
        state_sampler = lambda r: random_density(channel.dim_in, r)
    worst = 0.0
    for _ in range(samples):
        for _attempt in range(100):
            r1, r2 = state_sampler(rng), state_sampler(rng)
            dist = trace_norm(r1 - r2)
            if dist > PAIR_DISTANCE_FLOOR:
                break
        else:
            raise ConvergenceError("could not sample a non-degenerate state pair")
        ratio = trace_norm(channel(r1) - channel(r2)) / dist
        worst = max(worst, ratio)
    return worst


def random_unital_channel(
    dim: int, rng: np.random.Generator, unitary_count: int = 3
) -> KrausChannel:
    """Random mixed-unitary channel (unital and CPTP by construction)."""
    w = rng.dirichlet(np.ones(unitary_count))
    ops = [np.sqrt(p) * haar_unitary(dim, rng) for p in w]
    return KrausChannel(ops)

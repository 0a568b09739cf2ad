import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from tniso import serialize
from tniso.channels import KrausChannel, Superoperator
from tniso.codes import make_example2_channel, make_repetition_example
from tniso.errors import ContractViolation, ConvergenceError
from tniso.opcore import (
    _psd_eigh,
    _trace_norms,
    above_rank_cut,
    eigh_clamped,
    require_hermitian,
    trace_norm,
)
from tniso import tolerances as tol
from tniso.robustness import _iterates
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


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random state vector of the given dimension."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def sampled_per_round(perturbed, channel, recovery, horizon: int) -> np.ndarray:
    """Per-round maxima of ``||L^n phi'(rho) - phi(rho)||_1`` over the d_S + 9
    states the perturbed-correctability check once sampled: the maximally
    mixed state, the logical basis states, then 8 random states from seed 0,
    pure and mixed by turns; each state's iterates are one stack and one
    batched trace-norm call. A lower end, which the certified curve must
    never fall below."""
    nominal, rng = perturbed.nominal, np.random.default_rng(0)
    d = nominal.dim_logical
    states = [np.eye(d, dtype=complex) / d] + [np.diag(e) for e in np.eye(d, dtype=complex)]
    for i in range(8):
        if i % 2 == 0:
            v = random_pure_state(d, rng)
            states.append(np.outer(v, v.conj()))
        else:
            states.append(random_density(d, rng))
    per_round = np.zeros(horizon + 1)
    for rho in states:
        xs = _iterates(channel, recovery, perturbed.apply(rho), horizon)
        per_round = np.maximum(per_round, _trace_norms(xs - nominal.encode(rho)))
    return per_round


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


def iterative_cesaro_projector(
    channel: KrausChannel, max_n: int = 2**48, tol_: float = 1e-8
) -> Superoperator:
    """The fixed-point projector of a square channel as the limit of averaged
    powers ``(1/N) sum_{i<N} E^i``, kept as an independent reference for
    :func:`tniso.channels.cesaro_projector`'s spectral projector.

    The partial averages are evaluated exactly at doubling N via
    ``sum_{i<2N} S^i = (I + S^N) sum_{i<N} S^i``, stopping once successive
    averages differ by less than ``tol_``. Each doubling halves the error
    until rounding in the repeated squaring takes over near 1e-8; past that
    floor the iteration raises ``ConvergenceError`` with the best residual
    reached.
    """
    s = channel.superoperator().matrix
    avg = (np.eye(s.shape[0], dtype=complex) + s) / 2.0  # N = 1 partial average
    power = s @ s                                        # S^(N+1) for current N+1=2
    n_terms = 2
    best = float("inf")
    while n_terms <= max_n:
        nxt = (avg + power @ avg) / 2.0
        delta = float(np.abs(nxt - avg).max())
        avg = nxt
        n_terms *= 2
        if delta < tol_:
            return Superoperator(channel.dim_in, channel.dim_out, avg)
        if delta < best:
            best = delta
        elif delta > 4.0 * best:
            break  # rounding noise dominates; no further progress possible
        power = power @ power
    raise ConvergenceError(
        f"Cesaro averaging did not reach {tol_:g} within {max_n} terms",
        residual=best,
    )


def _kron_matrix(stack: np.ndarray, tau: np.ndarray, d: int) -> np.ndarray:
    """The matrix of ``X -> sum_k A_k (X kron tau) A_k^dag`` for the stack
    A, by the kron formula: column ``a + d*b`` is
    ``vec(sum_k A_k (E_ab kron tau) A_k^dag)``, the d^2 units kron tau in
    one batched product per A_k."""
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d, order="F")
    blocks = np.kron(units, tau[None])
    images = sum(a @ blocks @ a.conj().T for a in stack).transpose(1, 2, 0)
    return images.reshape(stack.shape[1] ** 2, -1, order="F")


def code_superoperator(encoding) -> Superoperator:
    """The code's superoperator by its matrix units, kept as the reference:
    column ``a + d_S*b`` is ``vec(U_1 (E_ab kron tau) U_1^dag)``."""
    dec = encoding.decomposition
    matrix = _kron_matrix(dec.block_columns[None], encoding.cofactor, dec.d_s)
    return Superoperator(dec.d_s, dec.d_p, matrix)


def factored_matrix(s: Superoperator) -> np.ndarray:
    """The matrix of a map held by its factors (A, tau), formed by the kron
    formula, kept as the reference for the package's Gram product."""
    return _kron_matrix(*s._factors, s.dim_in)


def fixes_span(x: np.ndarray, image: np.ndarray) -> bool:
    """Whether a square map S fixes every vector in span(x), given ``image = S x``.

    The generic reference for the code-span check: Q is an orthonormal
    basis of span(x), the left singular vectors of ``x = U Sigma V^H``
    above ``SPAN_CLOSURE_TOL`` of x's norm, so S Q is read off the image as
    ``image V Sigma^-1``. S fixes span(Q) when it maps it into itself (the
    part of S Q off span(Q) is below ``SPAN_CLOSURE_TOL`` of its norm) and
    every singular value of ``Q^H S Q - I`` is below ``KERNEL_TOL``.
    """
    if image.shape != x.shape:
        raise ContractViolation(f"image shape {image.shape}, expected {x.shape} (a square map)")
    u, sv, vh = np.linalg.svd(x, full_matrices=False)
    keep = sv > tol.SPAN_CLOSURE_TOL * float(np.linalg.norm(x))
    q = u[:, keep]
    s_q = image @ (vh[keep].conj().T / sv[keep])
    h = q.conj().T @ s_q
    if np.linalg.norm(s_q - q @ h, 2) > tol.SPAN_CLOSURE_TOL * float(np.linalg.norm(s_q)):
        return False
    return bool((np.linalg.svd(h - np.eye(q.shape[1]), compute_uv=False) < tol.KERNEL_TOL).all())


@dataclass(eq=False)
class HermitianOperator:
    """A square complex matrix verified Hermitian at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = require_hermitian(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def positive_negative_parts(z):
    """Split a Hermitian Z into (Z+, Z-) with Z = Z+ - Z-, both PSD.

    Eigenvalues within ``EIG_CLAMP_TOL`` of zero are clamped, so the two
    parts have exactly orthogonal supports.
    """
    w, v = eigh_clamped(z)
    pos = (v * np.maximum(w, 0.0)) @ v.conj().T
    neg = (v * np.maximum(-w, 0.0)) @ v.conj().T
    return (pos + pos.conj().T) / 2, (neg + neg.conj().T) / 2


def pinv_psd(a) -> np.ndarray:
    """Moore-Penrose inverse of a PSD operator.

    Inverts on the support and annihilates the kernel, as cut by
    :func:`tniso.opcore.above_rank_cut`.
    """
    w, v = _psd_eigh(a)
    keep = above_rank_cut(w)
    inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    return (v * inv) @ v.conj().T


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Hilbert-Schmidt-orthonormal Hermitian basis of the d x d operators.

    Ordering: diagonal units first, then symmetric and antisymmetric
    off-diagonal combinations.
    """
    basis = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / np.sqrt(2)
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = -1j / np.sqrt(2)
            e[j, i] = 1j / np.sqrt(2)
            basis.append(e)
    return basis

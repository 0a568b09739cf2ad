"""Subsystem decompositions and isometric state/observable encodings.

A decomposition splits the physical space as (logical x cofactor) + remainder
via an explicit basis unitary. A state encoding places the logical state on
the tensor factor next to a fixed cofactor state and zero on the remainder;
an observable encoding extends logical observables with identity on the
cofactor and an arbitrary Hermitian block on the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import KrausChannel, Superoperator, _hermitian_trace_defect, convex_mix
from .errors import ContractViolation
from .opcore import (
    above_rank_cut,
    as_matrix,
    eigh_clamped,
    require_hermitian,
    support_projector,
    trace_norm,
)
from . import tolerances as tol


@dataclass(eq=False)
class SubsystemDecomposition:
    """Physical space split as (logical x cofactor) + remainder.

    ``basis`` is a d_P x d_P unitary whose first d_S*d_F columns are the
    product basis vectors in row-major (logical, cofactor) order; the
    remaining d_R columns span the remainder.
    """

    d_s: int
    d_f: int
    d_r: int
    basis: np.ndarray

    def __post_init__(self):
        self.basis = as_matrix(self.basis)
        d_p = self.d_s * self.d_f + self.d_r
        if min(self.d_s, self.d_f) < 1 or self.d_r < 0:
            raise ContractViolation("dimensions must satisfy d_s,d_f >= 1, d_r >= 0")
        if self.basis.shape != (d_p, d_p):
            raise ContractViolation(
                f"basis shape {self.basis.shape}, expected ({d_p}, {d_p})"
            )
        defect = np.abs(self.basis.conj().T @ self.basis - np.eye(d_p)).max()
        if defect > tol.UNITARY_TOL:
            raise ContractViolation(f"basis is not unitary (defect {defect:.3e})")

    @property
    def d_p(self) -> int:
        return self.d_s * self.d_f + self.d_r

    @property
    def block_columns(self) -> np.ndarray:
        """The d_P x (d_S*d_F) isometry onto the logical-cofactor block."""
        return self.basis[:, : self.d_s * self.d_f]

    def embed(self, block: np.ndarray) -> np.ndarray:
        """Lift an operator on the logical-cofactor block into the full space."""
        u1 = self.block_columns
        return u1 @ block @ u1.conj().T

    def restrict(self, x) -> np.ndarray:
        """Compress a physical-space operator to the logical-cofactor block."""
        u1 = self.block_columns
        return u1.conj().T @ as_matrix(x) @ u1


@dataclass(eq=False)
class IsometricEncoding:
    """State encoding rho -> basis (rho kron cofactor (+) 0) basis^dag.

    The linear extension to all of operator space preserves the trace norm,
    which is what makes the image a faithfully decodable code.
    """

    decomposition: SubsystemDecomposition
    cofactor: np.ndarray

    def __post_init__(self):
        self.cofactor = require_hermitian(self.cofactor)
        d_f = self.decomposition.d_f
        if self.cofactor.shape != (d_f, d_f):
            raise ContractViolation(
                f"cofactor shape {self.cofactor.shape}, expected ({d_f}, {d_f})"
            )
        w = np.linalg.eigvalsh(self.cofactor)
        if w.min() < -tol.PSD_TOL or abs(w.sum() - 1) > tol.TRACE_TOL:
            raise ContractViolation("cofactor must be a density operator")

    @classmethod
    def trivial(cls, dim: int) -> "IsometricEncoding":
        """The identity encoding (cofactor and remainder both trivial)."""
        dec = SubsystemDecomposition(dim, 1, 0, np.eye(dim))
        return cls(dec, np.ones((1, 1)))

    @property
    def dim_logical(self) -> int:
        return self.decomposition.d_s

    @property
    def dim_physical(self) -> int:
        return self.decomposition.d_p

    @property
    def weights(self) -> np.ndarray:
        """Cofactor spectrum, descending."""
        return np.linalg.eigvalsh(self.cofactor)[::-1]

    @property
    def is_minimal(self) -> bool:
        return bool(above_rank_cut(self.weights).all())

    def with_cofactor(self, cofactor) -> "IsometricEncoding":
        return IsometricEncoding(self.decomposition, as_matrix(cofactor))

    def encode(self, rho) -> np.ndarray:
        """Linear extension of the encoding to arbitrary logical operators."""
        rho = as_matrix(rho)
        d_s = self.decomposition.d_s
        if rho.shape != (d_s, d_s):
            raise ContractViolation(f"logical shape {rho.shape}, expected ({d_s}, {d_s})")
        return self.decomposition.embed(np.kron(rho, self.cofactor))

    def decode(self, x) -> np.ndarray:
        """Compress to the logical-cofactor block, then trace out the cofactor."""
        return self._decoded(as_matrix(x))

    def _decoded(self, stack: np.ndarray) -> np.ndarray:
        """:meth:`decode` of each matrix of a finite stack, with no operand check."""
        dec = self.decomposition
        block = dec.block_columns.conj().T @ stack @ dec.block_columns
        return np.einsum("...afbf->...ab", block.reshape(stack.shape[:-2] + (dec.d_s, dec.d_f) * 2))

    def superoperator(self) -> Superoperator:
        """Column ``a + d_S*b`` is ``vec(encode(E_ab))``, all in one batched product."""
        dec = self.decomposition
        u1, d = dec.block_columns, dec.d_s
        units = np.eye(d * d, dtype=complex).reshape(d * d, d, d, order="F")
        images = (u1 @ np.kron(units, self.cofactor[None]) @ u1.conj().T).transpose(1, 2, 0)
        return Superoperator(d, dec.d_p, images.reshape(dec.d_p**2, -1, order="F"))

    def code_projector(self) -> np.ndarray:
        """Projector onto the support of the encoded state set."""
        max_mixed = np.eye(self.decomposition.d_s) / self.decomposition.d_s
        return support_projector(self.encode(max_mixed))

    def minimalize(self) -> "IsometricEncoding":
        """Shrink the cofactor to its support, growing the remainder.

        The returned encoding has a full-rank diagonal cofactor, rescaled to
        unit trace when the rank cut drops small weights; columns of the
        basis are reordered so dropped cofactor directions join the
        remainder.
        """
        dec = self.decomposition
        w, v = eigh_clamped(self.cofactor)
        order = np.argsort(w)[::-1]
        w, v = w[order], v[:, order]
        rank = int(np.count_nonzero(above_rank_cut(w)))
        if rank < dec.d_f:
            w = w / w[:rank].sum()
        # rotate cofactor coordinates to the eigenbasis
        rot = np.kron(np.eye(dec.d_s), v)
        u1 = dec.block_columns @ rot
        cols = [u1[:, s * dec.d_f + f] for s in range(dec.d_s) for f in range(rank)]
        dropped = [u1[:, s * dec.d_f + f] for s in range(dec.d_s) for f in range(rank, dec.d_f)]
        rest = [dec.basis[:, dec.d_s * dec.d_f + r] for r in range(dec.d_r)]
        basis = np.stack(cols + dropped + rest, axis=1)
        new_dec = SubsystemDecomposition(dec.d_s, rank, dec.d_p - dec.d_s * rank, basis)
        return IsometricEncoding(new_dec, np.diag(w[:rank]))


@dataclass(eq=False)
class ObservableEncoding:
    """Observable encoding A -> basis (A kron I_F (+) X_R) basis^dag."""

    decomposition: SubsystemDecomposition
    remainder: np.ndarray | None = None

    def __post_init__(self):
        d_r = self.decomposition.d_r
        if self.remainder is None:
            self.remainder = np.zeros((d_r, d_r), dtype=complex)
        self.remainder = require_hermitian(self.remainder) if d_r else np.zeros((0, 0))
        if self.remainder.shape != (d_r, d_r):
            raise ContractViolation(
                f"remainder shape {self.remainder.shape}, expected ({d_r}, {d_r})"
            )

    def encode_observable(self, a) -> np.ndarray:
        a = as_matrix(a)
        dec = self.decomposition
        if a.shape != (dec.d_s, dec.d_s):
            raise ContractViolation(
                f"observable shape {a.shape}, expected ({dec.d_s}, {dec.d_s})"
            )
        block = np.zeros((dec.d_p, dec.d_p), dtype=complex)
        n = dec.d_s * dec.d_f
        block[:n, :n] = np.kron(a, np.eye(dec.d_f))
        block[n:, n:] = self.remainder
        return dec.basis @ block @ dec.basis.conj().T


@dataclass(eq=False)
class PerturbedEncoding:
    """A nominal encoding plus a bounded perturbation on its image.

    The perturbation must preserve Hermiticity and have traceless images so
    the perturbed map still sends states to unit-trace Hermitian operators.
    ``epsilon`` is the certified trace-norm bound on the perturbation of any
    state.
    """

    nominal: IsometricEncoding
    perturbation: Superoperator
    epsilon: float

    def __post_init__(self):
        d_s = self.nominal.dim_logical
        d_p = self.nominal.dim_physical
        if (self.perturbation.dim_in, self.perturbation.dim_out) != (d_s, d_p):
            raise ContractViolation("perturbation dimensions do not match the encoding")
        if not 0 <= self.epsilon < np.inf:  # refuses nan, which compares false
            raise ContractViolation(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        worst = _hermitian_trace_defect(self.perturbation, 0.0)
        if worst > tol.PERTURBATION_TOL:
            raise ContractViolation(
                f"perturbation is not Hermiticity-preserving and traceless (defect {worst:.3e})"
            )

    def apply(self, rho) -> np.ndarray:
        return self.nominal.encode(rho) + self.perturbation(as_matrix(rho))

    def superoperator(self) -> Superoperator:
        nom = self.nominal.superoperator()
        return Superoperator(nom.dim_in, nom.dim_out, nom.matrix + self.perturbation.matrix)


class FaithfulnessReport(NamedTuple):
    statics: float
    unitary_dynamics: float
    measurement_dynamics: float

    @property
    def max_residual(self) -> float:
        return max(self)


def _eigen_clusters(w: np.ndarray, gap: float):
    """Group sorted eigenvalues into clusters separated by more than gap."""
    order = np.argsort(w)
    clusters, current = [], [order[0]]
    for idx in order[1:]:
        if w[idx] - w[current[-1]] <= gap:
            current.append(idx)
        else:
            clusters.append(current)
            current = [idx]
    clusters.append(current)
    return clusters


def _expm_herm(h: np.ndarray, sign: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(sign * 1j * w)) @ v.conj().T


def verify_faithfulness(
    encoding: IsometricEncoding,
    observables: ObservableEncoding,
    samples: int = 50,
    seed: int = 0,
) -> FaithfulnessReport:
    """Check the three faithfulness conditions on random (state, observable) pairs.

    (1) statics: encoded expectation values match logical ones;
    (2) unitary dynamics: conjugation by exp(-i encoded A) commutes with encoding;
    (3) measurement dynamics: sandwiching by eigenprojectors of the encoded
        observable decodes to the logical eigenprojector sandwich and stays
        supported on the logical-cofactor block.

    Returns the max residual observed per condition.
    """
    from .sampling import random_density

    if encoding.decomposition is not observables.decomposition:
        same = (
            encoding.decomposition.d_s == observables.decomposition.d_s
            and encoding.decomposition.d_f == observables.decomposition.d_f
            and np.allclose(encoding.decomposition.basis, observables.decomposition.basis)
        )
        if not same:
            raise ContractViolation("encodings must share one decomposition")
    if samples < 1:
        raise ContractViolation(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ContractViolation(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    d_s = encoding.dim_logical
    u1 = encoding.decomposition.block_columns
    comp = np.eye(encoding.dim_physical) - u1 @ u1.conj().T

    r_static = r_unitary = r_measure = 0.0
    for _ in range(samples):
        rho = random_density(d_s, rng)
        a = rng.standard_normal((d_s, d_s)) + 1j * rng.standard_normal((d_s, d_s))
        a = (a + a.conj().T) / 2
        sigma = encoding.encode(rho)
        x = observables.encode_observable(a)

        r_static = max(
            r_static, abs(complex(np.trace(sigma @ x)) - complex(np.trace(rho @ a)))
        )

        u_phys = _expm_herm(x, -1.0)
        u_log = _expm_herm(a, -1.0)
        lhs = u_phys @ sigma @ u_phys.conj().T
        rhs = encoding.encode(u_log @ rho @ u_log.conj().T)
        r_unitary = max(r_unitary, trace_norm(lhs - rhs))

        w_a, v_a = np.linalg.eigh(a)
        w_x, v_x = np.linalg.eigh(x)
        for cluster in _eigen_clusters(w_a, tol.SPECTRAL_GAP_TOL):
            lam = float(np.mean(w_a[cluster]))
            pa = v_a[:, cluster] @ v_a[:, cluster].conj().T
            window = tol.SPECTRAL_GAP_TOL + tol.EIGENVALUE_WINDOW * max(1.0, abs(lam))
            sel = np.abs(w_x - lam) <= window
            px = v_x[:, sel] @ v_x[:, sel].conj().T
            sand = px @ sigma @ px
            r_measure = max(
                r_measure,
                trace_norm(encoding.decode(sand) - pa @ rho @ pa),
                float(np.abs(comp @ sand).max()),
            )
    return FaithfulnessReport(r_static, r_unitary, r_measure)


# ---------------------------------------------------------------------------
# Named example systems: the three-qubit repetition code under single-error
# bit-flip noise, and its bit-flip/phase-flip mixture variant.
# ---------------------------------------------------------------------------

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def majority_basis_unitary() -> np.ndarray:
    """Basis permutation relabeling three qubits as (majority bit, deviation).

    Column (x, yz) holds the computational vector |abc> with majority bit x
    and deviation tag yz: 00 = no deviation, 01/10/11 = the deviating qubit
    is the first/second/third. This pins the labeling so golden values are
    reproducible; any consistent choice yields the same physics.
    """
    u = np.zeros((8, 8))
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                bits = (a, b, c)
                x = 1 if a + b + c >= 2 else 0
                devs = [i for i, t in enumerate(bits) if t != x]
                yz = 0 if not devs else devs[0] + 1
                u[4 * a + 2 * b + c, 4 * x + yz] = 1.0
    return u


def _single_qubit_flip_channel(p: float, flip: np.ndarray) -> KrausChannel:
    """Single-error model on 3 qubits: no error w.p. 1-p, else one flip."""
    eye = np.eye(2, dtype=complex)
    ops = [np.sqrt(1.0 - p) * np.eye(8, dtype=complex)]
    for site in range(3):
        factors = [eye, eye, eye]
        factors[site] = flip
        ops.append(np.sqrt(p / 3.0) * np.kron(np.kron(factors[0], factors[1]), factors[2]))
    return KrausChannel(ops)


def bit_flip_channel(p: float) -> KrausChannel:
    if not 0.0 <= p < 0.5:
        raise ContractViolation("flip probability must satisfy 0 <= p < 1/2")
    return _single_qubit_flip_channel(p, _PAULI_X)


def phase_flip_channel(p: float) -> KrausChannel:
    if not 0.0 <= p < 0.5:
        raise ContractViolation("flip probability must satisfy 0 <= p < 1/2")
    return _single_qubit_flip_channel(p, _PAULI_Z)


class RepetitionExample(NamedTuple):
    encoding: IsometricEncoding
    channel: KrausChannel
    recovery: KrausChannel
    sigma: np.ndarray


def make_repetition_example(p: float) -> RepetitionExample:
    """The 3-qubit repetition code with single-error bit-flip noise.

    Returns the encoding (logical qubit, 4-dim cofactor pinned to the
    no-deviation state), the bit-flip channel, the replace-style recovery
    that resets the deviation register, and the cofactor image
    sigma = (1-p)|00><00| + p/3 (other deviation states).
    """
    if not 0.0 <= p < 0.5:
        raise ContractViolation("flip probability must satisfy 0 <= p < 1/2")
    u = majority_basis_unitary()
    dec = SubsystemDecomposition(2, 4, 0, u)
    cof = np.zeros((4, 4), dtype=complex)
    cof[0, 0] = 1.0
    encoding = IsometricEncoding(dec, cof)
    channel = bit_flip_channel(p)
    e4 = np.eye(4)
    recovery = KrausChannel(
        [u @ np.kron(np.eye(2), np.outer(e4[:, 0], e4[:, j])) @ u.conj().T for j in range(4)]
    )
    sigma = np.diag([1.0 - p, p / 3.0, p / 3.0, p / 3.0]).astype(complex)
    return RepetitionExample(encoding, channel, recovery, sigma)


def make_example2_channel(p: float, epsilon: float) -> KrausChannel:
    """Bit-flip noise contaminated by a phase-flip component of weight epsilon."""
    if not 0.0 <= epsilon <= 1.0:
        raise ContractViolation("epsilon must lie in [0, 1]")
    return convex_mix([1.0 - epsilon, epsilon], [bit_flip_channel(p), phase_flip_channel(p)])

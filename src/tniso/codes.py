"""Subsystem decompositions and isometric state/observable encodings.

A decomposition splits the physical space as (logical x cofactor) + remainder
via an explicit basis unitary. A state encoding places the logical state on
the tensor factor next to a fixed cofactor state and zero on the remainder;
an observable encoding extends logical observables with identity on the
cofactor and an arbitrary Hermitian block on the remainder.
:func:`verify_faithfulness` checks that an observable encoding carries
statics, unitary dynamics and measurement dynamics over to a state encoding,
exactly: from the intertwining defect X(A) U_1 - U_1 (A kron I_F) on the
zero operator, a Hermitian basis and the logical matrix units, with no
random sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import KrausChannel, Superoperator, _hermitian_trace_defect, convex_mix
from .errors import ContractViolation
from .opcore import (
    _trace_norms,
    above_rank_cut,
    as_matrix,
    eigh_clamped,
    hermiticity_defect,
    require_hermitian,
    support_projector,
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

    @classmethod
    def _trusted(cls, d_s: int, d_f: int, d_r: int, basis: np.ndarray) -> "SubsystemDecomposition":
        """A decomposition whose complex basis is unitary by construction,
        taken without the constructor's checks."""
        dec = object.__new__(cls)
        dec.d_s, dec.d_f, dec.d_r, dec.basis = d_s, d_f, d_r, basis
        return dec

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
    def _trusted(cls, decomposition: SubsystemDecomposition, cofactor: np.ndarray) -> "IsometricEncoding":
        """An encoding whose complex cofactor is a density operator of the
        decomposition's d_F by construction, taken without the constructor's
        checks."""
        enc = object.__new__(cls)
        enc.decomposition, enc.cofactor = decomposition, cofactor
        return enc

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
        """Column ``a + d_S*b`` is ``vec(encode(E_ab))``. The map is
        ``rho -> U_1 (rho kron tau) U_1^dag`` (U_1 the block columns, tau the
        cofactor), so its matrix is one tau-weighted Gram product of U_1, and
        the map keeps U_1 and tau as its factors (see
        :meth:`tniso.channels.Superoperator._factored`)."""
        return Superoperator._factored(self.decomposition.block_columns[None], self.cofactor)

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


def _observable_units(d: int) -> np.ndarray:
    """The zero operator, then the Hermitian basis E_ii, E_ij + E_ji and
    i(E_ij - E_ji) for i < j: d^2 + 1 logical observables."""
    units = np.eye(d * d, dtype=complex).reshape(d, d, d, d)  # units[i, j] = E_ij
    i, j = np.triu_indices(d, 1)
    upper, lower = units[i, j], units[j, i]
    diagonal = units[np.arange(d), np.arange(d)]
    return np.concatenate([np.zeros((1, d, d)), diagonal, upper + lower, 1j * (upper - lower)])


def verify_faithfulness(
    encoding: IsometricEncoding,
    observables: ObservableEncoding,
) -> FaithfulnessReport:
    """Check the three faithfulness conditions exactly, on matrix units.

    (1) statics: encoded expectation values match logical ones;
    (2) unitary dynamics: exp(-i t X(A)) acts on encoded states as exp(-i t A)
        acts on logical ones, for every t;
    (3) measurement dynamics: sandwiching by spectral projectors of X(A)
        decodes to the logical sandwich and stays on the code block.

    With U_1 the block columns, V_k its k-th block of d_F columns, tau the
    cofactor and X the observable encoding, the code is
    phi(E_kl) = V_k tau V_l^dag, and the intertwining defect
    D(A) = X(A) U_1 - U_1 (A kron I_F) has column blocks D_k(A) with
    L(A, k, l) = X(A) phi(E_kl) - phi(A E_kl) = D_k(A) tau V_l^dag. Over the
    zero operator and the Hermitian basis of :func:`_observable_units`, and
    every k and l, the report holds:

    - statics = max |Tr L(A, k, l)|, the defect of
      Tr(X(A) phi(rho)) = Tr(A rho), since phi is trace preserving;
    - unitary_dynamics = max ||L(A, k, l) - L(A, l, k)^dag||_1, the defect of
      the commutator identity [X(A), phi(rho)] = phi([A, rho]), which
      generates exp(-i t X(A)) phi(rho) exp(i t X(A)) = phi(exp(-i t A) rho
      exp(i t A)) for every t;
    - measurement_dynamics = max ||D_k(A) tau||_1 = max ||L(A, k, l)||_1, the
      defect of X(A) phi(rho) = phi(A rho). With X(A) Hermitian it gives
      p(X) phi(rho) q(X) = phi(p(A) rho q(A)) for polynomials p and q, so
      every spectral projector of X(A) (a polynomial in it) acts on encoded
      states as the matching projector of A, and their images stay on the
      code block.

    Each identity's defect is affine in A and linear in rho, so a field is 0
    exactly when its condition holds for every Hermitian A and every rho: a
    Hermitian A = sum_j c_j B_j over the basis, with real c_j, is the affine
    combination (1 - sum_j c_j) 0 + sum_j c_j B_j of checked observables, and
    rho is a combination of the E_kl. This needs ``encode_observable`` to be
    affine and to return Hermitian d_P x d_P matrices. An affine encoding
    need not map 0 to 0 (:class:`ObservableEncoding` maps it to its
    remainder block), which is why the zero operator is checked. A result of
    another shape, or not Hermitian within ``HERMITICITY_TOL``, is refused.
    No sample is drawn: two calls return the same report bit for bit.
    """
    dec, other = encoding.decomposition, observables.decomposition
    if dec is not other:
        dims, other_dims = (dec.d_s, dec.d_f, dec.d_r), (other.d_s, other.d_f, other.d_r)
        if dims != other_dims or not np.allclose(dec.basis, other.basis):
            raise ContractViolation(
                f"encodings must share one decomposition, got dimensions {dims} and {other_dims}"
            )
    d_s, d_f, d_p = dec.d_s, dec.d_f, dec.d_p
    units = _observable_units(d_s)
    x = np.empty((len(units), d_p, d_p), dtype=complex)
    for n, a in enumerate(units):
        x_a = as_matrix(observables.encode_observable(a))
        if x_a.shape != (d_p, d_p):
            raise ContractViolation(
                f"encode_observable returned shape {x_a.shape}, expected ({d_p}, {d_p})"
            )
        skew = hermiticity_defect(x_a)
        if skew > tol.HERMITICITY_TOL:
            raise ContractViolation(
                f"encode_observable returned a non-Hermitian matrix (defect {skew:.3e})"
            )
        x[n] = x_a

    u1 = dec.block_columns
    v = u1.reshape(d_p, d_s, d_f)
    defect = (x @ u1).reshape(-1, d_p, d_s, d_f) - np.einsum("pif,aik->apkf", v, units)
    defect = defect.transpose(0, 2, 1, 3)  # D_k(A), indexed [A, k]
    v = np.broadcast_to(v.transpose(1, 0, 2), defect.shape)  # V_k, indexed [A, k]
    d_tau = defect @ encoding.cofactor
    statics = np.abs(np.einsum("akpf,alpf->akl", d_tau, v.conj())).max()
    # L(A,k,l) - L(A,l,k)^dag = P_k Q_l^dag with P_k = [D_k tau, V_k tau] and
    # Q_l = [V_l, -D_l]: its trace norm is that of R_P R_Q^dag, the product
    # of their triangular QR factors, as the Q factors are isometries
    r_p = np.linalg.qr(np.concatenate([d_tau, v @ encoding.cofactor], -1))[1]
    r_q = np.linalg.qr(np.concatenate([v, -defect], -1))[1]
    commutator = r_p[:, :, None] @ r_q[:, None].conj().swapaxes(-1, -2)
    return FaithfulnessReport(
        float(statics),
        float(_trace_norms(commutator).max()),
        float(_trace_norms(d_tau).max()),
    )


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

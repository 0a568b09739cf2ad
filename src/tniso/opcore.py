"""Dense complex-operator algebra.

Hermiticity and positivity checks, the trace norm, positive/negative part
splitting, PSD square roots and pseudo-inverses, and support projectors.
All functions accept plain ``numpy`` arrays or the thin operator wrappers
defined here; everything is value-semantic and safe for concurrent use.

Two private kernels take the trace norms of a stack of matrices built
inside the package, with no operand check: :func:`_trace_norms`, by SVD,
equal bit for bit to :func:`trace_norm` of each matrix, and
:func:`_hermitian_trace_norms`, by one Hermitian eigensolve per matrix, for
stacks that are Hermitian up to rounding, within the bound its docstring
states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError
from . import tolerances as tol


def as_matrix(a) -> np.ndarray:
    """Coerce an operator-like object to a finite 2-D complex ndarray.

    Accepts ndarrays, nested sequences, and any object exposing a
    ``matrix`` attribute (the wrappers below).
    """
    m = np.asarray(getattr(a, "matrix", a), dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ContractViolation(f"expected a matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise NumericError("matrix has non-finite entries")
    return m


def hermiticity_defect(a) -> float:
    """Max-abs deviation of ``a`` from its own adjoint."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ContractViolation(f"hermiticity undefined for shape {m.shape}")
    return float(np.abs(m - m.conj().T).max())


def require_hermitian(a) -> np.ndarray:
    """Return ``a`` symmetrized, raising if it is not Hermitian within HERMITICITY_TOL."""
    m = as_matrix(a)
    defect = hermiticity_defect(m)
    if defect > tol.HERMITICITY_TOL:
        raise ContractViolation(f"matrix is not Hermitian (defect {defect:.3e})")
    return (m + m.conj().T) / 2


@dataclass(eq=False)
class HermitianOperator:
    """A square complex matrix verified Hermitian at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = require_hermitian(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(eq=False)
class DensityOperator:
    """A Hermitian, positive-semidefinite, unit-trace operator."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = require_hermitian(self.matrix)
        w = np.linalg.eigvalsh(self.matrix)
        if w.min() < -tol.PSD_TOL:
            raise ContractViolation(f"not PSD (min eigenvalue {w.min():.3e})")
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > tol.TRACE_TOL:
            raise ContractViolation(f"trace is {tr!r}, expected 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def trace_norm(a) -> float:
    """Sum of singular values of ``a``.

    For Hermitian operators this is the sum of absolute eigenvalues; it
    induces the distinguishability metric on quantum states. The operand is
    checked by :func:`as_matrix`; callers holding a stack of matrices that
    are finite by construction take :func:`_trace_norms` of it at once.
    """
    return float(_trace_norms(as_matrix(a)))


def _trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norms of a finite stack of matrices, one per leading index.

    No operand check: the stack comes from checked operands. The SVDs of a
    stack are those of its matrices one at a time, so each entry equals
    :func:`trace_norm` of its matrix bit for bit.
    """
    try:
        return np.linalg.svd(stack, compute_uv=False).sum(-1)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc


def _hermitian_trace_norms(stack: np.ndarray) -> np.ndarray:
    """Trace norms of a finite stack of matrices that are Hermitian up to
    rounding, one per leading index, as sums of absolute eigenvalues.

    No operand check. ``eigvalsh`` reads each matrix's lower triangle, so an
    entry is the trace norm of the Hermitian matrix H carrying X's lower
    triangle (and the real part of its diagonal). H - X is the part of the
    anti-Hermitian X - X^dag above the diagonal and half its diagonal, so
    ``|value - ||X||_1| <= ||H - X||_1 <= sqrt(d) ||X - X^dag||_F`` for d x d
    matrices, plus the eigensolver's rounding. One eigensolve per matrix
    replaces :func:`_trace_norms`' SVD; for matrices that are not Hermitian
    by construction, take that instead.
    """
    try:
        return np.abs(np.linalg.eigvalsh(stack)).sum(-1)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolve failed: {exc}") from exc


def clamp_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Set eigenvalues inside (-EIG_CLAMP_TOL, EIG_CLAMP_TOL) to exactly zero."""
    out = w.copy()
    out[np.abs(out) < tol.EIG_CLAMP_TOL] = 0.0
    return out


def eigh_clamped(a):
    """Hermitian eigendecomposition with small eigenvalues clamped to 0."""
    m = require_hermitian(a)
    w, v = np.linalg.eigh(m)
    return clamp_eigenvalues(w), v


def positive_negative_parts(z):
    """Split a Hermitian Z into (Z+, Z-) with Z = Z+ - Z-, both PSD.

    Eigenvalues within ``EIG_CLAMP_TOL`` of zero are clamped, so the two
    parts have exactly orthogonal supports.
    """
    w, v = eigh_clamped(z)
    pos = (v * np.maximum(w, 0.0)) @ v.conj().T
    neg = (v * np.maximum(-w, 0.0)) @ v.conj().T
    return (pos + pos.conj().T) / 2, (neg + neg.conj().T) / 2


def above_rank_cut(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues above ``RANK_TOL`` times the largest one.

    The eigenvalues outside the mask count as exact zeros in every support
    and rank decision.
    """
    return w > tol.RANK_TOL * max(w.max(), 1e-300)


def state_spectrum(rho):
    """Eigenpairs ``(w, v)`` of the state ``rho`` above the rank cut, the
    weights rescaled to sum to one when the cut drops one, so that a reset
    to ``rho`` built from them stays trace preserving."""
    w, v = eigh_clamped(rho)
    keep = above_rank_cut(w)
    if not keep.all():
        w = w / w[keep].sum()
    return w[keep], v[:, keep]


def _psd_eigh(a):
    w, v = np.linalg.eigh(require_hermitian(a))
    if w.min() < -tol.PSD_TOL:
        raise ContractViolation(f"not PSD (min eigenvalue {w.min():.3e})")
    return np.maximum(w, 0.0), v


def sqrt_psd(a) -> np.ndarray:
    """Principal square root of a PSD operator."""
    w, v = _psd_eigh(a)
    return (v * np.sqrt(w)) @ v.conj().T


def pinv_psd(a) -> np.ndarray:
    """Moore-Penrose inverse of a PSD operator.

    Inverts on the support and annihilates the kernel, as cut by
    :func:`above_rank_cut`.
    """
    w, v = _psd_eigh(a)
    keep = above_rank_cut(w)
    inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    return (v * inv) @ v.conj().T


def support_projector(a) -> np.ndarray:
    """Orthogonal projector onto the range of a PSD operator."""
    w, v = _psd_eigh(a)
    vr = v[:, above_rank_cut(w)]
    return vr @ vr.conj().T


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

"""CPTP maps in Kraus form and their superoperator matrices.

The superoperator convention is fixed package-wide: COLUMN-STACKING.
``vec(X)`` stacks the columns of X, so ``vec(A X B) = (B^T kron A) vec(X)``
and a channel with Kraus operators ``{M_k}`` has superoperator
``sum_k conj(M_k) kron M_k``; its column ``a + d_in*b`` is ``vec(E(E_ab))``,
so analyses read basis images as slices or products of the matrix.
The Choi matrix of :func:`minimal_kraus` is ROW-major instead: its entry at
``(i*d_in + a, j*d_in + b)`` is ``E(E_ab)[i, j]``, which is
``sum_k r(M_k) r(M_k)^dag`` for the row-major flattening ``r``.

Both map types share one image kernel, ``_images(vecs)``: the
column-stacked images of the operators stacked as the columns of ``vecs``.
A :class:`Superoperator` multiplies them by its matrix; a
:class:`KrausChannel` takes them a chunk at a time, as many as keep its
products within ``_SUPEROP_BLOCK_BYTES``, and forms ``sum_k M_k X M_k^dag``
for the chunk's operands X side by side in two matrix products: the
operators stacked vertically times the operands, regrouped, times the
stacked adjoints, which the channel forms once. So it never builds its own
``dim_out**2 x dim_in**2`` matrix (only :func:`cesaro_projector` needs it).
``apply``, the one composition rule ``channel @ map`` (the channel after the
map's images) and the correction rounds all call that kernel.

A recovery built by :func:`tniso.analysis.build_correction` is a
:class:`KrausChannel` held in structured form: its few block operators
plus one reset term ``X -> Tr(P X) rho``, which sends the image complement
(P the projector onto it) to an encoded reference state rho. The image
kernel and ``tp_defect`` read that form. The reset term's Kraus operators,
one per reference eigenvector and complement vector (1,536 of 1,538 at
d_P = 128), are expanded after the block operators only when a caller reads
``kraus`` (:func:`convex_mix`, or ``compose(channel, recovery)``); the
kernels, ``superoperator()`` included, ``kraus_count`` and the recovery file
(see :mod:`tniso.serialize`) read the structured form. So does the loop
``compose(recovery, channel)``: it multiplies out only the recovery's block
operators and keeps the reset term, with the effect ``P`` pulled back
through the channel (52,292 operators at d_P = 128, of which 68 are formed).
The package itself multiplies no Kraus lists: a correction round is
``recovery @ (channel @ map)``.

Checks guard the boundary: the public constructors scan their input for
non-finite entries and ``apply`` its operand, while products formed inside
the package from checked operands (``@``, ``KrausChannel.superoperator``,
:func:`cesaro_projector`, the correction rounds, which call ``_images``, and
the differences whose :func:`trace_norm_certificate` the analyses take)
skip them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolation, ConvergenceError, NumericError
from .opcore import as_matrix, state_spectrum, support_projector
from . import tolerances as tol


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`."""
    cols = rows if cols is None else cols
    return np.asarray(v, dtype=complex).reshape((rows, cols), order="F")


def transpose_superoperator(d: int) -> np.ndarray:
    """Matrix K with K vec(X) = vec(X^T) for d x d operators."""
    return np.eye(d * d)[np.arange(d * d).reshape(d, d).T.reshape(-1)]


class _Map:
    """``apply``, ``__call__`` and ``@`` of both map types: each checks its
    operand or partner map, then calls the type's ``_images(vecs)``, which
    returns the C-ordered (dim_out**2, N) images of the N columns of vecs."""

    def apply(self, x) -> np.ndarray:
        x = as_matrix(x)
        if x.shape != (self.dim_in, self.dim_in):
            raise ContractViolation(
                f"operand shape {x.shape}, expected ({self.dim_in}, {self.dim_in})"
            )
        return np.ascontiguousarray(unvec(self._images(vec(x)[:, None])[:, 0], self.dim_out))

    def __call__(self, x) -> np.ndarray:
        return self.apply(x)

    def __matmul__(self, other) -> "Superoperator":
        """The map after ``other``, any map with ``.superoperator()``."""
        other = other.superoperator()
        if self.dim_in != other.dim_out:
            raise ContractViolation("superoperator dimension mismatch in composition")
        return Superoperator._trusted(other.dim_in, self.dim_out, self._images(other.matrix))


@dataclass(eq=False)
class Superoperator(_Map):
    """Matrix form of a linear map on operator space.

    ``matrix`` has shape (dim_out**2, dim_in**2) in the column-stacking
    convention and finite entries. Its images are matrix products, so
    ``self @ other``, with ``other`` any map with ``.superoperator()``, is
    plain matrix multiplication.
    """

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        expected = (self.dim_out**2, self.dim_in**2)
        if self.matrix.shape != expected:
            raise ContractViolation(
                f"superoperator matrix shape {self.matrix.shape}, expected {expected}"
            )
        if not np.isfinite(self.matrix).all():
            raise NumericError("superoperator matrix has non-finite entries")

    @classmethod
    def identity(cls, dim: int) -> "Superoperator":
        return cls(dim, dim, np.eye(dim * dim, dtype=complex))

    @classmethod
    def _trusted(cls, dim_in: int, dim_out: int, matrix: np.ndarray) -> "Superoperator":
        """A product of checked operands, complex and of the right shape by
        construction, taken without the constructor's checks."""
        s = object.__new__(cls)
        s.dim_in, s.dim_out, s.matrix = dim_in, dim_out, matrix
        return s

    def superoperator(self) -> "Superoperator":
        """The map itself; every map type answers this call."""
        return self

    def _images(self, vecs: np.ndarray) -> np.ndarray:
        return self.matrix @ vecs


# Byte budget of one chunk of Kraus products in the image kernel (K*d_out*d
# entries per operand) and of one block of the Gram product in
# :meth:`KrausChannel.superoperator`; a d_P = 10 superoperator (160 kB) is
# one block.
_SUPEROP_BLOCK_BYTES = 1 << 18


def _kraus_stack(ops) -> np.ndarray:
    """``ops`` (a list of matrices or one stacked array) as one finite complex
    array of shape (K, d_out, d_in), with the errors of :func:`as_matrix`."""
    if isinstance(ops, np.ndarray):
        stack = ops.astype(complex, copy=False)
    else:
        mats = [np.asarray(getattr(k, "matrix", k), dtype=complex) for k in ops]
        if any(m.shape != mats[0].shape for m in mats):
            for m in mats:
                as_matrix(m)  # a malformed operator is reported before the mismatch
            raise ContractViolation("Kraus operators must share one shape")
        stack = np.stack(mats)
    as_matrix(stack[0])  # the operators share its shape
    if not np.isfinite(stack).all():
        raise NumericError("matrix has non-finite entries")
    return stack


def _rank_one_kraus(cols: np.ndarray, psi: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """The operators ``sqrt(w_m) psi_m c^dag`` for each column ``psi_m`` of
    psi and c of cols, m-major, stacked, written into the contiguous stack
    ``out`` when one is given."""
    n, d = psi.shape[0], cols.shape[0]
    if out is None:
        out = np.empty((len(w) * cols.shape[1], n, d), dtype=complex)
    ops = out.reshape(len(w), cols.shape[1], n, d)
    np.multiply(psi.T[:, None, :, None], cols.conj().T[None, :, None, :], out=ops)
    ops *= np.sqrt(w)[:, None, None, None]
    return out


class _Reset:
    """The CP map ``X -> Tr(P X) rho`` with ``P = cols cols^dag`` and
    ``rho = psi diag(w) psi^dag``: it measures the effect P and prepares
    rho. P is a projector, onto span(cols), for a built recovery's
    orthonormal cols; pulled back through a channel by :func:`compose`, the
    cols need not be orthonormal and P is any effect. Every reader uses cols
    only through P or its columns. Its Kraus operators,
    :func:`_rank_one_kraus` of cols, psi and w, are expanded only by
    :meth:`kraus`. A given ``state`` is kept as rho (a recovery file's,
    equal to ``psi diag(w) psi^dag`` to rounding)."""

    def __init__(self, cols: np.ndarray, psi: np.ndarray, w: np.ndarray, state=None):
        self.cols, self.psi, self.w = cols, psi, w
        self.state = (psi * w) @ psi.conj().T if state is None else state
        self.trace_row = vec(cols.conj() @ cols.T)  # vec(P^T): Tr(P X) = trace_row @ vec(X)
        self.state_vec = vec(self.state)

    @classmethod
    def of_state(cls, cols: np.ndarray, state: np.ndarray) -> "_Reset":
        """The reset of span(cols) to the density operator ``state``, with
        psi and w its ``state_spectrum``."""
        w, psi = state_spectrum(state)
        return cls(cols, psi, w, state)

    def kraus(self, out=None) -> np.ndarray:
        return _rank_one_kraus(self.cols, self.psi, self.w, out)


class KrausChannel(_Map):
    """A CPTP map given by a nonempty list of Kraus operators.

    Complete positivity is structural; trace preservation is verified at
    construction (``sum_k M_k^dag M_k = I`` within ``tp_tol``).

    The operators are checked and kept stacked, shape (K, dim_out, dim_in),
    and the three kernels work on that stack. The image kernel behind
    ``apply`` and ``@`` takes a chunk of c operands X, as many as keep its
    products within ``_SUPEROP_BLOCK_BYTES``, side by side as one
    dim_in x c*dim_in matrix, multiplies the stack reshaped to
    (K*dim_out) x dim_in by it, regroups the product to
    (c*dim_out) x (K*dim_in) and multiplies that by the adjoint stack (row
    (k, j) is ``M_k^dag[j, :]``), formed once per channel: two matrix
    products give ``sum_k M_k X M_k^dag`` for the whole chunk.
    :meth:`tp_defect` is one matrix product of the reshaped stack, and
    :meth:`superoperator` its Gram product, filled in row blocks. ``kraus``
    holds views of the stack.

    A channel built by :meth:`_with_reset` (a recovery from
    :func:`tniso.analysis.build_correction` or a recovery file, or a loop
    :func:`compose` forms after one) holds block
    operators and a :class:`_Reset` term instead: the kernels apply the
    blocks' stack and add the term, ``kraus_count`` counts the term's
    operators, and ``kraus`` (the blocks, then the term's operators) is
    expanded on first read.
    """

    def __init__(self, kraus, tp_tol: float = tol.TP_TOL):
        if len(kraus) == 0:
            raise ContractViolation("Kraus list must be nonempty")
        self.tp_tol = tp_tol
        self._blocks, self._reset = _kraus_stack(kraus), None
        self._check_trace_preserving()

    @classmethod
    def _with_reset(
        cls, blocks: np.ndarray, reset: _Reset, tp_tol: float = tol.TP_TOL
    ) -> "KrausChannel":
        """The channel with Kraus operators ``blocks`` (a finite stack) plus
        those of ``reset``, held without expanding the latter."""
        ch = object.__new__(cls)
        ch.tp_tol, ch._blocks, ch._reset = tp_tol, blocks, reset
        ch._check_trace_preserving()
        return ch

    @cached_property
    def _stack(self) -> np.ndarray:
        """Every Kraus operator stacked: the blocks, then the reset term's,
        written in place after them."""
        if self._reset is None:
            return self._blocks
        k = len(self._blocks)
        stack = np.empty((self.kraus_count, self.dim_out, self.dim_in), dtype=complex)
        stack[:k] = self._blocks
        self._reset.kraus(out=stack[k:])
        return stack

    @cached_property
    def kraus(self) -> list[np.ndarray]:
        return list(self._stack)

    @property
    def kraus_count(self) -> int:
        """``len(kraus)``, counted without expanding a reset term."""
        if self._reset is None:
            return len(self._blocks)
        return len(self._blocks) + len(self._reset.w) * self._reset.cols.shape[1]

    def _check_trace_preserving(self) -> None:
        residual = self.tp_defect()
        if residual > self.tp_tol:
            raise ContractViolation(f"not trace preserving (defect {residual:.3e})")

    @property
    def dim_in(self) -> int:
        return self._blocks.shape[2]

    @property
    def dim_out(self) -> int:
        return self._blocks.shape[1]

    def tp_defect(self) -> float:
        rows = self._blocks.reshape(-1, self.dim_in)  # the M_k stacked vertically
        acc = rows.conj().T @ rows
        if self._reset is not None:  # its adjoint sends I to Tr(rho) P
            r = self._reset
            acc += np.trace(r.state).real * (r.cols @ r.cols.conj().T)
        return float(np.abs(acc - np.eye(self.dim_in)).max())

    @classmethod
    def identity(cls, dim: int) -> "KrausChannel":
        return cls([np.eye(dim, dtype=complex)])

    @classmethod
    def from_unitary(cls, u) -> "KrausChannel":
        return cls([as_matrix(u)])

    @cached_property
    def _adjoint_stack(self) -> np.ndarray:
        """The block operators' adjoints stacked vertically, shape
        (K*dim_in, dim_out): row (k, j) is ``M_k^dag[j, :]``."""
        k, n, d = self._blocks.shape
        return self._blocks.conj().transpose(0, 2, 1).reshape(k * d, n)

    def _images(self, vecs: np.ndarray) -> np.ndarray:
        # sum_k M_k X M_k^dag as two matrix products for a chunk of c operands
        # X side by side (d x c*d): the stacked operators times them,
        # (K*n) x (c*d), regrouped to (c*n) x (K*d), times the adjoint stack.
        # A chunk holds as many operands as keep those products within
        # _SUPEROP_BLOCK_BYTES, and one chunk of all of them needs no loop; a
        # reset term adds one rank-one update vec(rho) (vec(P^T)^T vecs). The
        # operands are read F-ordered, where a chunk's columns are its
        # operands side by side without a copy, and an image's bits do not
        # depend on the layout of vecs
        k, n, d = self._blocks.shape
        vecs = np.asfortranarray(vecs)
        count = vecs.shape[1]
        rows = self._blocks.reshape(k * n, d)

        def images(cols):  # [j, i, c] is image c's entry (i, j)
            c = cols.shape[1]
            side = cols.reshape(d, c * d, order="F")
            regrouped = (rows @ side).reshape(k, n, c, d).transpose(2, 1, 0, 3).reshape(c * n, k * d)
            return (regrouped @ self._adjoint_stack).reshape(c, n, n).transpose(2, 1, 0)

        step = max(1, _SUPEROP_BLOCK_BYTES // (16 * k * n * max(n, d)))
        if count <= step:
            out = images(vecs).reshape(n * n, count)
        else:
            out = np.empty((n * n, count), dtype=complex)
            grid = out.reshape(n, n, count)
            for i in range(0, count, step):
                grid[:, :, i : i + step] = images(vecs[:, i : i + step])
        if self._reset is not None:
            r = self._reset
            out += np.outer(r.state_vec, r.trace_row @ vecs)
        return out

    def superoperator(self) -> Superoperator:
        # entry (i*n + m, j*d + l) of sum_k conj(M_k) kron M_k is
        # sum_k conj(M_k[i, j]) M_k[m, l]: the Gram product of the flattened
        # blocks, filled for a few i at a time so that only one block of
        # at most _SUPEROP_BLOCK_BYTES is ever held besides the result; a
        # reset term adds its one rank-one update vec(rho) vec(P^T)^T
        k, n, d = self._blocks.shape
        flat = self._blocks.reshape(k, n * d)
        out = np.empty((n, n, d, d), dtype=complex)
        rows = max(1, _SUPEROP_BLOCK_BYTES // (16 * n * d * d))
        for i in range(0, n, rows):
            block = flat[:, i * d : (i + rows) * d].conj().T @ flat
            np.copyto(out[i : i + rows], block.reshape(-1, d, n, d).transpose(0, 2, 1, 3))
            if self._reset is not None:
                state = self._reset.state_vec[i * n : (i + rows) * n]
                out[i : i + rows] += np.outer(state, self._reset.trace_row).reshape(-1, n, d, d)
        return Superoperator._trusted(d, n, out.reshape(n * n, d * d))


def _unit_images(s: Superoperator) -> np.ndarray:
    """Images of the matrix units as slices of the matrix: ``[a, b] = s(E_ab)``."""
    d, n = s.dim_in, s.dim_out
    return s.matrix.reshape(n, n, d, d, order="F").transpose(2, 3, 0, 1)


def _hermitian_trace_defect(s: Superoperator, traces) -> float:
    """How far s is from preserving Hermiticity with image traces ``traces``,
    read off the matrix-unit images: ``max |s(E_ba) - s(E_ab)^dag|`` and
    ``max |Tr s(E_ab) - traces[a, b]|``, whichever is larger."""
    units = _unit_images(s)
    herm = np.abs(units - units.transpose(1, 0, 3, 2).conj()).max()
    return float(max(herm, np.abs(np.trace(units, axis1=2, axis2=3) - traces).max()))


def trace_norm_certificate(s: Superoperator) -> float:
    """Certified bound on ``||s(rho)||_1`` over every state rho.

    The Choi matrix ``J = sum_ab E_ab kron s(E_ab)`` splits into its
    Hermitian part ``H = (J + J^dag) / 2``, the Choi matrix of the
    Hermiticity-preserving map ``s_H(X) = (s(X) + s(X^dag)^dag) / 2``, and
    ``A = J - H``, that of ``s_A = s - s_H``. For s_H the bound is
    ``lambda_max(Tr_out |H|)``: the closed-form dual-feasible point
    ``Y0 = Y1 = |H|`` of the diamond-norm SDP (Watrous, arXiv:1207.5726),
    read off one ``eigh`` of H. For s_A it is ``sqrt(d_out) * ||A||_F``: a
    state ``rho = sum_k p_k psi_k psi_k^dag`` has
    ``s_A(rho) = sum_k p_k v_k^dag A v_k`` with the isometries
    ``v_k = conj(psi_k) kron I``, so ``||s_A(rho)||_1 <= sqrt(d_out) *
    max_k ||v_k^dag A v_k||_F <= sqrt(d_out) * ||A||_F``. The triangle
    inequality bounds ``s = s_H + s_A`` by their sum. The value is 1 on
    channels, and ``d_in * d_out * eps * ||H||_2`` is added to absorb its
    own rounding.
    """
    d, n = s.dim_in, s.dim_out
    choi = _unit_images(s).transpose(0, 2, 1, 3).reshape(d * n, d * n)
    herm = (choi + choi.conj().T) / 2
    w, u = np.linalg.eigh(herm)
    # Tr_out |H| [a, b] = sum_ik u[a*n + i, k] |w_k| conj(u[b*n + i, k]): one
    # product of the eigenvectors, rows regrouped by a, with their scaled copy
    reduced = (u * np.abs(w)).reshape(d, -1) @ u.reshape(d, -1).conj().T
    bound = np.linalg.eigvalsh(reduced)[-1] + np.sqrt(n) * np.linalg.norm(choi - herm)
    return float(bound + d * n * np.finfo(float).eps * np.abs(w).max())


def minimal_kraus(ops) -> list[np.ndarray]:
    """Minimal Kraus set of the CP map with Kraus operators ``ops``.

    The Choi matrix is ``rows^T conj(rows)`` for the K stacked row-major
    operators ``rows``, so the SVD of ``rows`` (K x d_out*d_in, rank at most
    K) diagonalizes it: each kept operator is ``s[k] vh[k]``, for the squared
    singular values above ``KRAUS_WEIGHT_CUT`` (absolute and relative to the
    largest), and the count is the Choi rank.
    """
    stack = np.asarray(ops, dtype=complex)
    k, d_out, d_in = stack.shape
    _, s, vh = np.linalg.svd(stack.reshape(k, -1), full_matrices=False)
    keep = s**2 > tol.KRAUS_WEIGHT_CUT * max(1.0, s[0] ** 2)
    return [s[j] * vh[j].reshape(d_out, d_in) for j in np.flatnonzero(keep)]


def compose(e2: KrausChannel, e1: KrausChannel) -> KrausChannel:
    """The channel e2 after e1, with Kraus products {M2_j M1_i}, j-major.

    When e2 holds a reset term ``X -> Tr(P X) rho`` with ``P = C C^dag`` (a
    built recovery), so does the result, and only e2's block operators are
    multiplied out: ``Tr(P e1(X)) = Tr(sum_i M1_i^dag P M1_i X)``, so the
    term keeps rho and takes the columns ``M1_i^dag c``, column ``c*K1 + i``
    for column c of C. Expanded, its operators are the products of e2's
    reset operators with e1's, in the order above, to rounding. An inner
    reset (e2 plain) is expanded into the products.
    """
    if e2.dim_in != e1.dim_out:
        raise ContractViolation(
            f"cannot compose: {e2.dim_in} != {e1.dim_out} (inner dims)"
        )
    products = (e2._blocks[:, None] @ e1._stack[None]).reshape(-1, e2.dim_out, e1.dim_in)
    r = e2._reset
    if r is None:
        return KrausChannel(products)
    pulled = e1._stack.conj().transpose(0, 2, 1) @ r.cols  # [i, :, c] = M1_i^dag c
    cols = pulled.transpose(1, 2, 0).reshape(e1.dim_in, -1)
    return KrausChannel._with_reset(products, _Reset(cols, r.psi, r.w, r.state))


def convex_mix(weights, channels: list[KrausChannel]) -> KrausChannel:
    """Convex mixture sum_k p_k E_k as one channel, Kraus {sqrt(p_k) M_ki}."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ContractViolation("weights must be a nonempty 1-D list")
    if not np.isfinite(w).all():
        raise ContractViolation(f"weights must be finite, got {w.tolist()!r}")
    if w.min() < 0:
        raise ContractViolation("weights must be nonnegative")
    if abs(w.sum() - 1.0) > tol.WEIGHT_SUM_TOL:
        raise ContractViolation(f"weights sum to {w.sum()!r}, expected 1")
    if len(channels) != w.size:
        raise ContractViolation("one weight per channel required")
    dims = {(c.dim_in, c.dim_out) for c in channels}
    if len(dims) != 1:
        raise ContractViolation("mixed channels must share dimensions")
    ops = [np.sqrt(p) * k for p, c in zip(w, channels) for k in c.kraus]
    return KrausChannel(ops)


def _spectral_fixed_point_projector(s: np.ndarray) -> np.ndarray:
    a = s - np.eye(s.shape[0])
    u, sv, vh = np.linalg.svd(a)
    keep = sv < tol.KERNEL_TOL
    if not keep.any():
        # every CPTP map has a fixed point; an empty kernel means the
        # cutoff was too tight for this matrix
        raise ConvergenceError(
            "no fixed points found within kernel tolerance", residual=float(sv.min())
        )
    right = vh.conj().T[:, keep]
    left = u[:, keep]
    return right @ np.linalg.solve(left.conj().T @ right, left.conj().T)


def fixes_span(x: np.ndarray, image: np.ndarray) -> bool:
    """Whether a square map S fixes every vector in span(x), given ``image = S x``.

    Q is an orthonormal basis of span(x): the left singular vectors of
    ``x = U Sigma V^H`` above ``SPAN_CLOSURE_TOL`` of x's norm, so S Q is
    read off the image as ``image V Sigma^-1`` and S itself is never needed.
    S fixes span(Q) when it maps it into itself (the part of S Q off span(Q)
    is below ``SPAN_CLOSURE_TOL`` of its norm) and every singular value of
    ``Q^H S Q - I`` is below ``KERNEL_TOL``, the kernel cut of
    :func:`cesaro_projector`, so the fixed-point projector is the identity
    on span(Q). Its cost is thin products instead of an SVD of S - I.
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


def cesaro_projector(
    channel: KrausChannel | Superoperator,
    method: str = "spectral",
    max_n: int = 2**48,
    tol_: float = tol.CESARO_TOL,
) -> Superoperator:
    """Projector onto the fixed points of a square channel.

    ``channel`` is any map with ``.superoperator()``, matrices included.

    The limit of averaged channel powers ``(1/(N+1)) sum_{i<=N} E^i``
    projects onto the fixed-point set of E.

    ``spectral`` pairs the kernels of (S - I) and its adjoint into an
    idempotent projector (the eigenvalue-1 spectral projector).
    ``iterative`` evaluates the partial averages exactly at doubling N via
    ``sum_{i<2N} S^i = (I + S^N) sum_{i<N} S^i`` and stops once successive
    averages differ by less than ``tol_``. Each doubling halves the error
    until rounding in the repeated squaring takes over near 1e-8; past
    that floor the iteration aborts with the best residual reached.
    """
    tol.require_tolerance(tol_, "tol_")
    if channel.dim_in != channel.dim_out:
        raise ContractViolation("fixed points require a square channel")
    s = channel.superoperator().matrix
    if method == "spectral":
        p = _spectral_fixed_point_projector(s)
        return Superoperator._trusted(channel.dim_in, channel.dim_out, p)
    if method != "iterative":
        raise ContractViolation(f"unknown method {method!r}")

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
            return Superoperator._trusted(channel.dim_in, channel.dim_out, avg)
        if delta < best:
            best = delta
        elif delta > 4.0 * best:
            break  # rounding noise dominates; no further progress possible
        power = power @ power
    raise ConvergenceError(
        f"Cesaro averaging did not reach {tol_:g} within {max_n} terms",
        residual=best,
    )


def check_support_invariance(
    channel: KrausChannel, rho_bar, tol_: float = tol.SUPPORT_INVARIANCE_TOL
):
    """Whether the channel maps states supported on supp(rho_bar) into it.

    Checks that every Kraus operator has a vanishing block from the support
    into its orthogonal complement. Returns (ok, max block residual).
    """
    tol.require_tolerance(tol_, "tol_")
    if channel.dim_in != channel.dim_out:
        raise ContractViolation("support invariance requires a square channel")
    p = support_projector(rho_bar)
    comp = np.eye(channel.dim_in) - p
    residual = max(float(np.abs(comp @ k @ p).max()) for k in channel.kraus)
    return residual <= tol_, residual


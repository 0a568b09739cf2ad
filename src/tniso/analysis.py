"""Structure detection, code classification, and recovery construction.

``detect_structure`` decides whether a linear state encoding is trace-norm
isometric and, if so, recovers its subsystem decomposition, cofactor state,
and (anti)unitary flavor. On top of it sit the code classifiers
(fixed / preserved / noiseless / correctable / protectable) and the recovery
builders (cofactor time reversal and cofactor replacement).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    KrausChannel,
    Superoperator,
    _Reset,
    _factor_certificate,
    _rank_one_kraus,
    _hermitian_trace_defect,
    _unit_images,
    cesaro_projector,
    check_support_invariance,
    minimal_kraus,
    trace_norm_certificate,
    transpose_superoperator,
)
from .codes import IsometricEncoding, SubsystemDecomposition
from .errors import ContractViolation, NotCorrectableError, NumericError
from .opcore import above_rank_cut, sqrt_psd, state_spectrum
from . import tolerances as tol

logger = logging.getLogger(__name__)


@dataclass(eq=False)
class StructureReport:
    """Outcome of subsystem-structure detection.

    When ``found``, the encoding reconstructs as
    ``basis (rho kron cofactor (+) 0) basis^dag`` (with ``rho`` transposed
    first when ``conjugation == 'anti-unitary'``), the decomposition is
    minimal, and ``residual`` bounds the trace-norm reconstruction error
    over every state (the :func:`trace_norm_certificate` of the difference
    between the map and the detected encoding). When not found, ``stage``
    names the first failing step (``input_map``, ``state_images``,
    ``orthogonality``, ``spectrum`` or ``verification``) and ``residual``
    the quantity it rejected; a ``verification`` failure also names the
    ``conjugation`` it verified.
    """

    found: bool
    stage: str
    residual: float
    conjugation: str | None = None
    weights: np.ndarray | None = None
    cofactor: np.ndarray | None = None
    decomposition: SubsystemDecomposition | None = None

    def encoding(self) -> IsometricEncoding:
        if not self.found:
            raise ContractViolation(f"no structure found (failed at {self.stage!r})")
        return IsometricEncoding(self.decomposition, self.cofactor)


def _orthonormal_completion(block: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full unitary with the trailing columns
    of a complete Householder QR factor, which move smoothly with the block."""
    q = np.linalg.qr(block, mode="complete")[0]
    return np.concatenate([block, q[:, block.shape[1] :]], axis=1)


def detect_structure(
    phi: Superoperator,
    detection_tol: float = tol.DETECTION_TOL,
) -> StructureReport:
    """Detect the subsystem structure of a linear state encoding.

    The map must be Hermiticity- and trace-preserving. Detection proceeds
    by (1) imaging the standard logical basis states, (2) checking pairwise
    orthogonal supports, (3) checking a common spectrum, (4) imaging slot
    0's top eigenvectors V0 into every logical slot, weighted by the
    cofactor: ``E_00 V0`` for slot 0 and, for slot j, ``E_0j^dag V0`` under
    the unitary reading or ``E_0j V0`` under the anti-unitary one (``E_ab``
    the image of a matrix unit), (5) keeping the reading whose weighted
    block has the larger norm, since the other one's slots j >= 1 vanish
    on an exact encoding, and taking the basis as the polar factor of that
    block, which divides by no weight, and (6) verifying that one candidate
    encoding: the trace-norm certificate of ``phi`` minus it bounds the
    error on every state, so the verdict is deterministic. Every stage
    reads the matrix-unit images sliced from ``phi``'s matrix; only image
    0's eigenvectors are taken, the other images' eigenvalues alone, and QR
    completes the basis off the block. The candidate's decomposition and
    encoding are unitary and a state by construction, so they skip their
    constructors' checks. The certificate is :func:`_distance` of ``phi``
    from the candidate: under the unitary reading the candidate is a code's
    superoperator, so when ``phi`` carries factors too (a channel after a
    code) it is read off the two maps' factors, and the candidate's matrix
    is never formed. Never raises on well-formed input; failures come back
    as ``found=False`` with the failing stage.
    """
    dtol = tol.require_tolerance(detection_tol, "detection_tol")
    d_q, d_p = phi.dim_in, phi.dim_out

    # stage: input map must preserve Hermiticity and trace
    defect = _hermitian_trace_defect(phi, np.eye(d_q))
    if defect > tol.INPUT_MAP_TOL:
        return StructureReport(False, "input_map", defect)

    # stage: basis-state images must be states; only image 0's
    # eigenvectors are read, so the others take eigenvalues alone
    units = _unit_images(phi)
    images = units[np.arange(d_q), np.arange(d_q)]
    herm = (images + images.conj().transpose(0, 2, 1)) / 2
    w0, vecs0 = np.linalg.eigh(herm[0])
    w = np.concatenate([w0[None], np.linalg.eigvalsh(herm[1:])])
    spectra = w[:, ::-1]
    worst = max(0.0, -float(w.min()))
    if worst > max(dtol, tol.STATE_IMAGE_FLOOR):
        return StructureReport(False, "state_images", worst)

    # stage: pairwise orthogonal supports, Tr(images[j] images[k]) for j < k
    gram = np.einsum("jil,kli->jk", images, images)
    ortho = float(np.abs(gram[np.triu_indices(d_q, 1)]).max(initial=0.0))
    if ortho > dtol:
        return StructureReport(False, "orthogonality", ortho)

    # stage: common spectrum across the images
    spread = float(np.abs(spectra - spectra[0]).max())
    if spread > max(dtol, tol.SPECTRUM_FLOOR):
        return StructureReport(False, "spectrum", spread)

    # the cofactor weights that pass the rank cut and fit d_S times into
    # d_P; a weight cut here leaves a residual that verification rejects
    weights = np.maximum(spectra[0], 0.0)
    weights = weights[above_rank_cut(weights)][: d_p // d_q]
    weights = weights / weights.sum()
    r = weights.size

    # stage: align the logical slots. On an exact encoding slot j's images
    # are W_j diag(weights), so a small weight moves only its own columns
    v0 = vecs0[:, ::-1][:, :r]
    head = units[0, 0] @ v0
    blocks = {
        flavor: np.concatenate(
            [head, *((x.conj().T if adjoint else x) @ v0 for x in units[0, 1:])], axis=1
        )
        for flavor, adjoint in (("unitary", True), ("anti-unitary", False))
    }
    flavor = max(blocks, key=lambda f: np.linalg.norm(blocks[f]))
    u, _, vh = np.linalg.svd(blocks[flavor], full_matrices=False)

    # stage: verification of the one candidate encoding, a unitary basis
    # and a density operator by construction; its matrix is formed only if
    # the certificate is not read off its factors
    tau = np.diag(weights).astype(complex)
    dec = SubsystemDecomposition._trusted(d_q, r, d_p - d_q * r, _orthonormal_completion(u @ vh))
    candidate = IsometricEncoding._trusted(dec, tau).superoperator()
    if flavor == "anti-unitary":
        flipped = candidate.matrix @ transpose_superoperator(d_q)
        candidate = Superoperator._trusted(d_q, d_p, flipped)
    residual = _distance(phi, candidate)
    if residual > dtol:
        return StructureReport(False, "verification", residual, conjugation=flavor)
    return StructureReport(
        True,
        "verified",
        residual,
        conjugation=flavor,
        weights=weights,
        cofactor=tau,
        decomposition=dec,
    )


def is_fixed(phi, channel, tol_: float = tol.DETECTION_TOL):
    """Whether every encoded operator is a fixed point of the channel.

    ``phi`` is any map with ``.superoperator()``; ``channel`` is a
    :class:`KrausChannel` or a :class:`Superoperator`, composed as
    ``channel @ phi``. ``residual`` is the :func:`trace_norm_certificate` of
    ``channel o phi - phi``, so it bounds how far the channel moves any
    encoded state, in trace norm. Returns (ok, residual).
    """
    tol.require_tolerance(tol_, "tol_")
    s_phi = phi.superoperator()
    residual = _distance(channel @ s_phi, s_phi)
    return residual <= tol_, residual


def _distance(a: Superoperator, b: Superoperator) -> float:
    """The :func:`trace_norm_certificate` of ``a - b``: how far apart the
    two maps can take any state, in trace norm.

    When both maps carry factors (a code's superoperator, or a channel after
    one) whose Choi factor has fewer columns p than the Choi matrix's side
    N = d_in*d_out, the certificate is :func:`_factor_certificate`'s, a QR of
    the N x p factor and an eigensolve of p x p; otherwise it is taken of the
    difference's Choi matrix, one eigensolve of N x N. Both are checked
    maps, so their difference skips the constructor's scan.
    """
    if a._factors is not None and b._factors is not None:
        p = sum(len(x) * len(t) for x, t in (a._factors, b._factors))
        if p < b.dim_in * b.dim_out:
            return _factor_certificate(a, b)
    return trace_norm_certificate(Superoperator._trusted(b.dim_in, b.dim_out, a.matrix - b.matrix))


def _block_distance(chain: Superoperator, s_phi: Superoperator) -> float:
    """The :func:`trace_norm_certificate` of ``X -> U_1^dag (chain -
    phi)(X) U_1`` for the code's superoperator ``s_phi``, whose factor is
    the block columns U_1: how far a chain whose images lie in the code's
    block span(U_1), as phi's do, can take any state from phi, in trace
    norm.

    The compressed difference's Choi matrix has side d_S*(d_S*d_F) against
    the d_S*d_P of :func:`_distance`'s. U_1 is an isometry, so for such a
    chain the compression changes no trace norm and commutes with Tr_out:
    the two certificates differ only at rounding level.
    """
    u1, d, n = s_phi._factors[0][0], s_phi.dim_in, s_phi.dim_out
    m = u1.shape[1]
    # row c of the transposed difference is vec(D_c), D_c the difference's
    # image of matrix unit c, so its (n, n) reshape is D_c^T, and that of
    # the compression is (U_1^dag D_c U_1)^T = U_1^T D_c^T conj(U_1): the
    # transposed matrix of the compressed map
    images = (chain.matrix - s_phi.matrix).T.reshape(d * d, n, n)
    block = (u1.T @ images @ u1.conj()).reshape(d * d, m * m)
    return trace_norm_certificate(Superoperator._trusted(d, m, block.T))


def _round_residual(channel, recovery, encoding) -> float:
    """How far one recovery-after-channel round moves the code: the
    :func:`_distance` of the chain ``recovery @ (channel @ phi)`` from phi."""
    s_phi = encoding.superoperator()
    return _distance(recovery @ (channel @ s_phi), s_phi)


def _image(encoding, channel, tol_: float):
    """The channel-after-encoding composite and its structure report.

    ``encoding`` is any map with ``.superoperator()``; ``channel`` is a
    :class:`KrausChannel` or a :class:`Superoperator`.
    """
    composite = channel @ encoding
    return composite, detect_structure(composite, detection_tol=tol_)


def is_preserved(
    encoding: IsometricEncoding,
    channel: KrausChannel,
    tol_: float = tol.DETECTION_TOL,
):
    """Whether the channel acts isometrically on the code. Returns (ok, report)."""
    tol.require_tolerance(tol_, "tol_")
    _, report = _image(encoding, channel, tol_)
    return report.found, report


@dataclass(eq=False)
class NoiselessCertificate:
    """Outcome of :func:`noiseless_certificate`.

    ``projector`` names the path that produced the projected code:
    ``"fixed"`` (the channel fixes the code's span, so the code is its own
    projection) or ``"full"`` (the fixed-point projector of the whole
    channel).
    """

    accepted: bool
    fixed_residual: float
    projector: str


def noiseless_certificate(
    encoding: IsometricEncoding,
    channel: KrausChannel | Superoperator,
    tol_: float = tol.DETECTION_TOL,
) -> NoiselessCertificate:
    """Certify that a code stays isometric under all powers of the channel.

    ``encoding`` must be an :class:`IsometricEncoding`; ``channel`` is a
    square CPTP map, a :class:`KrausChannel` or a :class:`Superoperator`.
    Accepts iff projecting the code onto the channel's fixed-point set
    yields a valid encoding that the channel fixes. ``fixed_residual`` is
    the fixed-point residual of the projected code, or, when the projection
    is no encoding, the detection residual that rejected it.

    One check covers every power L^k of the channel L. The fixed-point
    projector P of a CPTP map is CPTP and satisfies P L^k = P, and CPTP
    maps contract the trace norm on Hermitian operators, so for every
    Hermitian X, ``||P phi(X)||_1 <= ||L^k phi(X)||_1 <= ||phi(X)||_1``.
    When the projected code ``P o phi`` is isometric within the detection
    residual, every ``L^k o phi`` is isometric within the same residual, for
    all k. The argument needs complete positivity and trace preservation;
    for any other square map acceptance says nothing about its powers.

    When the channel fixes the code's span (:func:`_fixes_code_span`, which
    takes the code's superoperator, whose columns are orthogonal with one
    norm, as the span's basis, and reads its image) and moves the code by
    at most ``tol_``, P is the identity there and the projected code is the
    code, isometric by its type, so nothing is detected. No other projection could be accepted: on a span the
    channel maps into itself it is ``phi o P_M``, with P_M the fixed-point
    projector of the induced logical map, and an idempotent map that
    preserves the trace norm is the identity. Otherwise the full
    :func:`cesaro_projector` projects the code, and detection and the
    fixed-point certificate of the projection decide.
    """
    tol.require_tolerance(tol_, "tol_")
    if not isinstance(encoding, IsometricEncoding):
        name = type(encoding).__name__
        raise ContractViolation(f"encoding must be an IsometricEncoding, got {name}")
    if channel.dim_in != channel.dim_out:
        raise ContractViolation("noiseless certificate requires a square channel")
    s_phi = encoding.superoperator()
    image = channel @ s_phi
    return _certificate(s_phi, image, _distance(image, s_phi), channel.superoperator, tol_)


def _fixes_code_span(s_phi: Superoperator, image: Superoperator) -> bool:
    """Whether a square map S fixes every vector in the span of the code's
    superoperator ``s_phi``, given ``image = S s_phi``.

    The columns vec(U_1 (E_ab kron tau) U_1^dag) of ``s_phi`` are orthogonal
    with norm ||tau||_F for every cofactor tau, rank-deficient ones
    included, so Q = s_phi / ||tau||_F is an orthonormal basis of the span,
    S Q is ``image / ||tau||_F``, and no SVD of ``s_phi`` is taken. S fixes
    span(Q) when it maps it into itself (the part of S Q off span(Q), whose
    spectral norm is the root of its d_S^2 x d_S^2 Gram matrix's largest
    eigenvalue, is below ``SPAN_CLOSURE_TOL`` of S Q's norm) and every
    singular value of ``Q^H S Q - I`` is below ``KERNEL_TOL``, the kernel cut
    of :func:`cesaro_projector`, so the fixed-point projector is the
    identity on span(Q).
    """
    scale = np.linalg.norm(s_phi._factors[1])
    q, s_q = s_phi.matrix / scale, image.matrix / scale
    h = q.conj().T @ s_q
    off = s_q - q @ h
    closure = np.sqrt(max(np.linalg.eigvalsh(off.conj().T @ off)[-1], 0.0))
    if closure > tol.SPAN_CLOSURE_TOL * float(np.linalg.norm(s_q)):
        return False
    return bool(np.linalg.norm(h - np.eye(len(h)), 2) < tol.KERNEL_TOL)


def _certificate(s_phi, image, moved: float, loop, tol_: float) -> NoiselessCertificate:
    """Body of :func:`noiseless_certificate` on the code's ``image`` under the
    loop: ``moved`` is its fixed residual, and ``loop()`` builds the loop's
    superoperator, which only the full projector needs."""
    if moved <= tol_ and _fixes_code_span(s_phi, image):
        return NoiselessCertificate(True, moved, "fixed")
    s_loop = loop()
    c_inf = cesaro_projector(s_loop) @ s_phi
    rep = detect_structure(c_inf, detection_tol=tol_)
    fixed_residual = is_fixed(c_inf, s_loop, tol_)[1] if rep.found else rep.residual
    return NoiselessCertificate(rep.found and fixed_residual <= tol_, fixed_residual, "full")


@dataclass(eq=False)
class CorrectionDetails:
    strategy_requested: str
    strategy_used: str
    fell_back: bool
    cofactor_tp_defect: float
    image_report: StructureReport


def _reset_to(spectrum, out_cols: np.ndarray, in_cols: np.ndarray):
    """``(cols, psi, w)`` of the reset of span(in_cols) to
    ``out_cols tau out_cols^dag``, for ``tau``'s ``state_spectrum``."""
    w, v = spectrum
    return in_cols, np.stack([out_cols @ x for x in v.T], axis=1), w


def _cofactor_recovery(encoding, channel, img, strategy, spectrum):
    """Kraus set on (image cofactor -> code cofactor), its TP defect, and
    whether time reversal fell back to replacement; ``spectrum`` is the code
    cofactor's ``state_spectrum``, which replacement resets to."""
    dec = encoding.decomposition
    d_f, d_g = dec.d_f, img.decomposition.d_f
    tau = encoding.cofactor
    tp_defect = 0.0
    if strategy == "time_reversal":
        # the Petz map of the induced cofactor channel E_FG = {v_out^dag K v_in}
        # at tau: its minimal operators e_k sandwiched as sqrt(tau) e_k^dag
        # sigma^(-1/2) with sigma = E_FG(tau). Stacked, the sqrt(tau) e_k^dag
        # are a matrix A with A^dag A = sigma, so the sandwiches are the polar
        # factor U V^dag of A on the singular values whose squares (sigma's
        # eigenvalues) pass the rank cut, and no inverse root is formed
        v_in = dec.block_columns[:, :d_f]                      # logical slot 0, code side
        v_out = img.decomposition.block_columns[:, :d_g]       # logical slot 0, image side
        e_fg = minimal_kraus(v_out.conj().T @ channel._stack @ v_in)
        sq_tau = sqrt_psd(tau)
        u, sv, vh = np.linalg.svd(
            np.concatenate([sq_tau @ k.conj().T for k in e_fg]), full_matrices=False
        )
        keep = above_rank_cut(sv**2)
        polar = u[:, keep] @ vh[keep]
        ops = polar.reshape(len(e_fg), d_f, d_g)
        # the spectral norm bounds the max-abs TP defect of the assembled
        # recovery, which the KrausChannel gate compares with TP_TOL: about 1
        # when the cut drops a direction of sigma, rounding otherwise
        tp_defect = float(np.linalg.norm(polar.conj().T @ polar - np.eye(d_g), 2))
        if tp_defect <= tol.TP_TOL:
            return ops, tp_defect, False
    ops = _rank_one_kraus(*_reset_to(spectrum, np.eye(d_f), np.eye(d_g)))
    return ops, tp_defect, strategy == "time_reversal"


def _check_strategy(strategy: str) -> None:
    if strategy not in ("time_reversal", "replace"):
        raise ContractViolation(f"unknown strategy {strategy!r}")


def _correction(encoding, channel, img: StructureReport, strategy: str):
    """Body of :func:`build_correction` on a detected image: (recovery, details)."""
    _check_strategy(strategy)
    if not img.found:
        raise NotCorrectableError(
            "code is not preserved by the channel, so no CPTP recovery exists "
            f"(detection failed at {img.stage!r} with residual {img.residual:.3e})"
        )
    if img.conjugation != "unitary":
        raise NumericError("image structure of a CP composite must be unitary-flavored")

    dec = encoding.decomposition
    d_s, d_f = dec.d_s, dec.d_f
    d_g = img.decomposition.d_f
    spectrum = state_spectrum(encoding.cofactor)
    ops_gf, tp_defect, fell_back = _cofactor_recovery(encoding, channel, img, strategy, spectrum)
    u1 = dec.block_columns
    w1 = img.decomposition.block_columns
    blocks = np.stack([u1 @ np.kron(np.eye(d_s), k) @ w1.conj().T for k in ops_gf])

    # complete trace preservation: route the image complement to the
    # encoded reference state of the first logical basis vector
    t_cols = img.decomposition.basis[:, d_s * d_g :]
    reset = _Reset(*_reset_to(spectrum, u1[:, :d_f], t_cols))

    details = CorrectionDetails(
        strategy_requested=strategy,
        strategy_used="replace" if fell_back else strategy,
        fell_back=fell_back,
        cofactor_tp_defect=tp_defect,
        image_report=img,
    )
    return KrausChannel._with_reset(blocks, reset), details


def build_correction(
    encoding: IsometricEncoding,
    channel: KrausChannel,
    strategy: str = "time_reversal",
    tol_: float = tol.DETECTION_TOL,
    return_details: bool = False,
):
    """Construct a CPTP recovery that makes the code a set of fixed points.

    Requires the code to be preserved by the channel; otherwise any
    recovery would have to expand trace distances, which no CPTP map can
    do, and ``NotCorrectableError`` is raised. On the image support the
    recovery undoes the logical rotation and maps the image cofactor back
    to the code cofactor (by ``time_reversal`` or ``replace``); the
    complement is routed to a fixed encoded reference state so the result
    is trace preserving everywhere.

    The recovery holds the block operators and that routing as one reset
    term ``X -> Tr(P_c X) rho_ref`` (P_c the projector onto the image
    complement, rho_ref the reference state), which ``apply``, ``@`` and
    ``tp_defect`` and ``superoperator()`` read directly. Its Kraus list, the
    block operators and then the reset's rank(tau)·(d_P - d_S·d_G) rank-one
    operators, is expanded only when ``kraus`` is read (by
    :func:`~tniso.channels.convex_mix`, or by :func:`~tniso.channels.compose`
    with the recovery inside); ``compose(recovery, channel)`` keeps the reset
    term.
    """
    tol.require_tolerance(tol_, "tol_")
    _, img = _image(encoding, channel, tol_)
    recovery, details = _correction(encoding, channel, img, strategy)
    return (recovery, details) if return_details else recovery


def derive_protectable_code(
    encoding: IsometricEncoding,
    channel: KrausChannel,
    strategy: str = "time_reversal",
    tol_: float = tol.DETECTION_TOL,
):
    """The image code of a preserved encoding, fixed by channel-then-recovery.

    Returns (image structure report, recovery, residual): applying the
    recovery *before* the channel fixes every operator in the image code's
    span, so the image code is protectable with the same recovery that
    corrects the original.
    """
    tol.require_tolerance(tol_, "tol_")
    composite, img = _image(encoding, channel, tol_)
    recovery, _ = _correction(encoding, channel, img, strategy)
    return img, recovery, _distance(channel @ (recovery @ composite), composite)


def check_ns_factorization(
    channel: KrausChannel,
    dec: SubsystemDecomposition,
    tol_: float = tol.DETECTION_TOL,
    logical_unitary=None,
):
    """Whether the channel restricted to the block acts trivially on the
    logical factor.

    Requires the channel to map states on the logical-cofactor block into
    the block. Each restricted Kraus operator is split against an
    orthonormal product operator basis whose logical anchor is the
    identity; acceptance means every non-identity logical component
    vanishes within ``tol_``. Returns (ok, cofactor channel or None,
    residual). ``logical_unitary`` is absorbed (inverted) before the
    split, for channels expected to act as a known logical rotation.
    """
    tol.require_tolerance(tol_, "tol_")
    d_s, d_f = dec.d_s, dec.d_f
    n = d_s * d_f
    rho_bar = dec.embed(np.eye(n) / n)
    ok, res = check_support_invariance(channel, rho_bar, max(tol_, tol.INVARIANCE_FLOOR))
    if not ok:
        raise ContractViolation(
            f"channel does not leave the block invariant (residual {res:.3e})"
        )
    u1 = dec.block_columns
    residual = 0.0
    cof_ops = []
    for k in channel.kraus:
        m = u1.conj().T @ k @ u1
        if logical_unitary is not None:
            m = np.kron(np.asarray(logical_unitary).conj().T, np.eye(d_f)) @ m
        t = m.reshape(d_s, d_f, d_s, d_f)
        # normalized partial trace over the logical factor
        g = np.einsum("sasb->ab", t) / d_s
        residual = max(residual, float(np.linalg.norm(m - np.kron(np.eye(d_s), g))))
        cof_ops.append(g)
    accepted = residual <= tol_
    if not accepted:
        return False, None, residual
    cof = KrausChannel(cof_ops, tp_tol=max(tol.TP_TOL, 10 * residual + tol.TP_TOL))
    return True, cof, residual


@dataclass(eq=False)
class UnitaryCorrectabilityResult:
    """Outcome of :func:`unitary_correctability`: ``residual`` is the image's
    preservation certificate; ``unitarily_correctable`` adds
    ``image_support_dim <= code_support_dim``, which for a minimal code
    implies the noiseless-subsystem factorization of the loop."""

    unitarily_correctable: bool
    unitarily_recoverable: bool
    unitary: np.ndarray
    residual: float
    code_support_dim: int
    image_support_dim: int


def _paired_unitary(target_cols: np.ndarray, source_cols: np.ndarray):
    """Unitary mapping each source column onto the matching target column.

    The source complement goes onto the target complement through the polar
    factor of their overlap, so the result does not depend on the bases the
    two completions pick.
    """
    v = target_cols @ source_cols.conj().T
    t_comp = _orthonormal_completion(target_cols)[:, target_cols.shape[1] :]
    s_comp = _orthonormal_completion(source_cols)[:, source_cols.shape[1] :]
    u, _, vh = np.linalg.svd(t_comp.conj().T @ s_comp)
    return v + t_comp @ (u @ vh) @ s_comp.conj().T


def _unitary_verdicts(encoding: IsometricEncoding, img: StructureReport):
    """Both unitary verdicts read off the image report, with no unitary
    (``unitary`` is None); the code support counts the cofactor rank with
    ``above_rank_cut``, as :meth:`IsometricEncoding.minimalize` does."""
    d_s = encoding.dim_logical
    rank = int(np.count_nonzero(above_rank_cut(encoding.weights)))
    code_dim, image_dim = d_s * rank, d_s * img.decomposition.d_f
    recoverable = img.found and img.conjugation == "unitary"
    return UnitaryCorrectabilityResult(
        recoverable and image_dim <= code_dim, recoverable, None, img.residual, code_dim, image_dim
    )


def unitary_correctability(
    encoding: IsometricEncoding,
    channel: KrausChannel,
    tol_: float = tol.DETECTION_TOL,
) -> UnitaryCorrectabilityResult:
    """Decide whether a unitary suffices to correct (or only recover) the code.

    The pairing unitary V carries the image block onto a target grid: the
    code's leading cofactor slots, extended into the remainder when the
    image cofactor is larger. V changes no trace norm, so the certificate of
    V after channel after encoding against the target-grid encoding is the
    image's preservation certificate: a code preserved with unitary flavor
    is unitarily recoverable. It is unitarily correctable (stable under
    iteration) if the image support is also no larger than the code
    support: the target then lies in the code's own block, and the
    noiseless-subsystem factorization of the noise-plus-unitary loop is
    implied, since a CPTP map sending every ``rho kron tau`` with full-rank
    ``tau`` to ``rho kron sigma`` acts as ``I kron g_k`` on the block. A
    larger image is only restored into a non-minimal extension of the
    decomposition, with no guarantee under repeated cycles.
    """
    tol.require_tolerance(tol_, "tol_")
    _, img = _image(encoding, channel, tol_)
    if not img.found:
        raise NotCorrectableError("unitary correctability requires a preserved code")
    result = _unitary_verdicts(encoding, img)
    dec = encoding.minimalize().decomposition
    d_s, r_f, d_g = dec.d_s, dec.d_f, img.decomposition.d_f
    # target grid: cofactor slot a < r_f is the code's own, the rest come
    # from the remainder, which detection guarantees is large enough
    u_min, comp = dec.block_columns, dec.basis[:, d_s * r_f :]
    target = np.stack(
        [
            u_min[:, s * r_f + a] if a < r_f else comp[:, (a - r_f) * d_s + s]
            for s in range(d_s)
            for a in range(d_g)
        ],
        axis=1,
    )
    result.unitary = _paired_unitary(target, img.decomposition.block_columns)
    return result


@dataclass(eq=False)
class ClassificationReport:
    """Verdict table for one (code, channel) pair.

    Emitted reports always satisfy: fixed implies preserved; preserved,
    correctable, and completely_correctable coincide; unitarily_correctable
    implies unitarily_recoverable, which implies correctable.
    ``protectable`` certifies that the image code is fixed by
    channel-after-recovery. Both unitary verdicts read the image certificate
    (``residuals["unitary"] == residuals["preservation"]``; see
    :func:`unitary_correctability`); for a minimal code the NS factorization
    of the noise-plus-unitary loop is implied, not checked separately.
    Every residual is finite. ``meta`` says how the verdicts were reached:
    the image's detection ``stage`` (``"verified"`` for a preserved code, or
    the stage that rejected the image) and the ``detection_tol`` its
    residual was compared with, and for a preserved code the noiseless
    certificate's ``projector`` and whether the recovery ``fell_back`` from
    time reversal to replacement. It is not part of :meth:`as_dict`.
    """

    fixed: bool
    preserved: bool
    noiseless_certificate: bool
    correctable: bool
    completely_correctable: bool
    protectable: bool
    unitarily_correctable: bool
    unitarily_recoverable: bool
    residuals: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "fixed": self.fixed,
            "preserved": self.preserved,
            "noiseless_certificate": self.noiseless_certificate,
            "correctable": self.correctable,
            "completely_correctable": self.completely_correctable,
            "protectable": self.protectable,
            "unitarily_correctable": self.unitarily_correctable,
            "unitarily_recoverable": self.unitarily_recoverable,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
        }


def classify(
    encoding: IsometricEncoding,
    channel: KrausChannel,
    tol_: float = tol.DETECTION_TOL,
    strategy: str = "time_reversal",
) -> ClassificationReport:
    """Run the full classification pipeline for one code and channel.

    The fixed, correction and protection residuals each compare two links of
    the chain ``phi -> E o phi -> R o E o phi -> E o R o E o phi``, each link
    ``channel @ link``. The first keeps the code's factors (``M_k U_1``, one
    Gram product), so the fixed residual and the image's verification are
    read off factors when they are narrower than the Choi matrix; each later
    link applies its channel to the images of the one before. The code side
    of the chain reads the code's block span(U_1), where phi lands and the
    built recovery maps back: the correction residual is
    :func:`_block_distance`, the certificate of ``R o E o phi - phi``
    compressed to the block, and the noiseless certificate's span check
    takes ``S_phi / ||tau||_F`` as the span's orthonormal basis. The
    corrected loop's superoperator, ``recovery.superoperator() @ channel``,
    is built only if the full projector decides, and with it the only
    detection besides the image's. ``meta`` names the image's detection
    ``stage`` and the ``detection_tol`` it was compared with, accepted or
    not.
    """
    tol.require_tolerance(tol_, "tol_")
    _check_strategy(strategy)
    s_phi = encoding.superoperator()
    composite, rep = _image(s_phi, channel, tol_)
    residuals = {"fixed": _distance(composite, s_phi), "preservation": rep.residual}
    fixed = residuals["fixed"] <= tol_

    if not rep.found:
        return ClassificationReport(
            fixed=fixed,
            preserved=False,
            noiseless_certificate=False,
            correctable=False,
            completely_correctable=False,
            protectable=False,
            unitarily_correctable=False,
            unitarily_recoverable=False,
            residuals=residuals,
            meta={"stage": rep.stage, "detection_tol": tol_},
        )

    recovery, details = _correction(encoding, channel, rep, strategy)
    corrected = recovery @ composite
    residuals["protection"] = _distance(channel @ corrected, composite)
    residuals["correction"] = _block_distance(corrected, s_phi)

    # correctability means noiselessness under the corrected loop; the
    # certificate witnesses that constructively
    loop = lambda: recovery.superoperator() @ channel
    cert = _certificate(s_phi, corrected, residuals["correction"], loop, tol_)
    residuals["noiseless_fixed_code"] = cert.fixed_residual
    logger.debug("noiseless certificate: %s projector", cert.projector)

    uc = _unitary_verdicts(encoding, rep)
    residuals["unitary"] = uc.residual

    return ClassificationReport(
        fixed=fixed,
        preserved=True,
        noiseless_certificate=cert.accepted,
        correctable=True,
        completely_correctable=True,
        protectable=residuals["protection"] <= tol_,
        unitarily_correctable=uc.unitarily_correctable,
        unitarily_recoverable=uc.unitarily_recoverable,
        residuals=residuals,
        meta={
            "stage": rep.stage,
            "detection_tol": tol_,
            "projector": cert.projector,
            "fell_back": details.fell_back,
        },
    )

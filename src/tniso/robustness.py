"""Perturbed encodings: measuring deviations and bounding iterated errors.

The perturbation size of an almost-isometric encoding is the worst
trace-norm deviation over states. The deviation map is linear and the trace
norm convex, so pure states attain the supremum; an ascent over them finds a
witness, a lower bound. Every image it values is a combination of the
deviation's images of the matrix units, so it lies in their joint range, and
an isometry onto that range keeps trace norms: the ascent values r x r
compressions, r the range's dimension, and the witness is valued by its
whole image, so that the lower end holds whatever the rank cut drops. The
deviation map's trace-norm certificate (a closed-form Choi bound,
:func:`tniso.channels.trace_norm_certificate`) is the upper end of the
bracket, which bound checks must consume. For one recovery-after-channel
round on a code that end is :func:`tniso.analysis._round_residual`, bit for
bit, which needs no search. A simulated trajectory carries no bounds:
:func:`check_prop3_bound` and :func:`check_geometric_bound` are the one
place that n * epsilon and epsilon / (1 - alpha) are computed.

The inputs are checked at the public entry points; past them, the pooled
images, the simulated trajectories and their differences are finite by
construction: the correction rounds call the maps' image kernels (``_images``),
not ``apply``, on the vectorized iterates. :func:`tniso.opcore._trace_norms`
takes a stack's trace norms, each equal bit for bit to
:func:`tniso.opcore.trace_norm` of its matrix, for the ε witness and the
perturbed-code check; a simulated trajectory's differences, Hermitian up to
the rounding of the rounds, take :func:`tniso.opcore._hermitian_trace_norms`,
one eigensolve each, within ``sqrt(d) ||X - X^dag||_F`` of the trace norm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, Superoperator, trace_norm_certificate, unvec, vec
from .codes import IsometricEncoding, PerturbedEncoding
from .errors import ContractViolation
from .opcore import _hermitian_trace_norms, _trace_norms, above_rank_cut, as_matrix
from .sampling import random_density, random_pure_state
from . import tolerances as tol


@dataclass(eq=False)
class EpsilonEstimate:
    """Bracket on the perturbation size of an almost-isometric encoding.

    ``epsilon``, a lower bound, is the deviation of the pure ``witness_state``:
    the state the ascent reached, or its best start if that one's image has
    the larger trace norm; ``upper_bound``, the deviation map's trace-norm
    certificate, dominates the supremum whatever the seed of the starts.
    ``search_dim`` is the dimension r of the deviation's range, in which the
    ascent valued its states as r x r matrices.
    """

    epsilon: float
    witness_state: np.ndarray
    upper_bound: float
    search_dim: int | None = None


def _deviation_superoperator(perturbed, nominal: IsometricEncoding) -> Superoperator:
    perturbed = perturbed.superoperator()
    nom = nominal.superoperator()
    if (perturbed.dim_in, perturbed.dim_out) != (nom.dim_in, nom.dim_out):
        raise ContractViolation("perturbed and nominal encodings differ in dimensions")
    return Superoperator(nom.dim_in, nom.dim_out, perturbed.matrix - nom.matrix)


# The search budget of :func:`estimate_epsilon`: random pure starts beside
# the d_S^2 basis starts, and the most ascent steps.
_EPSILON_SAMPLES = 200
_EPSILON_STEPS = 200
# Byte budget of one chunk of pooled r x r images in :func:`estimate_epsilon`:
# 1,024 at r = 4 and 64 at r = 16.
_EPSILON_BLOCK_BYTES = 1 << 18


def estimate_epsilon(perturbed, nominal: IsometricEncoding, seed: int = 0) -> EpsilonEstimate:
    """Estimate the worst-state trace-norm deviation from a nominal encoding.

    A pure state v has the value ``f(v) = ||H(v)||_1``, ``H(v)`` the Hermitian
    part of ``delta(|v><v|)``. Every ``H(v)`` is a combination of the images
    ``H_ab`` of the d_S^2 matrix units, so its range lies in their joint range;
    Q, the left singular vectors of the images side by side whose singular
    values pass :func:`tniso.opcore.above_rank_cut` (at least one), spans it,
    and ``||Q^dag H(v) Q||_1 = ||H(v)||_1`` as Q is an isometry. The search
    values states by these r x r compressions. The starts, valued a chunk at a
    time by one matrix product and one batched ``eigvalsh``, are the d_S^2
    states |i>, (|i> + |j>)/sqrt 2 and (|i> + i|j>)/sqrt 2, then
    ``_EPSILON_SAMPLES`` random pure states from ``seed``, a fixed budget. At
    most ``_EPSILON_STEPS`` steps of Hager's one-norm ascent, lifted to maps,
    take the best start v to the sign S of ``Q^dag H(v) Q``, then to the top eigenvector v' of the Hermitian part of
    ``delta^dag(Q S Q^dag)``:
    ``f(v') >= <S, Q^dag H(v') Q> = lambda_max >= <S, Q^dag H(v) Q> = f(v)``
    as ``||Q S Q^dag|| <= 1``. A step c < 1 times the last goes 1 / (1 - c)
    times as far, to the end of their geometric series, if that raises f. The
    ascent stops at a step that gains at most ``ASCENT_GAIN_TOL`` of f. The
    ascent's end and the best start are then valued by the trace norms of
    their full d_P x d_P images, so the lower end holds whatever the rank cut
    and delta's anti-Hermitian part drop; the witness is the end unless the
    start is strictly better, and its value is ``epsilon``, which thus never
    falls below the best start's.
    """
    if seed < 0:
        raise ContractViolation(f"seed must be nonnegative, got {seed}")
    delta = _deviation_superoperator(perturbed, nominal)
    m, d, n, rng = delta.matrix, delta.dim_in, delta.dim_out, np.random.default_rng(seed)

    # delta's Hermitian part on Hermitian operators, X -> (delta(X) + delta(X^dag)^dag) / 2,
    # as its n x n images H_ab of the matrix units E_ab side by side, then their range Q
    t = m.reshape((n, n, d, d), order="F")
    units = (t + t.conj().transpose(1, 0, 3, 2)).reshape((n, n * d * d), order="F") / 2
    # units = R^dag Q_1^dag from the QR of units^dag: the n x n R^dag has its left
    # singular vectors and singular values, at a quarter of the wide SVD's time at d_P = 20
    q, s, _ = np.linalg.svd(np.linalg.qr(units.conj().T, mode="r").conj().T)
    keep = above_rank_cut(s)
    keep[0] = True
    q = q[:, keep]
    r = q.shape[1]
    # column a + d b is vec(Q^dag H_ab Q)
    compressed = (q.conj().T @ units).reshape((r, n, d * d), order="F").transpose(2, 0, 1) @ q
    half = compressed.transpose(1, 2, 0).reshape((r * r, d * d), order="F")

    def hermitian_images(vs):
        # (Q^dag H(v) Q)^T of each row v, as the row (v^* v^T).ravel() is vec(|v><v|)^T;
        # from its eigh, (u * sign(w)) u^dag is sign(Q^dag H(v) Q)^T, whose ravel() is vec(S)
        return ((vs.conj()[:, :, None] * vs[:, None, :]).reshape(len(vs), d * d) @ half.T).reshape(-1, r, r)

    eye, (i, j) = np.eye(d, dtype=complex), np.triu_indices(d, 1)
    g = rng.standard_normal((_EPSILON_SAMPLES, 2, d))
    drawn = g[:, 0] + 1j * g[:, 1]
    pool = np.concatenate([
        eye, (eye[i] + eye[j]) / np.sqrt(2), (eye[i] + 1j * eye[j]) / np.sqrt(2),
        drawn / np.linalg.norm(drawn, axis=1)[:, None],
    ])
    rows = max(1, _EPSILON_BLOCK_BYTES // (16 * r * r))
    best, v = -np.inf, None
    for start in range(0, len(pool), rows):
        vs = pool[start : start + rows]
        vals = np.abs(np.linalg.eigvalsh(hermitian_images(vs))).sum(-1)
        if vals.max() > best:
            best, v = vals.max(), vs[np.argmax(vals)]

    def value(v):
        w, u = np.linalg.eigh(hermitian_images(v[None])[0])
        return np.abs(w).sum(), w, u

    # each step moves one vector: its norms and phase are Python scalars, and
    # the adjoint of the compressed map is formed once
    adjoint = half.conj().T
    start, (f, w, u), size = v, value(v), 0.0
    for _ in range(_EPSILON_STEPS):
        dual = unvec(adjoint @ ((u * np.sign(w)) @ u.conj().T).ravel(), d)
        top = np.linalg.eigh(dual)[1][:, -1]
        step = top * cmath.exp(-1j * cmath.phase(np.vdot(v, top))) - v
        last, size = size, math.sqrt(np.vdot(step, step).real)
        v = v + (last / (last - size) if 0 < size < last else 1.0) * step
        v /= math.sqrt(np.vdot(v, v).real)
        f_new, w, u = value(v)
        if f_new <= f:
            v, (f_new, w, u) = top, value(top)
        if f_new - f <= tol.ASCENT_GAIN_TOL * f:
            break
        f = f_new

    # the ascent's end and the best start, valued by their whole images; the
    # end is kept unless the start is strictly better
    states = [np.outer(x, x.conj()) for x in (v, start)]
    values = _trace_norms(np.stack([unvec(m @ vec(x), n) for x in states]))
    pick = int(np.argmax(values))
    return EpsilonEstimate(
        epsilon=float(values[pick]),
        witness_state=states[pick],
        upper_bound=trace_norm_certificate(delta),
        search_dim=r,
    )


def _require_epsilon(epsilon):
    """Refuse a per-round bound that is not nonnegative and finite, naming
    ``epsilon``: an infinite or NaN bound makes every bound check
    meaningless, and a negative one fails every error."""
    if not 0 <= epsilon < float("inf"):
        raise ContractViolation(f"epsilon must be nonnegative and finite, got {epsilon!r}")


def _iterates(channel, recovery, x0: np.ndarray, rounds: int) -> np.ndarray:
    """``x0`` and its first ``rounds`` images under recovery after channel,
    stacked; each round calls the two image kernels on the finite iterate,
    held vectorized as one row of the stack, which is unvectorized once."""
    d = len(x0)
    out = np.empty((rounds + 1, d * d), dtype=complex)
    out[0] = vec(x0)
    for k in range(rounds):
        out[k + 1] = recovery._images(channel._images(out[k][:, None]))[:, 0]
    return np.ascontiguousarray(out.reshape(rounds + 1, d, d).transpose(0, 2, 1))


@dataclass(eq=False)
class SimulationTrace:
    """States and error bookkeeping for iterated noise-plus-recovery runs.

    ``errors[i]`` is the trace-norm distance of the i-th iterate from the
    initial state on the physical space; ``decoded_errors`` measures decoded
    logical states when an encoding was supplied. ``alpha_estimates[i]`` is
    the ratio ``||d_(i+1)||_1 / ||d_i||_1`` of successive steps
    ``d_i = s_(i+1) - s_i`` of the trajectory, which the round map's
    fixed-point projector annihilates; steps below
    ``CONTRACTION_RESIDUAL_FLOOR`` give NaN. The error bounds are the bound
    checks' to compute, from a certified per-round epsilon.
    """

    states: list
    errors: np.ndarray
    decoded_errors: np.ndarray | None
    alpha_estimates: np.ndarray
    alpha_max: float | None


def simulate_iterated(
    channel: KrausChannel,
    recovery: KrausChannel,
    rho0,
    n: int,
    encoding: IsometricEncoding | None = None,
) -> SimulationTrace:
    """Iterate recovery-after-channel from an initial state for n rounds.

    Each round is ``R(E(x))``, with no operand check. The contraction
    estimates read the steps ``d_i = s_(i+1) - s_i`` of the trajectory: the
    round map L sends ``d_i`` to ``d_(i+1)``, and the fixed-point projector P
    of L has ``P d_i = 0`` because ``P L = P``, so the steps are a trajectory
    of L off its fixed points and no projector is needed. One round past the
    n-th is run, not stored, for the last ratio ``alpha_(n-1)``; ratios from
    steps below ``CONTRACTION_RESIDUAL_FLOOR`` are skipped.

    A CPTP map contracts the trace norm of Hermitian operators, so every
    ratio is at most 1 up to rounding, and a step below the floor keeps
    every later step below it. By induction
    ``||d_i||_1 <= max(alpha_max^i ||d_0||_1, floor)``, and summing the
    steps gives
    ``error_n <= sum_(i<n) ||d_i||_1 <= ||d_0||_1 / (1 - alpha_max) + n * floor``.
    For an encoded ``rho0``, ``||d_0||_1`` is one round's deviation from the
    encoding, at most the per-round epsilon of :func:`estimate_epsilon`'s
    upper end; then :func:`check_geometric_bound`'s bound is certified for
    the simulated rounds (``BOUND_SLACK`` absorbs the floor term), though
    ``alpha_max`` is read off this trajectory and says nothing of later
    rounds.

    The trajectory is held as one stack of vectorized iterates, each round
    one call of each map's image kernel on a bare column, and unvectorized
    once; the states are bit for bit those of ``recovery(channel(x))`` taken
    round by round. The errors and the steps are one
    :func:`tniso.opcore._hermitian_trace_norms` call on their 2(n+1) stacked
    differences, and the decoded errors one more: the differences of
    Hermitian iterates are Hermitian up to rounding, so each value is within
    ``sqrt(d) ||X - X^dag||_F`` (plus the eigensolver's rounding) of the
    trace norm of its difference X.
    """
    if n < 1:
        raise ContractViolation(f"n must be at least 1, got {n}")
    rho0 = as_matrix(rho0)
    d = channel.dim_in
    if (recovery.dim_in, recovery.dim_out) != (channel.dim_out, d) or rho0.shape != (d, d):
        raise ContractViolation("channel, recovery, and state dimensions must agree")

    path = _iterates(channel, recovery, rho0, n + 1)
    states = list(path[:-1])
    errors, steps = _hermitian_trace_norms(np.stack([rho0 - path[:-1], path[1:] - path[:-1]]))
    decoded = None
    if encoding is not None:
        logical = encoding._decoded(path[:-1])
        decoded = _hermitian_trace_norms(logical[0] - logical)

    measurable = steps[:-1] >= tol.CONTRACTION_RESIDUAL_FLOOR
    alphas = np.full(n, np.nan)
    alphas[measurable] = steps[1:][measurable] / steps[:-1][measurable]
    finite = alphas[np.isfinite(alphas)]
    alpha_max = float(finite.max()) if finite.size else None
    return SimulationTrace(
        states=states,
        errors=errors,
        decoded_errors=decoded,
        alpha_estimates=alphas,
        alpha_max=alpha_max,
    )


def check_prop3_bound(trace: SimulationTrace, epsilon: float):
    """Check the linear accumulation bound error_n <= n * epsilon.

    ``epsilon`` must be a certified per-round bound (the upper end of an
    estimate bracket), not the witness, a lower bound. Errors may exceed the
    bound by ``BOUND_SLACK``. Returns (ok, margin) with margin = min over n
    of (n * epsilon - error_n). An ``epsilon`` that is negative, NaN or
    infinite is refused.
    """
    _require_epsilon(epsilon)
    n = np.arange(len(trace.errors), dtype=float)
    margins = n * epsilon - trace.errors
    return bool((trace.errors <= n * epsilon + tol.BOUND_SLACK).all()), float(margins.min())


@dataclass(eq=False)
class GeometricBoundResult:
    applicable: bool
    ok: bool | None
    alpha_max: float | None
    bound: float | None


def check_geometric_bound(trace: SimulationTrace, epsilon: float) -> GeometricBoundResult:
    """Check errors against epsilon / (1 - alpha) for strictly contractive loops.

    Errors may exceed the bound by ``BOUND_SLACK``. Not applicable when the
    observed contraction factor reaches 1 (or no residual steps were
    measurable). An ``epsilon`` that is negative, NaN or infinite is refused.
    """
    _require_epsilon(epsilon)
    if trace.alpha_max is None or trace.alpha_max >= 1.0:
        return GeometricBoundResult(False, None, trace.alpha_max, None)
    bound = epsilon / (1.0 - trace.alpha_max)
    ok = bool((trace.errors <= bound + tol.BOUND_SLACK).all())
    return GeometricBoundResult(True, ok, trace.alpha_max, bound)


def perturbed_encoding_correctability(
    perturbed: PerturbedEncoding,
    channel: KrausChannel,
    recovery: KrausChannel,
    horizon: int = 20,
    tol_: float = tol.DETECTION_TOL,
):
    """Check that exact-model correction never amplifies encoding errors.

    The nominal code must be fixed by recovery-after-channel; then each
    round ``R(E(x))`` acts on the perturbation alone and
    trace-norm contraction keeps every iterate within the certified
    perturbation size of the nominal image. The errors are measured on the
    maximally mixed state, the logical basis states and 8 random states
    drawn with seed 0; each state's iterates are one stack and one batched
    trace-norm call. Returns (ok, max error, per-round max errors).
    """
    from .analysis import _round_residual

    tol.require_tolerance(tol_, "tol_")
    if horizon < 0:
        raise ContractViolation(f"horizon must be nonnegative, got {horizon}")
    nominal = perturbed.nominal
    fixed_res = _round_residual(channel, recovery, nominal)
    if fixed_res > max(tol_, tol.LOOP_FIXED_FLOOR):
        raise ContractViolation(
            f"nominal code is not fixed by the correction loop (residual {fixed_res:.3e})"
        )
    rng = np.random.default_rng(0)
    d = nominal.dim_logical
    test_states = [np.eye(d, dtype=complex) / d] + [np.diag(e) for e in np.eye(d, dtype=complex)]
    for i in range(8):
        if i % 2 == 0:
            v = random_pure_state(d, rng)
            test_states.append(np.outer(v, v.conj()))
        else:
            test_states.append(random_density(d, rng))

    per_round = np.zeros(horizon + 1)
    for rho in test_states:
        xs = _iterates(channel, recovery, perturbed.apply(rho), horizon)
        per_round = np.maximum(per_round, _trace_norms(xs - nominal.encode(rho)))
    max_err = float(per_round.max())
    return max_err <= perturbed.epsilon + tol_, max_err, per_round

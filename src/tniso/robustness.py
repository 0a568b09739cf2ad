"""Perturbed encodings: measuring deviations and bounding iterated errors.

The perturbation size of an almost-isometric encoding is the worst
trace-norm deviation over states. Since the deviation map is linear and the
trace norm convex, pure states attain the supremum, so estimation samples
pure states and refines locally. Sampling only lower-bounds, so the
deviation map's trace-norm certificate (a closed-form Choi bound, see
:func:`tniso.channels.trace_norm_certificate`) is reported alongside as the
upper end of the bracket, and bound checks must consume that upper end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, Superoperator, compose, trace_norm_certificate
from .codes import IsometricEncoding, PerturbedEncoding
from .errors import ContractViolation
from .opcore import as_matrix, trace_norm
from .sampling import random_density, random_pure_state
from . import tolerances as tol


@dataclass(eq=False)
class EpsilonEstimate:
    """Bracket on the perturbation size of an almost-isometric encoding.

    ``epsilon`` is the best sampled value (a lower bound on the true
    supremum) and equals the deviation of ``witness_state`` exactly;
    ``upper_bound`` is the deviation map's trace-norm certificate, which
    dominates the supremum and does not depend on ``seed``.
    """

    epsilon: float
    witness_state: np.ndarray
    upper_bound: float
    samples: int
    refine_steps: int
    seed: int


def _deviation_superoperator(perturbed, nominal: IsometricEncoding) -> Superoperator:
    perturbed = perturbed.superoperator()
    nom = nominal.superoperator()
    if (perturbed.dim_in, perturbed.dim_out) != (nom.dim_in, nom.dim_out):
        raise ContractViolation("perturbed and nominal encodings differ in dimensions")
    return Superoperator(nom.dim_in, nom.dim_out, perturbed.matrix - nom.matrix)


def estimate_epsilon(
    perturbed,
    nominal: IsometricEncoding,
    samples: int = 200,
    refine_steps: int = 200,
    seed: int = 0,
) -> EpsilonEstimate:
    """Estimate the worst-state trace-norm deviation from a nominal encoding.

    Random pure-state sampling followed by accept-if-better coordinate
    refinement of the best state vector. The returned ``epsilon`` is
    recomputed from the witness at emission.
    """
    if samples < 1:
        raise ContractViolation(f"samples must be at least 1, got {samples}")
    if refine_steps < 0:
        raise ContractViolation(f"refine_steps must be nonnegative, got {refine_steps}")
    if seed < 0:
        raise ContractViolation(f"seed must be nonnegative, got {seed}")
    delta = _deviation_superoperator(perturbed, nominal)
    d = nominal.dim_logical
    rng = np.random.default_rng(seed)

    def value(v):
        return trace_norm(delta(np.outer(v, v.conj())))

    best_v = random_pure_state(d, rng)
    best = value(best_v)
    for _ in range(samples - 1):
        v = random_pure_state(d, rng)
        val = value(v)
        if val > best:
            best, best_v = val, v
    step = 0.3
    for _ in range(refine_steps):
        prop = best_v + step * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        prop /= np.linalg.norm(prop)
        val = value(prop)
        if val > best:
            best, best_v = val, prop
        else:
            step *= 0.95

    witness = np.outer(best_v, best_v.conj())
    return EpsilonEstimate(
        epsilon=trace_norm(delta(witness)),
        witness_state=witness,
        upper_bound=trace_norm_certificate(delta),
        samples=samples,
        refine_steps=refine_steps,
        seed=seed,
    )


@dataclass(eq=False)
class SimulationTrace:
    """States and error bookkeeping for iterated noise-plus-recovery runs.

    ``errors[i]`` is the trace-norm distance of the i-th iterate from the
    initial state on the physical space; ``decoded_errors`` measures decoded
    logical states when an encoding was supplied. ``alpha_estimates[i]`` is
    the ratio ``||d_(i+1)||_1 / ||d_i||_1`` of successive steps
    ``d_i = s_(i+1) - s_i`` of the trajectory, which the round map's
    fixed-point projector annihilates; steps below
    ``CONTRACTION_RESIDUAL_FLOOR`` give NaN. Bound arrays have length n+1.
    """

    states: list
    errors: np.ndarray
    decoded_errors: np.ndarray | None
    alpha_estimates: np.ndarray
    alpha_max: float | None
    epsilon: float | None
    linear_bound: np.ndarray | None
    geometric_bound: float | None


def simulate_iterated(
    channel: KrausChannel,
    recovery: KrausChannel,
    rho0,
    n: int,
    encoding: IsometricEncoding | None = None,
    epsilon: float | None = None,
) -> SimulationTrace:
    """Iterate recovery-after-channel from an initial state for n rounds.

    Each round is ``recovery(channel(x))``. The contraction estimates read
    the steps ``d_i = s_(i+1) - s_i`` of the trajectory: the round map L
    sends ``d_i`` to ``d_(i+1)``, and the fixed-point projector P of L has
    ``P d_i = 0`` because ``P L = P``, so the steps are a trajectory of L off
    its fixed points and no projector is needed. One round past the n-th is
    run, not stored, for the last ratio ``alpha_(n-1)``; ratios from steps
    below ``CONTRACTION_RESIDUAL_FLOOR`` are skipped.

    A CPTP map contracts the trace norm of Hermitian operators, so every
    ratio is at most 1 up to rounding, and a step below the floor keeps
    every later step below it. By induction
    ``||d_i||_1 <= max(alpha_max^i ||d_0||_1, floor)``, and summing the
    steps gives
    ``error_n <= sum_(i<n) ||d_i||_1 <= ||d_0||_1 / (1 - alpha_max) + n * floor``.
    For an encoded ``rho0``, ``||d_0||_1`` is one round's deviation from the
    encoding, at most the per-round ``epsilon`` of :func:`estimate_epsilon`'s
    upper end; then ``geometric_bound`` is certified for the simulated
    rounds (``BOUND_SLACK`` absorbs the floor term), though ``alpha_max`` is
    read off this trajectory and says nothing of later rounds.
    """
    if n < 1:
        raise ContractViolation(f"n must be at least 1, got {n}")
    rho0 = as_matrix(rho0)
    d = channel.dim_in
    if (recovery.dim_in, recovery.dim_out) != (channel.dim_out, d) or rho0.shape != (d, d):
        raise ContractViolation("channel, recovery, and state dimensions must agree")

    states = [rho0]
    for _ in range(n):
        states.append(recovery(channel(states[-1])))
    beyond = recovery(channel(states[-1]))

    errors = np.array([trace_norm(rho0 - s) for s in states])
    decoded = None
    if encoding is not None:
        logical = [encoding.decode(s) for s in states]
        decoded = np.array([trace_norm(logical[0] - l) for l in logical])

    steps = [trace_norm(b - a) for a, b in zip(states, states[1:] + [beyond])]
    alphas = np.full(n, np.nan)
    for i in range(n):
        if steps[i] >= tol.CONTRACTION_RESIDUAL_FLOOR:
            alphas[i] = steps[i + 1] / steps[i]
    finite = alphas[np.isfinite(alphas)]
    alpha_max = float(finite.max()) if finite.size else None

    linear = None
    geometric = None
    if epsilon is not None:
        linear = epsilon * np.arange(n + 1, dtype=float)
        if alpha_max is not None and alpha_max < 1.0:
            geometric = epsilon / (1.0 - alpha_max)
    return SimulationTrace(
        states=states,
        errors=errors,
        decoded_errors=decoded,
        alpha_estimates=alphas,
        alpha_max=alpha_max,
        epsilon=epsilon,
        linear_bound=linear,
        geometric_bound=geometric,
    )


def check_prop3_bound(trace: SimulationTrace, epsilon: float):
    """Check the linear accumulation bound error_n <= n * epsilon.

    ``epsilon`` must be a certified per-round bound (the upper end of an
    estimate bracket), not a sampled lower bound. Errors may exceed the
    bound by ``BOUND_SLACK``. Returns (ok, margin) with margin = min over n
    of (n * epsilon - error_n).
    """
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
    measurable).
    """
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
    round acts on the perturbation alone and trace-norm contraction keeps
    every iterate within the certified perturbation size of the nominal
    image. The errors are measured on the maximally mixed state, the logical
    basis states and 8 random states drawn with seed 0. Returns (ok, max
    error, per-round max errors).
    """
    from .analysis import is_fixed

    tol.require_tolerance(tol_, "tol_")
    if horizon < 0:
        raise ContractViolation(f"horizon must be nonnegative, got {horizon}")
    nominal = perturbed.nominal
    loop = compose(recovery, channel)
    fixed_ok, fixed_res = is_fixed(nominal, loop, max(tol_, tol.LOOP_FIXED_FLOOR))
    if not fixed_ok:
        raise ContractViolation(
            f"nominal code is not fixed by the correction loop (residual {fixed_res:.3e})"
        )
    rng = np.random.default_rng(0)
    d = nominal.dim_logical
    test_states = [np.eye(d, dtype=complex) / d]
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        test_states.append(e)
    for i in range(8):
        if i % 2 == 0:
            v = random_pure_state(d, rng)
            test_states.append(np.outer(v, v.conj()))
        else:
            test_states.append(random_density(d, rng))

    per_round = np.zeros(horizon + 1)
    for rho in test_states:
        target = nominal.encode(rho)
        x = perturbed.apply(rho)
        per_round[0] = max(per_round[0], trace_norm(x - target))
        for k in range(1, horizon + 1):
            x = loop(x)
            per_round[k] = max(per_round[k], trace_norm(x - target))
    max_err = float(per_round.max())
    return max_err <= perturbed.epsilon + tol_, max_err, per_round

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tniso import channels, robustness
from tniso import tolerances as tol
from tniso.analysis import build_correction
from tniso.channels import KrausChannel, Superoperator, compose, convex_mix, vec
from tniso.codes import PerturbedEncoding, make_example2_channel
from tniso.errors import ContractViolation
from tniso.opcore import trace_norm
from tniso.sampling import random_channel, random_density, random_preserved_system
from tniso.robustness import (
    check_geometric_bound,
    check_prop3_bound,
    estimate_epsilon,
    perturbed_encoding_correctability,
    simulate_iterated,
)

from conftest import RHO_COHERENT


def constant_perturbation(encoding, image, bound):
    """Perturbation with the same traceless Hermitian image on every state."""
    d = encoding.dim_logical
    delta = Superoperator(
        d, encoding.dim_physical, np.outer(vec(image), vec(np.eye(d)).conj())
    )
    return PerturbedEncoding(encoding, delta, bound)


def traceless_image(dim, i, j, size):
    g = np.zeros((dim, dim), dtype=complex)
    g[i, i], g[j, j] = size / 2.0, -size / 2.0
    return g


def pure_qubit_grid(steps):
    """Polar grid over pure qubit states."""
    thetas = np.linspace(0.0, np.pi, steps)
    phis = np.linspace(0.0, 2 * np.pi, steps, endpoint=False)
    for t in thetas:
        for p in phis:
            v = np.array([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)])
            yield np.outer(v, v.conj())


class TestEstimateEpsilon:
    def test_zero_perturbation(self, repetition):
        enc = repetition.encoding
        est = estimate_epsilon(enc.superoperator(), enc, samples=20, refine_steps=10, seed=1)
        assert est.epsilon <= 1e-14
        assert est.upper_bound <= 1e-13

    def test_injected_perturbation_against_grid_oracle(self, repetition):
        enc = repetition.encoding
        pert = constant_perturbation(enc, traceless_image(8, 2, 3, 0.01), 0.01)
        # oracle first: brute-force maximum over a polar grid of pure states
        delta = pert.superoperator().matrix - enc.superoperator().matrix
        oracle = max(
            trace_norm((delta @ vec(rho)).reshape(8, 8, order="F"))
            for rho in pure_qubit_grid(100)
        )
        assert 0.009 <= oracle <= 0.011
        est = estimate_epsilon(pert, enc, samples=100, refine_steps=50, seed=2)
        assert 0.009 <= est.epsilon <= 0.011
        assert est.epsilon == pytest.approx(oracle, rel=1e-6)
        assert est.upper_bound >= est.epsilon

    def test_witness_recomputed_exactly(self, repetition):
        enc = repetition.encoding
        pert = constant_perturbation(enc, traceless_image(8, 1, 5, 0.02), 0.02)
        est = estimate_epsilon(pert, enc, samples=50, refine_steps=20, seed=3)
        delta = pert.superoperator().matrix - enc.superoperator().matrix
        direct = trace_norm((delta @ vec(est.witness_state)).reshape(8, 8, order="F"))
        assert est.epsilon == direct

    def test_round_epsilon_of_mixture_against_grid_oracle(self, repetition):
        enc, _, recovery, _ = repetition
        channel = make_example2_channel(0.4, 0.05)
        loop = compose(recovery, channel)
        composite = loop.superoperator() @ enc.superoperator()
        delta = composite.matrix - enc.superoperator().matrix
        oracle = max(
            trace_norm((delta @ vec(rho)).reshape(8, 8, order="F"))
            for rho in pure_qubit_grid(100)
        )
        est = estimate_epsilon(composite, enc, samples=200, refine_steps=200, seed=0)
        assert est.epsilon == pytest.approx(oracle, rel=0.05)
        # per-round coherence damping of the mixture model: 2*eps*p
        assert est.epsilon == pytest.approx(0.04, rel=0.01)

    def test_upper_bound_of_mixture_round_is_tight(self, repetition):
        # the deviation map of one round is exactly the coherence damping
        # 2*eps*p = 0.04 of the mixture model, and so is its certificate
        enc, _, recovery, _ = repetition
        loop = compose(recovery, make_example2_channel(0.4, 0.05))
        est = estimate_epsilon(loop.superoperator() @ enc.superoperator(), enc)
        assert abs(est.upper_bound - 0.04) <= 1e-12
        assert est.upper_bound >= est.epsilon

    def test_dimension_mismatch(self, repetition):
        with pytest.raises(ContractViolation):
            estimate_epsilon(Superoperator.identity(3), repetition.encoding)

    @pytest.mark.parametrize(
        "budget,field",
        [
            ({"samples": 0}, "samples"),
            ({"samples": -3}, "samples"),
            ({"refine_steps": -1}, "refine_steps"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_rejects_bad_sampling_budget(self, repetition, budget, field):
        enc = repetition.encoding
        with pytest.raises(ContractViolation, match=field):
            estimate_epsilon(enc.superoperator(), enc, **budget)


class TestSimulateIterated:
    def test_exact_model_has_zero_errors(self, repetition):
        enc, channel, recovery, _ = repetition
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 5, encoding=enc)
        assert trace.errors[0] == 0.0
        np.testing.assert_allclose(trace.errors, np.zeros(6), atol=1e-12)
        np.testing.assert_allclose(trace.decoded_errors, np.zeros(6), atol=1e-12)

    def test_mixture_reproduces_printed_values(self, repetition):
        enc, _, recovery, _ = repetition
        channel = make_example2_channel(0.4, 0.05)
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 10, encoding=enc)
        final = enc.decode(trace.states[-1])
        assert abs(final[0, 1]) == pytest.approx(0.332, abs=1e-3)
        assert trace.decoded_errors[-1] == pytest.approx(0.335, abs=1e-3)
        assert trace_norm(RHO_COHERENT - final) == pytest.approx(0.335, abs=1e-3)
        # physical and decoded errors agree: the trajectory stays encoded
        np.testing.assert_allclose(trace.errors, trace.decoded_errors, atol=1e-12)
        assert trace.alpha_max == pytest.approx(0.96, abs=1e-9)

    def test_long_run_dephasing(self, repetition):
        enc, _, recovery, _ = repetition
        channel = make_example2_channel(0.4, 0.05)
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 500, encoding=enc)
        offdiag = np.array([abs(enc.decode(s)[0, 1]) for s in trace.states])
        assert offdiag[-1] < 1e-3
        assert np.all(np.diff(offdiag) <= 1e-12)
        assert trace.decoded_errors[-1] == pytest.approx(1.0, abs=0.01)

    def test_trace_bookkeeping(self, repetition):
        enc, channel, recovery, _ = repetition
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 7, epsilon=0.1)
        assert len(trace.states) == 8
        assert len(trace.errors) == 8
        assert len(trace.linear_bound) == 8
        np.testing.assert_allclose(trace.linear_bound, 0.1 * np.arange(8))
        assert len(trace.alpha_estimates) == 7

    def test_input_validation(self, repetition):
        enc, channel, recovery, _ = repetition
        with pytest.raises(ContractViolation):
            simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 0)


def composed_loop_iterates(channel, recovery, rho0, n):
    """Reference iterates of the composed Kraus loop, one product per round."""
    loop = compose(recovery, channel)
    states = [rho0]
    for _ in range(n):
        states.append(loop(states[-1]))
    return states


class TestSimulateIteratedSweep:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 3),
        d_f=st.integers(1, 4),
        d_r=st.integers(0, 3),
        admixture=st.one_of(st.just(0.0), st.floats(-6.0, -1.0).map(lambda e: 10.0**e)),
        n=st.integers(1, 15),
    )
    def test_steps_bound_the_errors(self, seed, d_s, d_f, d_r, admixture, n):
        d_r = min(d_r, 12 - d_s * d_f)
        rng = np.random.default_rng(seed)
        enc, exact = random_preserved_system(d_s, d_f, d_r, rng)
        recovery = build_correction(enc, exact)
        noise = exact
        if admixture:
            stray = random_channel(enc.dim_physical, rng)
            noise = convex_mix([1.0 - admixture, admixture], [exact, stray])
        composite = compose(recovery, noise).superoperator() @ enc.superoperator()
        eps = estimate_epsilon(composite, enc, samples=1, refine_steps=0).upper_bound
        rho0 = enc.encode(random_density(enc.dim_logical, rng))

        trace = simulate_iterated(noise, recovery, rho0, n, encoding=enc, epsilon=eps)
        reference = composed_loop_iterates(noise, recovery, rho0, n)
        assert len(trace.states) == n + 1 and len(trace.alpha_estimates) == n
        assert max(np.abs(a - b).max() for a, b in zip(trace.states, reference)) <= 1e-14

        # a CPTP round contracts the trace norm of the Hermitian steps
        finite = trace.alpha_estimates[np.isfinite(trace.alpha_estimates)]
        assert (finite <= 1.0 + 1e-12).all()
        # the error after k rounds is at most the sum of the first k steps
        steps = [trace_norm(b - a) for a, b in zip(trace.states, trace.states[1:])]
        summed = np.concatenate([[0.0], np.cumsum(steps)])
        assert (trace.errors <= summed + 1e-13).all()
        if admixture == 0.0:
            assert trace.alpha_max is None and trace.geometric_bound is None
        elif trace.geometric_bound is not None:
            # for an encoded start the first step is at most eps
            assert steps[0] <= eps + 1e-13
            floor = n * tol.CONTRACTION_RESIDUAL_FLOOR
            assert (trace.errors <= trace.geometric_bound + floor + 1e-13).all()

    def test_uses_neither_the_fixed_point_projector_nor_a_composed_loop(
        self, repetition, monkeypatch
    ):
        calls = []

        def spy(name, original):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapped

        for name in ("cesaro_projector", "compose"):
            original = getattr(channels, name)
            for module in (channels, robustness):
                monkeypatch.setattr(module, name, spy(name, original), raising=False)
        enc, _, recovery, _ = repetition
        channel = make_example2_channel(0.4, 0.05)
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 10, encoding=enc)
        assert calls == []
        assert trace.alpha_max == pytest.approx(0.96, abs=1e-12)


class TestLinearBound:
    def test_exact_model_trivially_satisfied(self, repetition):
        enc, channel, recovery, _ = repetition
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 5)
        ok, margin = check_prop3_bound(trace, 0.01)
        assert ok and margin == pytest.approx(0.0, abs=1e-12)

    def test_mixture_satisfies_certified_bound(self, repetition):
        enc, _, recovery, _ = repetition
        channel = make_example2_channel(0.4, 0.05)
        loop = compose(recovery, channel)
        composite = loop.superoperator() @ enc.superoperator()
        est = estimate_epsilon(composite, enc, samples=200, refine_steps=200, seed=0)
        trace = simulate_iterated(
            channel, recovery, enc.encode(RHO_COHERENT), 10, encoding=enc, epsilon=est.upper_bound
        )
        ok, margin = check_prop3_bound(trace, est.upper_bound)
        assert ok
        assert trace.decoded_errors[-1] <= 10 * est.upper_bound

    def test_corrupted_trace_fails(self, repetition):
        enc, channel, recovery, _ = repetition
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 5)
        trace.errors = trace.errors + 1.0  # adversarial inflation
        ok, margin = check_prop3_bound(trace, 0.01)
        assert not ok and margin < 0


class TestGeometricBound:
    def test_exact_model_not_applicable(self, repetition):
        enc, channel, recovery, _ = repetition
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 5)
        result = check_geometric_bound(trace, 0.01)
        # the steps vanish along the whole trajectory, so no ratio exists
        assert not result.applicable

    def test_mixture_asymptote_within_bound(self, repetition):
        enc, _, recovery, _ = repetition
        channel = make_example2_channel(0.4, 0.05)
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 500, encoding=enc)
        result = check_geometric_bound(trace, 0.04)
        assert result.applicable and result.ok
        assert result.alpha_max == pytest.approx(0.96, abs=1e-6)
        assert result.bound == pytest.approx(1.0, abs=1e-6)
        assert trace.errors[-1] <= result.bound + 1e-6

    def test_constructed_contraction_with_known_alpha(self):
        # round map T(rho) = 0.5 rho + 0.5 tr(rho) chi halves every
        # traceless step; its unique fixed state is chi
        rho0 = np.diag([0.5, 0.5]).astype(complex)
        chi = np.diag([0.51, 0.49]).astype(complex)
        ops = [np.sqrt(0.5) * np.eye(2, dtype=complex)]
        eye = np.eye(2)
        for m in range(2):
            for i in range(2):
                ops.append(np.sqrt(0.5 * chi[m, m].real) * np.outer(eye[:, m], eye[:, i]))
        loop = KrausChannel(ops)
        trace = simulate_iterated(loop, KrausChannel.identity(2), rho0, 20)
        finite = trace.alpha_estimates[np.isfinite(trace.alpha_estimates)]
        np.testing.assert_allclose(finite, 0.5, atol=1e-7)
        result = check_geometric_bound(trace, 0.01)
        assert result.applicable and result.ok
        assert result.bound == pytest.approx(0.02, abs=1e-9)
        assert trace.errors[-1] == pytest.approx(0.02, abs=1e-6)


class TestPerturbedCorrectability:
    def test_zero_perturbation(self, repetition):
        enc, channel, recovery, _ = repetition
        pert = constant_perturbation(enc, np.zeros((8, 8), dtype=complex), 0.0)
        ok, max_err, rounds = perturbed_encoding_correctability(pert, channel, recovery)
        assert ok and max_err <= 1e-12

    @pytest.mark.parametrize("eps", [0.005, 0.02, 0.05])
    def test_injected_perturbations_never_amplify(self, eps, repetition):
        enc, channel, recovery, _ = repetition
        pert = constant_perturbation(enc, traceless_image(8, 2, 5, eps), eps)
        ok, max_err, rounds = perturbed_encoding_correctability(
            pert, channel, recovery, horizon=20
        )
        assert ok
        assert max_err <= eps + 1e-8
        assert np.all(np.diff(rounds) <= 1e-10)

    def test_perturbation_outside_code_support(self, repetition):
        # image supported away from the code subspace is still contracted
        enc, channel, recovery, _ = repetition
        g = np.zeros((8, 8), dtype=complex)
        g[2, 3] = g[3, 2] = 0.01  # coherence between deviation patterns
        pert = constant_perturbation(enc, g, trace_norm(g))
        ok, max_err, _ = perturbed_encoding_correctability(pert, channel, recovery, horizon=20)
        assert ok and max_err <= trace_norm(g) + 1e-8

    def test_negative_horizon_rejected(self, repetition):
        enc, channel, recovery, _ = repetition
        pert = constant_perturbation(enc, np.zeros((8, 8), dtype=complex), 0.0)
        with pytest.raises(ContractViolation, match="horizon"):
            perturbed_encoding_correctability(pert, channel, recovery, horizon=-1)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0])
    def test_tolerance_is_refused(self, repetition, bad):
        enc, channel, recovery, _ = repetition
        pert = constant_perturbation(enc, np.zeros((8, 8), dtype=complex), 0.0)
        with pytest.raises(ContractViolation, match="^tol_ must be positive and finite"):
            perturbed_encoding_correctability(pert, channel, recovery, tol_=bad)

    def test_uncorrected_loop_rejected(self, repetition):
        enc, channel, _, _ = repetition
        pert = constant_perturbation(enc, traceless_image(8, 2, 5, 0.01), 0.01)
        with pytest.raises(ContractViolation):
            perturbed_encoding_correctability(pert, channel, KrausChannel.identity(8))

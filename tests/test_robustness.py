from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tniso import analysis, channels, robustness
from tniso import tolerances as tol
from tniso.analysis import _round_residual, build_correction
from tniso.channels import KrausChannel, Superoperator, compose, convex_mix, vec
from tniso.codes import PerturbedEncoding, make_example2_channel
from tniso.errors import ContractViolation
from tniso.opcore import trace_norm
from tniso.sampling import (
    random_channel,
    random_density,
    random_isometric_encoding,
    random_preserved_system,
)
from tniso.robustness import (
    check_geometric_bound,
    check_prop3_bound,
    estimate_epsilon,
    perturbed_encoding_correctability,
    simulate_iterated,
)

from conftest import RHO_COHERENT, random_pure_state, sampled_per_round


def constant_perturbation(encoding, image, bound):
    """Perturbation with the same traceless Hermitian image on every state."""
    d = encoding.dim_logical
    delta = Superoperator(
        d, encoding.dim_physical, np.outer(vec(image), vec(np.eye(d)).conj())
    )
    return PerturbedEncoding(encoding, delta, bound)


def channel_drift(encoding, size, rng):
    """The encoding drifted by ``size`` toward a random channel E:
    ``size * (E - phi)``, traceless and Hermiticity-preserving, with epsilon
    set to its trace-norm certificate."""
    phi = encoding.superoperator()
    target = random_channel(encoding.dim_logical, rng, dim_out=encoding.dim_physical)
    delta = Superoperator(
        phi.dim_in, phi.dim_out, size * (target.superoperator().matrix - phi.matrix)
    )
    return PerturbedEncoding(encoding, delta, channels.trace_norm_certificate(delta))


def chain_maps(perturbed, channel, recovery, horizon):
    """``L^n phi'`` for n <= horizon: the perturbed code's map, then its
    images under the chain ``recovery @ (channel @ x)``."""
    x = perturbed.superoperator()
    yield x
    for _ in range(horizon):
        x = recovery @ (channel @ x)
        yield x


def entangled_errors(perturbed, channel, recovery, horizon):
    """``||(id kron (L^n phi' - phi))(Omega)||_1`` for n <= horizon, Omega the
    maximally entangled state: the trace norm of the difference's Choi matrix
    over d_S."""
    phi = perturbed.nominal.superoperator()
    d, n = phi.dim_in, phi.dim_out
    out = []
    for x in chain_maps(perturbed, channel, recovery, horizon):
        choi = (x.matrix - phi.matrix).reshape(n, n, d, d, order="F").transpose(2, 0, 3, 1)
        out.append(trace_norm(choi.reshape(d * n, d * n)) / d)
    return np.array(out)


def chain_rounding(d_p, horizon):
    """An allowance for the rounding of n rounds of a computed chain of
    operators of trace norm 1 on d_P dimensions: (n + 1) d_P unit roundoffs
    at round n. Values of the exact maps never need it; the curve bounds
    those, and meets a computed value within it only where both are at
    rounding level."""
    return (np.arange(horizon + 1) + 1) * d_p * np.finfo(float).eps


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


def budgeted_estimate(perturbed, nominal, samples, refine_steps, seed=0):
    """:func:`estimate_epsilon` with its fixed search budget set to ``samples``
    random starts and at most ``refine_steps`` ascent steps."""
    with mock.patch.multiple(robustness, _EPSILON_SAMPLES=samples, _EPSILON_STEPS=refine_steps):
        return estimate_epsilon(perturbed, nominal, seed)


def reference_estimate_epsilon(perturbed, nominal, samples, refine_steps, seed):
    """The search one wrapped product and one trace norm at a time, as the
    library ran it before the ascent: random pure states, then a random walk
    from the best. At the same seed, the ascent's witness must not fall
    below this oracle's."""
    delta = robustness._deviation_superoperator(perturbed, nominal)
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
    return trace_norm(delta(witness)), witness, channels.trace_norm_certificate(delta)


def full_space_estimate_epsilon(perturbed, nominal, samples, refine_steps, seed):
    """The retired full-space search, kept as an oracle: the same starts,
    ascent and stopping rule, with every state valued by the eigenvalues of
    its whole d_P x d_P image H(v), and the pool valued in one batch (each
    matrix's eigenvalues do not depend on the batch). Returns (the witness's
    value, the witness, the upper end)."""
    delta = robustness._deviation_superoperator(perturbed, nominal)
    m, d, n, rng = delta.matrix, delta.dim_in, delta.dim_out, np.random.default_rng(seed)
    t = m.reshape((n, n, d, d), order="F")
    half = (t + t.conj().transpose(1, 0, 3, 2)).reshape((n * n, d * d), order="F") / 2

    def hermitian_images(vs):
        return ((vs.conj()[:, :, None] * vs[:, None, :]).reshape(len(vs), d * d) @ half.T).reshape(-1, n, n)

    eye, (i, j) = np.eye(d, dtype=complex), np.triu_indices(d, 1)
    g = rng.standard_normal((samples, 2, d))
    drawn = g[:, 0] + 1j * g[:, 1]
    vs = np.concatenate([
        eye, (eye[i] + eye[j]) / np.sqrt(2), (eye[i] + 1j * eye[j]) / np.sqrt(2),
        drawn / np.linalg.norm(drawn, axis=1)[:, None],
    ])
    v = vs[np.argmax(np.abs(np.linalg.eigvalsh(hermitian_images(vs))).sum(-1))]

    (w, u), size = np.linalg.eigh(hermitian_images(v[None])[0]), 0.0
    for _ in range(refine_steps):
        value = np.abs(w).sum()
        dual = channels.unvec(half.conj().T @ ((u * np.sign(w)) @ u.conj().T).ravel(), d)
        top = np.linalg.eigh(dual)[1][:, -1]
        step = top * np.exp(-1j * np.angle(np.vdot(v, top))) - v
        last, size = size, np.linalg.norm(step)
        v = v + (last / (last - size) if 0 < size < last else 1.0) * step
        v /= np.linalg.norm(v)
        w, u = np.linalg.eigh(hermitian_images(v[None])[0])
        if np.abs(w).sum() <= value:
            v, (w, u) = top, np.linalg.eigh(hermitian_images(top[None])[0])
        if np.abs(w).sum() - value <= tol.ASCENT_GAIN_TOL * value:
            break

    witness = np.outer(v, v.conj())
    return trace_norm(delta(witness)), witness, channels.trace_norm_certificate(delta)


def reference_pool(delta, samples, seed):
    """The ascent's starts one at a time, each with its value ||H(v)||_1 (H the
    Hermitian part of delta(|v><v|)): the d^2 states |i>, (|i> + |j>)/sqrt 2
    and (|i> + i|j>)/sqrt 2, then the oracle's random pure states."""
    d = delta.dim_in
    eye = np.eye(d, dtype=complex)
    starts = list(eye)
    for i in range(d):
        for j in range(i + 1, d):
            starts += [(eye[i] + eye[j]) / np.sqrt(2), (eye[i] + 1j * eye[j]) / np.sqrt(2)]
    rng = np.random.default_rng(seed)
    starts += [random_pure_state(d, rng) for _ in range(samples)]
    images = [delta(np.outer(v, v.conj())) for v in starts]
    return starts, np.array([trace_norm((x + x.conj().T) / 2) for x in images])


def reference_simulate_iterated(channel, recovery, rho0, n, encoding):
    """The error curves and contraction ratios one trace norm at a time, as
    the library computed them before: (states, errors, decoded errors, alphas,
    gaps), with gaps the three arrays of bounds on how far the library's
    Hermitian trace norms (see :func:`hermitian_gaps`) may take each curve."""
    states = [rho0]
    for _ in range(n):
        states.append(recovery(channel(states[-1])))
    beyond = recovery(channel(states[-1]))

    differences = [rho0 - s for s in states]
    errors = np.array([trace_norm(x) for x in differences])
    logical = [encoding.decode(s) for s in states]
    logical_differences = [logical[0] - l for l in logical]
    decoded = np.array([trace_norm(x) for x in logical_differences])

    step_differences = [b - a for a, b in zip(states, states[1:] + [beyond])]
    steps = np.array([trace_norm(x) for x in step_differences])
    alphas = np.full(n, np.nan)
    for i in range(n):
        if steps[i] >= tol.CONTRACTION_RESIDUAL_FLOOR:
            alphas[i] = steps[i + 1] / steps[i]
    # |a'/b' - a/b| <= (|a' - a| + (a/b) |b' - b|) / (b - |b' - b|)
    step_gaps = hermitian_gaps(step_differences, steps)
    ratio_gaps = (step_gaps[1:] + alphas * step_gaps[:-1]) / (steps[:-1] - step_gaps[:-1])
    gaps = (
        hermitian_gaps(differences, errors),
        hermitian_gaps(logical_differences, decoded),
        ratio_gaps,
    )
    return states, errors, decoded, alphas, gaps


def hermitian_gaps(diffs, norms):
    """How far :func:`tniso.opcore._hermitian_trace_norms` may be from the
    trace norms ``norms`` of the matrices ``diffs``: ``sqrt(d) ||X - X^dag||_F``
    plus 1e-13 of the norm for the two solvers' rounding."""
    herm = [np.sqrt(len(x)) * np.linalg.norm(x - x.conj().T) for x in diffs]
    return np.array(herm) + 1e-13 * norms


def noisy_round(seed, d_s, d_f, d_r, admixture):
    """A random preserved system with a stray-channel admixture in its noise:
    (encoding, noise, recovery, one round's composite on the code)."""
    rng = np.random.default_rng(seed)
    enc, exact = random_preserved_system(d_s, d_f, d_r, rng)
    recovery = build_correction(enc, exact)
    noise = exact
    if admixture:
        stray = random_channel(enc.dim_physical, rng)
        noise = convex_mix([1.0 - admixture, admixture], [exact, stray])
    composite = compose(recovery, noise).superoperator() @ enc.superoperator()
    return enc, noise, recovery, composite


def example2_round(repetition):
    """(encoding, one round's composite on the code) of example2's mixture."""
    enc, _, recovery, _ = repetition
    loop = compose(recovery, make_example2_channel(0.4, 0.05))
    return enc, loop.superoperator() @ enc.superoperator()


class TestBatchedTraceNorms:
    """The batched searches and curves against their one-at-a-time loops."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 3),
        d_f=st.integers(1, 3),
        d_r=st.integers(0, 3),
        admixture=st.one_of(st.just(0.0), st.floats(-6.0, -1.0).map(lambda e: 10.0**e)),
        samples=st.sampled_from([1, 2, 50, 700]),
        refine_steps=st.sampled_from([0, 1, 30]),
        n=st.integers(1, 12),
    )
    def test_bit_identical_to_the_loops(
        self, seed, d_s, d_f, d_r, admixture, samples, refine_steps, n
    ):
        d_r = max(d_r, 5 - d_s * d_f)
        enc, noise, recovery, composite = noisy_round(seed, d_s, d_f, d_r, admixture)
        # the pooled images are r x r, r >= 1 the search dimension, so a
        # budget of 400 images of 1 x 1 splits the basis starts and 700
        # samples into at least two chunks
        budget = 16 * 400 if samples == 700 else robustness._EPSILON_BLOCK_BYTES
        with mock.patch.object(robustness, "_EPSILON_BLOCK_BYTES", budget):
            est = budgeted_estimate(composite, enc, samples, refine_steps, seed)
            start = budgeted_estimate(composite, enc, samples, 0, seed)
        oracle, _, upper = reference_estimate_epsilon(composite, enc, samples, 0, seed)
        starts, values = reference_pool(
            robustness._deviation_superoperator(composite, enc), samples, seed
        )
        slack = 1e-12 * upper
        assert np.array_equal(est.upper_bound, upper)
        # no step lowers the value, which bounds the trace norm from below
        assert est.epsilon <= upper + slack
        assert est.epsilon >= values.max() - slack
        # with no step the witness is the best start
        gaps = [np.abs(start.witness_state - np.outer(v, v.conj())).max() for v in starts]
        assert min(gaps) <= 1e-15
        assert values[int(np.argmin(gaps))] >= values.max() - slack
        # the oracle's best sample is a start; the oracle values it by the trace
        # norm of its whole image, whose anti-Hermitian part is the rounding of
        # two images of trace norm 1, so allow d_P unit roundoffs for that part
        assert values.max() >= oracle - slack - enc.dim_physical * np.finfo(float).eps

        rho0 = enc.encode(random_density(enc.dim_logical, np.random.default_rng(seed)))
        trace = simulate_iterated(noise, recovery, rho0, n, encoding=enc)
        states, errors, decoded, alphas, gaps = reference_simulate_iterated(
            noise, recovery, rho0, n, enc
        )
        assert all(np.array_equal(a, b) for a, b in zip(trace.states, states))
        assert len(trace.states) == len(states)
        # the curves take one Hermitian eigensolve per difference, which the
        # loops' SVDs match within _hermitian_trace_norms' bound
        error_gaps, decoded_gaps, ratio_gaps = gaps
        assert (np.abs(trace.errors - errors) <= error_gaps).all()
        assert (np.abs(trace.decoded_errors - decoded) <= decoded_gaps).all()
        measured = ~np.isnan(alphas)
        assert np.array_equal(np.isnan(trace.alpha_estimates), ~measured)
        assert (np.abs(trace.alpha_estimates - alphas)[measured] <= ratio_gaps[measured]).all()

    @pytest.mark.parametrize("horizon", [0, 1, 20])
    @pytest.mark.parametrize("eps", [0.0, 0.02])
    def test_per_round_bounds_the_sampled_maxima(self, repetition, horizon, eps):
        enc, channel, recovery, _ = repetition
        pert = constant_perturbation(enc, traceless_image(8, 2, 5, eps), eps)
        _, _, per_round = perturbed_encoding_correctability(
            pert, channel, recovery, horizon=horizon
        )
        # the certified curve bounds every state's error, so it never falls
        # below the retired sample's maxima, up to the rounding of the
        # sample's own iterates
        sampled = sampled_per_round(pert, channel, recovery, horizon)
        assert per_round.shape == sampled.shape == (horizon + 1,)
        assert (per_round >= sampled - chain_rounding(enc.dim_physical, horizon)).all()

    def test_sample_chunks_stay_under_the_byte_budget(self, monkeypatch):
        enc, _, _, composite = noisy_round(0, 2, 2, 2, 1e-3)
        calls = {"eigvalsh": [], "eigh": [], "_trace_norms": []}

        def spy(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda a: calls[name].append(a.shape) or original(a)
            )

        spy(np.linalg, "eigvalsh")
        spy(np.linalg, "eigh")
        spy(robustness, "_trace_norms")
        est = budgeted_estimate(composite, enc, 5_000, 3, 0)
        # the states are valued in the deviation's range, of dimension
        # r = d_S d_F = 4 of d_P = 6, and a chunk holds as many r x r images
        # as the budget allows
        r = est.search_dim
        assert (r, enc.dim_physical) == (4, 6)
        per_image = 16 * r**2
        image = (r, r)
        # the pool is the d_S^2 = 4 basis states and the samples
        batches = [shape[0] for shape in calls["eigvalsh"] if len(shape) == 3]
        assert sum(batches) == 4 + 5_000 and len(batches) > 1
        assert max(batches) == robustness._EPSILON_BLOCK_BYTES // per_image
        # the best start is valued once, and each of at most 3 ascent steps
        # values its stretched point and, if that does not raise the value,
        # the plain step; the trace norms of the whole d_P x d_P images of the
        # best start and of the ascent's end are the only ones taken
        assert 1 <= calls["eigh"].count(image) <= 1 + 2 * 3
        assert calls["_trace_norms"] == [(2,) + (enc.dim_physical,) * 2]

    def test_search_applies_no_wrapper(self, repetition, monkeypatch):
        enc, composite = example2_round(repetition)

        def refuse(*args, **kwargs):
            raise AssertionError("the search applied the deviation map through a wrapper")

        monkeypatch.setattr(Superoperator, "apply", refuse)
        est = budgeted_estimate(composite, enc, 20, 20, 0)
        assert est.epsilon <= est.upper_bound

    def test_rounds_apply_no_wrapper(self, repetition, monkeypatch):
        # each round calls the channel's and the recovery's image kernels on
        # iterates that are finite by construction, with no operand check
        calls = []
        original = KrausChannel.apply

        def counted(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(KrausChannel, "apply", counted)
        enc, noise, recovery, _ = noisy_round(0, 2, 4, 2, 1e-3)
        rho0 = enc.encode(random_density(enc.dim_logical, np.random.default_rng(0)))
        trace = simulate_iterated(noise, recovery, rho0, 20, encoding=enc)
        enc, channel, recovery, _ = repetition
        pert = constant_perturbation(enc, traceless_image(8, 2, 5, 0.02), 0.02)
        ok, _, _ = perturbed_encoding_correctability(pert, channel, recovery)
        assert calls == []
        assert len(trace.states) == 21 and ok


class TestRoundCertificate:
    """``simulate`` takes its per-round epsilon from ``_round_residual``
    instead of running the witness search: the two agree bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 3),
        d_f=st.integers(1, 3),
        d_r=st.integers(1, 3),
        admixture=st.one_of(st.just(0.0), st.floats(-6.0, -1.0).map(lambda e: 10.0**e)),
        strategy=st.sampled_from(["time_reversal", "replace"]),
    )
    def test_residual_is_the_upper_end(self, seed, d_s, d_f, d_r, admixture, strategy):
        rng = np.random.default_rng(seed)
        enc, exact = random_preserved_system(d_s, d_f, d_r, rng)
        recovery = build_correction(enc, exact, strategy=strategy)
        noise = exact
        if admixture:
            noise = convex_mix([1.0 - admixture, admixture], [exact, random_channel(enc.dim_physical, rng)])
        est = budgeted_estimate(recovery @ (noise @ enc), enc, 1, 0)
        assert _round_residual(noise, recovery, enc) == est.upper_bound


class TestEstimateEpsilon:
    def test_zero_perturbation(self, repetition):
        enc, channel, recovery, _ = repetition
        est = budgeted_estimate(enc.superoperator(), enc, 20, 10, 1)
        assert est.epsilon <= 1e-14
        assert est.upper_bound <= 1e-13
        # the corrected repetition round deviates by exactly nothing: its
        # range is empty, and the search keeps one direction
        est = estimate_epsilon(recovery @ (channel @ enc), enc)
        assert (est.epsilon, est.upper_bound, est.search_dim) == (0.0, 0.0, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 3),
        d_f=st.integers(1, 3),
        d_r=st.integers(0, 3),
        admixture=st.one_of(st.just(0.0), st.floats(-6.0, -1.0).map(lambda e: 10.0**e)),
        generic=st.booleans(),
        samples=st.sampled_from([1, 50]),
        refine_steps=st.sampled_from([0, 30, 200]),
    )
    def test_range_search_agrees_with_the_full_space_oracle(
        self, seed, d_s, d_f, d_r, admixture, generic, samples, refine_steps
    ):
        if generic:
            # a perturbation whose images span the whole physical space
            rng = np.random.default_rng(seed)
            enc = random_isometric_encoding(d_s, d_f, d_r, rng)
            d_p = enc.dim_physical
            stray = random_channel(d_p, rng, kraus_count=d_p).superoperator().matrix
            delta = admixture * (stray - np.eye(d_p * d_p)) @ enc.superoperator().matrix
            perturbed = PerturbedEncoding(enc, Superoperator(d_s, d_p, delta), 2 * admixture)
        else:
            enc, _, _, perturbed = noisy_round(seed, d_s, d_f, d_r, admixture)
        est = budgeted_estimate(perturbed, enc, samples, refine_steps, seed)
        start = budgeted_estimate(perturbed, enc, samples, 0, seed)
        oracle, _, upper = full_space_estimate_epsilon(perturbed, enc, samples, 0, seed)
        slack = 1e-12 * upper
        assert est.upper_bound == start.upper_bound == upper
        # both searches start from the same state, up to ties within rounding;
        # where the ascent stops is compared on fixed systems, as rounding can
        # flip a stretch or the stop on a draw
        assert abs(start.epsilon - oracle) <= slack
        assert est.epsilon <= upper + slack
        # the best start is valued beside the ascent's end, by its whole image
        assert est.epsilon >= start.epsilon
        assert 1 <= est.search_dim <= enc.dim_physical
        if generic:
            assert est.search_dim == (enc.dim_physical if admixture else 1)

    def test_witness_never_below_its_best_start(self, repetition):
        # a deviation with no Hermitian part, E_00 -> iA: the ascent values
        # every state at 0 and ends at |1>, whose image is 0, while the best
        # start |0> has an image of trace norm ||A||_1 = 0.02
        enc = repetition.encoding
        d_p = enc.dim_physical
        a = np.diag([0.01, -0.01] + [0.0] * (d_p - 2)).astype(complex)
        delta = np.zeros((d_p * d_p, 4), dtype=complex)
        delta[:, 0] = vec(1j * a)
        perturbed = Superoperator(2, d_p, enc.superoperator().matrix + delta)
        est = budgeted_estimate(perturbed, enc, 5, 10, 0)
        assert est.epsilon == trace_norm(a)
        assert np.array_equal(est.witness_state, np.diag([1.0, 0.0]).astype(complex))
        assert est.epsilon <= est.upper_bound

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
        est = budgeted_estimate(pert, enc, 100, 50, 2)
        assert 0.009 <= est.epsilon <= 0.011
        assert est.epsilon == pytest.approx(oracle, rel=1e-6)
        assert est.upper_bound >= est.epsilon

    def test_witness_recomputed_exactly(self, repetition):
        enc = repetition.encoding
        pert = constant_perturbation(enc, traceless_image(8, 1, 5, 0.02), 0.02)
        est = budgeted_estimate(pert, enc, 50, 20, 3)
        delta = pert.superoperator().matrix - enc.superoperator().matrix
        direct = trace_norm((delta @ vec(est.witness_state)).reshape(8, 8, order="F"))
        assert est.epsilon == direct

    def test_round_epsilon_of_mixture_against_grid_oracle(self, repetition):
        enc, composite = example2_round(repetition)
        delta = composite.matrix - enc.superoperator().matrix
        oracle = max(
            trace_norm((delta @ vec(rho)).reshape(8, 8, order="F"))
            for rho in pure_qubit_grid(100)
        )
        est = estimate_epsilon(composite, enc, seed=0)
        assert est.epsilon == pytest.approx(oracle, rel=0.05)
        # per-round coherence damping of the mixture model: 2*eps*p
        assert est.epsilon == pytest.approx(0.04, rel=0.01)

    def test_upper_bound_of_mixture_round_is_tight(self, repetition):
        # the deviation map of one round is exactly the coherence damping
        # 2*eps*p = 0.04 of the mixture model, and so is its certificate;
        # the witness reaches it at every seed, from the basis states alone
        enc, composite = example2_round(repetition)
        for seed in range(5):
            budgets = (estimate_epsilon(composite, enc, seed), budgeted_estimate(composite, enc, 1, 0, seed))
            for est in budgets:
                assert abs(est.upper_bound - 0.04) <= 1e-12
                assert est.upper_bound - 1e-12 <= est.epsilon <= est.upper_bound

    @pytest.mark.parametrize(
        "system",
        ["example2"]
        + [((4, 4, 4), 0.02, s) for s in (1, 2, 3)]
        + [
            (dims, admixture, s)
            for dims in [(2, 4, 2), (3, 4, 3), (2, 2, 2)]
            for admixture in (1e-3, 1e-2)
            for s in range(3)
        ],
        ids=str,
    )
    def test_witness_not_below_the_sampled_search(self, repetition, system):
        # at default budgets and the same seed, against the random sampling
        # and random walk that the ascent replaced
        if system == "example2":
            enc, composite = example2_round(repetition)
        else:
            dims, admixture, s = system
            enc, _, _, composite = noisy_round(s, *dims, admixture)
        for seed in range(4):
            est = estimate_epsilon(composite, enc, seed=seed)
            oracle, _, upper = reference_estimate_epsilon(composite, enc, 200, 200, seed)
            assert oracle - 1e-12 * upper <= est.epsilon <= est.upper_bound
            # the range search stops where the full-space search stops
            full, _, _ = full_space_estimate_epsilon(composite, enc, 200, 200, seed)
            assert abs(est.epsilon - full) <= 1e-12 * upper
            # a corrected loop returns every state to the code's span
            assert est.search_dim == (2 if system == "example2" else dims[0] * dims[1])

    def test_witness_never_falls_as_the_cap_grows(self):
        # a stretched step that would lower the value is replaced by the
        # plain step; on this system some stretches overshoot
        enc, _, _, composite = noisy_round(2, 4, 4, 4, 0.02)
        caps = [budgeted_estimate(composite, enc, 20, k, 0) for k in range(25)]
        slack = 1e-12 * caps[0].upper_bound
        assert all(b.epsilon >= a.epsilon - slack for a, b in zip(caps, caps[1:]))

    def test_dimension_mismatch(self, repetition):
        with pytest.raises(ContractViolation):
            estimate_epsilon(Superoperator.identity(3), repetition.encoding)

    def test_rejects_a_negative_seed(self, repetition):
        enc = repetition.encoding
        with pytest.raises(ContractViolation, match="seed"):
            estimate_epsilon(enc.superoperator(), enc, seed=-1)


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
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 7)
        assert len(trace.states) == 8
        assert len(trace.errors) == 8
        assert len(trace.alpha_estimates) == 7
        # the linear bound is 0.1 n at each of the 8 errors: errors on it
        # pass with no margin, and one error above it by more than the slack fails
        trace.errors = 0.1 * np.arange(8)
        assert check_prop3_bound(trace, 0.1) == (True, 0.0)
        trace.errors[3] += 2 * tol.BOUND_SLACK
        ok, margin = check_prop3_bound(trace, 0.1)
        assert not ok and margin == pytest.approx(-2 * tol.BOUND_SLACK)

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
        eps = budgeted_estimate(composite, enc, 1, 0).upper_bound
        rho0 = enc.encode(random_density(enc.dim_logical, rng))

        trace = simulate_iterated(noise, recovery, rho0, n, encoding=enc)
        geometric = check_geometric_bound(trace, eps).bound
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
            assert trace.alpha_max is None and geometric is None
        elif geometric is not None:
            # for an encoded start the first step is at most eps
            assert steps[0] <= eps + 1e-13
            floor = n * tol.CONTRACTION_RESIDUAL_FLOOR
            assert (trace.errors <= geometric + floor + 1e-13).all()

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


class TestEpsilonArgument:
    BAD = [-1.0, -1e-300, float("nan"), float("inf"), -float("inf")]

    @pytest.mark.parametrize("check", [check_prop3_bound, check_geometric_bound])
    @pytest.mark.parametrize("bad", BAD)
    def test_bound_checks_refuse(self, repetition, check, bad):
        enc, _, recovery, _ = repetition
        channel = make_example2_channel(0.4, 0.05)
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 5)
        with pytest.raises(ContractViolation, match="^epsilon must be nonnegative and finite"):
            check(trace, bad)

    def test_zero_is_a_bound(self, repetition):
        enc, channel, recovery, _ = repetition
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 5)
        ok, margin = check_prop3_bound(trace, 0.0)
        # the linear bound is 0 at every round, so the margin is the largest error
        assert ok and margin == -trace.errors.max()
        assert not check_geometric_bound(trace, 0.0).applicable


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
        est = estimate_epsilon(composite, enc, seed=0)
        trace = simulate_iterated(channel, recovery, enc.encode(RHO_COHERENT), 10, encoding=enc)
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


class TestSimulateRefusals:
    @pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 3)], ids=["recovery", "state"])
    def test_dimensions_must_agree(self, dims):
        d_channel, d_recovery, d_state = dims
        with pytest.raises(ContractViolation, match="dimensions must agree"):
            simulate_iterated(
                KrausChannel.identity(d_channel),
                KrausChannel.identity(d_recovery),
                np.eye(d_state) / d_state,
                3,
            )


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

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 3),
        d_f=st.integers(1, 3),
        d_r=st.integers(0, 3),
        size=st.floats(-4.0, -2.0).map(lambda e: 10.0**e),
    )
    def test_curve_is_certified_for_every_input(self, seed, d_s, d_f, d_r, size):
        # a traceless map into a one-dimensional space is zero: no drift
        assume(d_s * d_f + d_r > 1)
        rng = np.random.default_rng(seed)
        enc, channel = random_preserved_system(d_s, d_f, d_r, rng)
        recovery = build_correction(enc, channel)
        pert = channel_drift(enc, size, rng)
        horizon = 8
        ok, max_err, curve = perturbed_encoding_correctability(
            pert, channel, recovery, horizon=horizon
        )
        # round 0 is the perturbation's certificate
        assert curve[0] == channels.trace_norm_certificate(pert.perturbation)
        # the running minimum: each round adds at most the round residual
        f = _round_residual(channel, recovery, enc)
        assert (curve[1:] <= curve[:-1] + f).all()
        # a loop that resets a d_S = d_F = 1 code outright takes the curve to
        # rounding level after one round, where computed values carry the
        # chain's rounding
        slack = chain_rounding(enc.dim_physical, horizon)
        assert (curve >= sampled_per_round(pert, channel, recovery, horizon) - slack).all()
        entangled = entangled_errors(pert, channel, recovery, horizon)
        assert (entangled <= curve * (1 + 1e-12) + slack).all()
        again = perturbed_encoding_correctability(pert, channel, recovery, horizon=horizon)
        assert np.array_equal(again[2], curve) and again[:2] == (ok, max_err)

    def test_epsilon_below_the_certificate_reads_not_ok(self):
        rng = np.random.default_rng(0)
        enc, channel = random_preserved_system(2, 4, 2, rng)
        recovery = build_correction(enc, channel)
        pert = channel_drift(enc, 1e-3, rng)
        ok, max_err, curve = perturbed_encoding_correctability(pert, channel, recovery)
        assert ok
        # a smaller epsilon cannot be certified; the curve does not depend on it
        below = PerturbedEncoding(enc, pert.perturbation, 0.9 * pert.epsilon)
        ok_below, max_below, curve_below = perturbed_encoding_correctability(
            below, channel, recovery
        )
        assert not ok_below
        assert max_below == max_err and np.array_equal(curve_below, curve)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_raw_rise_is_cut_by_the_running_minimum(self, seed):
        # at (4,4,4) the closed-form certificate of L^n phi' - phi rises in
        # some rounds; the curve keeps each round within f of the last
        rng = np.random.default_rng(seed)
        enc, channel = random_preserved_system(4, 4, 4, rng)
        recovery = build_correction(enc, channel)
        pert = channel_drift(enc, 1e-3, rng)
        ok, _, curve = perturbed_encoding_correctability(pert, channel, recovery)
        phi = enc.superoperator()
        raw = np.array([analysis._distance(x, phi) for x in chain_maps(pert, channel, recovery, 20)])
        f = _round_residual(channel, recovery, enc)
        assert ok
        assert (raw[1:] > curve[1:]).any()
        assert (curve[1:] <= np.minimum(raw[1:], curve[:-1] + f)).all()

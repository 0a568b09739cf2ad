from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tniso.channels import (
    KrausChannel,
    Superoperator,
    _hermitian_trace_defect,
    cesaro_projector,
    check_support_invariance,
    compose,
    convex_mix,
    fixes_span,
    minimal_kraus,
    trace_norm_certificate,
    transpose_superoperator,
    unvec,
    vec,
)
from tniso.codes import PerturbedEncoding
from tniso.errors import ContractViolation, ConvergenceError, NumericError
from tniso.opcore import hermitian_basis, trace_norm
from tniso.sampling import (
    random_channel,
    random_density,
    random_isometric_encoding,
    random_preserved_system,
    random_pure_state,
)
from tniso import analysis, channels, serialize
from tniso import tolerances as tol

from conftest import PAULI_X, random_unital_channel, trace_norm_contraction_witness


def bit_flip(p):
    return KrausChannel([np.sqrt(1 - p) * np.eye(2, dtype=complex), np.sqrt(p) * PAULI_X])


def completely_depolarizing(d):
    eye = np.eye(d, dtype=complex)
    return KrausChannel(
        [np.outer(eye[:, i], eye[:, j]) / np.sqrt(d) for i in range(d) for j in range(d)]
    )


class TestKrausChannel:
    def test_identity_apply(self, rng):
        rho = random_density(3, rng)
        np.testing.assert_allclose(KrausChannel.identity(3)(rho), rho, atol=1e-15)

    def test_bit_flip_on_ground_state(self):
        # hand expansion: (1-p) rho + p X rho X
        out = bit_flip(0.4)(np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.6, 0.4]), atol=1e-15)

    def test_repetition_channel_on_code_state(self, repetition):
        enc, channel, _, sigma = repetition
        out = channel(enc.encode(np.diag([1.0, 0.0]).astype(complex)))
        maj = enc.decomposition.basis.conj().T @ out @ enc.decomposition.basis
        expected = np.zeros((8, 8), dtype=complex)
        expected[:4, :4] = sigma
        np.testing.assert_allclose(maj, expected, atol=1e-14)

    def test_tp_violation_rejected(self):
        with pytest.raises(ContractViolation):
            KrausChannel([1.1 * np.eye(2, dtype=complex)])

    def test_empty_kraus_rejected(self):
        with pytest.raises(ContractViolation):
            KrausChannel([])

    def test_operators_are_checked_on_the_stack(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ContractViolation, match="share one shape"):
            KrausChannel([eye, np.eye(3)])
        # a malformed operator is named before the shape mismatch
        with pytest.raises(ContractViolation, match=r"expected a matrix, got shape \(2,\)"):
            KrausChannel([eye, np.ones(2)])
        with pytest.raises(ContractViolation, match=r"expected a matrix, got shape \(2,\)"):
            KrausChannel(eye)  # one matrix, not a list of them
        with pytest.raises(NumericError, match="non-finite"):
            KrausChannel([eye, np.full((2, 2), np.nan)], tp_tol=np.inf)
        with pytest.raises(NumericError, match="non-finite"):
            KrausChannel([eye, [[0.0, 1.0], [np.inf, 0.0]]], tp_tol=np.inf)

    def test_stacked_and_listed_operators_agree(self, rng):
        listed = random_channel(3, rng, dim_out=4, kraus_count=3)
        stacked = KrausChannel(np.stack(listed.kraus))
        assert (stacked.dim_in, stacked.dim_out) == (3, 4)
        assert all(np.array_equal(a, b) for a, b in zip(listed.kraus, stacked.kraus))
        assert isinstance(stacked.kraus, list) and len(stacked.kraus) == 3

    def test_dimension_mismatch_on_apply(self):
        with pytest.raises(ContractViolation):
            KrausChannel.identity(2)(np.eye(3))

    def test_preserves_density_operators(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            channel = random_channel(d, rng, kraus_count=3)
            rho = random_density(d, rng)
            out = channel(rho)
            assert np.abs(out - out.conj().T).max() <= 1e-12
            assert complex(np.trace(out)).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(out).min() >= -1e-12


def _hermitian_basis_defect(s: Superoperator, traceless: bool) -> float:
    """The input check as a probe of ``hermitian_basis``, kept as the reference:
    the images' anti-Hermitian part and their trace defect against Tr(b)
    (against 0 when ``traceless``)."""
    images = [unvec(s.matrix @ vec(b), s.dim_out) for b in hermitian_basis(s.dim_in)]
    targets = [0.0 if traceless else np.trace(b) for b in hermitian_basis(s.dim_in)]
    herm = max(np.abs(x - x.conj().T).max() for x in images)
    return max(herm, max(abs(np.trace(x) - t) for x, t in zip(images, targets)))


class TestInputCheck:
    @given(
        d_in=st.integers(1, 4),
        d_out=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        traceless=st.booleans(),
        defect=st.sampled_from([None, "anti-hermitian", "trace"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_hermitian_basis_probe(self, d_in, d_out, seed, traceless, defect):
        # 2 S1 - S2 preserves Hermiticity and trace, S1 - S2 Hermiticity and
        # sends every operator to a traceless one; neither is CP
        rng = np.random.default_rng(seed)
        s1, s2 = (random_channel(d_in, rng, dim_out=d_out).superoperator().matrix for _ in "12")
        m = (s1 if traceless else 2 * s1) - s2
        if defect is not None:
            g = np.zeros((d_out, d_out), dtype=complex)
            g[0, 0] = 1.0
            if defect == "anti-hermitian":
                h = rng.standard_normal((d_out, d_out)) + 1j * rng.standard_normal((d_out, d_out))
                g = 1j * (h + h.conj().T) / np.abs(h + h.conj().T).max()
            m = m + 1e-6 * np.outer(vec(g), vec(np.eye(d_in)).conj())  # X -> 1e-6 Tr(X) g
        s = Superoperator(d_in, d_out, m)
        new = _hermitian_trace_defect(s, 0.0 if traceless else np.eye(d_in))
        old = _hermitian_basis_defect(s, traceless)
        if defect is None:
            assert new <= 1e-12 and old <= 1e-12
        else:
            assert new > tol.INPUT_MAP_TOL and old > tol.INPUT_MAP_TOL
            assert old / np.sqrt(2) <= new * (1 + 1e-12) and new <= np.sqrt(2) * old * (1 + 1e-12)


class TestSuperoperator:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        m = np.eye(4, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(NumericError, match="superoperator matrix has non-finite entries"):
            Superoperator(2, 2, m)

    def test_vec_roundtrip(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(unvec(vec(m), 3), m)

    def test_agrees_with_kraus_action_on_basis(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            channel = random_channel(d, rng, kraus_count=3)
            s = channel.superoperator()
            for b in hermitian_basis(d):
                assert np.abs(s(b) - channel(b)).max() <= 1e-10

    def test_composition_homomorphism(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 5))
            e1 = random_channel(d, rng)
            e2 = random_channel(d, rng)
            lhs = compose(e2, e1).superoperator().matrix
            rhs = (e2.superoperator() @ e1.superoperator()).matrix
            assert np.abs(lhs - rhs).max() <= 1e-10

    def test_mix_homomorphism(self, rng):
        d = 3
        channels = [random_channel(d, rng) for _ in range(3)]
        w = [0.5, 0.3, 0.2]
        lhs = convex_mix(w, channels).superoperator().matrix
        rhs = sum(p * c.superoperator().matrix for p, c in zip(w, channels))
        assert np.abs(lhs - rhs).max() <= 1e-10


class TestComposeThroughImages:
    """``channel @ map`` applies the channel to the map's images and agrees
    with the product of the two superoperators, for every kind of map."""

    # (d_S, d_F, d_R) of the encoding, and the channel's output dimension and
    # Kraus count: square and rectangular channels, K = 1 included
    @pytest.mark.parametrize(
        "dims,d_out,count",
        [((2, 1, 1), 3, 1), ((2, 2, 1), 2, 3), ((2, 2, 2), 9, 2), ((3, 1, 0), 3, 1)],
    )
    def test_matches_the_superoperator_product(self, dims, d_out, count, rng):
        enc = random_isometric_encoding(*dims, rng)
        d = enc.dim_physical
        s_enc = enc.superoperator()
        drift = random_channel(d, rng).superoperator() @ s_enc
        delta = Superoperator(s_enc.dim_in, d, 1e-2 * (drift.matrix - s_enc.matrix))
        operands = [
            random_channel(4, rng, dim_out=d),
            s_enc,
            enc,
            PerturbedEncoding(enc, delta, trace_norm_certificate(delta)),
        ]
        channel = random_channel(d, rng, dim_out=d_out, kraus_count=count)
        for m in operands:
            got = channel @ m
            expected = channel.superoperator() @ m.superoperator()
            assert (got.dim_in, got.dim_out) == (expected.dim_in, expected.dim_out)
            scale = np.abs(expected.matrix).max()
            assert np.abs(got.matrix - expected.matrix).max() <= 1e-13 * scale

    def test_superoperator_composes_with_an_encoding(self, rng):
        enc = random_isometric_encoding(2, 2, 1, rng)
        s = random_channel(5, rng, dim_out=3).superoperator()
        assert np.array_equal((s @ enc).matrix, s.matrix @ enc.superoperator().matrix)

    def test_dimension_mismatch(self, rng):
        enc = random_isometric_encoding(2, 2, 1, rng)  # d_P = 5
        for channel in (KrausChannel.identity(4), Superoperator.identity(4)):
            with pytest.raises(ContractViolation, match="dimension mismatch in composition"):
                channel @ enc


class TestComposeAndMix:
    def test_compose_with_identity(self, rng):
        e = random_channel(3, rng)
        composed = compose(e, KrausChannel.identity(3))
        assert np.abs(composed.superoperator().matrix - e.superoperator().matrix).max() <= 1e-12

    def test_convex_mix_single(self, rng):
        e = random_channel(2, rng)
        assert np.abs(convex_mix([1.0], [e]).superoperator().matrix - e.superoperator().matrix).max() <= 1e-12

    def test_mixture_weights_validated(self):
        e = KrausChannel.identity(2)
        with pytest.raises(ContractViolation):
            convex_mix([0.5, 0.5 + 1e-9], [e, e])
        with pytest.raises(ContractViolation):
            convex_mix([-0.1, 1.1], [e, e])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_is_named(self, bad):
        e = KrausChannel.identity(2)
        with pytest.raises(ContractViolation, match="^weights must be finite"):
            convex_mix([bad, 1.0], [e, e])

    def test_mixture_weights_must_be_one_dimensional(self):
        e = KrausChannel.identity(2)
        with pytest.raises(ContractViolation, match="^weights must be a nonempty 1-D list"):
            convex_mix([[1.0]], [e])

    def test_mixture_needs_one_weight_per_channel(self):
        e = KrausChannel.identity(2)
        with pytest.raises(ContractViolation, match="^one weight per channel required"):
            convex_mix([0.5, 0.5], [e])

    def test_mixed_channels_must_share_dimensions(self):
        with pytest.raises(ContractViolation, match="^mixed channels must share dimensions"):
            convex_mix([0.5, 0.5], [KrausChannel.identity(2), KrausChannel.identity(3)])

    def test_compose_keeps_the_per_pair_products(self, rng):
        e1 = random_channel(3, rng, dim_out=4, kraus_count=3)
        e2 = random_channel(4, rng, dim_out=2, kraus_count=2)
        composed = compose(e2, e1)
        expected = [k2 @ k1 for k2 in e2.kraus for k1 in e1.kraus]
        assert (composed.dim_in, composed.dim_out) == (3, 2)
        assert len(composed.kraus) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(composed.kraus, expected))

    def test_compose_dimension_check(self, rng):
        with pytest.raises(ContractViolation):
            compose(KrausChannel.identity(2), KrausChannel.identity(3))


def _assert_lists_the_per_pair_products(composed, e2, e1):
    expected = [k2 @ k1 for k2 in e2.kraus for k1 in e1.kraus]
    assert composed.kraus_count == e2.kraus_count * e1.kraus_count == len(expected)
    assert len(composed.kraus) == len(expected)
    assert max(np.abs(a - b).max() for a, b in zip(composed.kraus, expected)) <= 1e-15


class TestComposeKeepsTheResetTerm:
    """``compose(recovery, channel)`` multiplies out only the recovery's
    block operators and pulls its reset term back through the channel."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 3),
        d_f=st.integers(1, 3),
        d_r=st.integers(0, 3),
        strategy=st.sampled_from(["time_reversal", "replace"]),
        stray=st.sampled_from([0.0, 0.02]),
    )
    def test_loop_matches_the_expanded_products(self, seed, d_s, d_f, d_r, strategy, stray):
        rng = np.random.default_rng(seed)
        enc, exact = random_preserved_system(d_s, d_f, d_r, rng)
        recovery = analysis.build_correction(enc, exact, strategy)
        channel = exact
        if stray:
            noise = random_channel(enc.dim_physical, rng)
            channel = convex_mix([1 - stray, stray], [exact, noise])
        loop = compose(recovery, channel)
        assert loop._reset is not None
        assert len(loop._blocks) == len(recovery._blocks) * channel.kraus_count
        _assert_lists_the_per_pair_products(loop, recovery, channel)

        expected = recovery.superoperator() @ channel
        assert np.abs(loop.superoperator().matrix - expected.matrix).max() <= 1e-14
        chained = recovery @ (channel @ enc)
        assert np.abs((loop @ enc).matrix - chained.matrix).max() <= 1e-14

        # two resets: the outer one is kept, the inner one expanded as today
        other = "replace" if strategy == "time_reversal" else "time_reversal"
        recovery2 = analysis.build_correction(enc, exact, other)
        both = compose(recovery, recovery2)
        assert both._reset is not None
        _assert_lists_the_per_pair_products(both, recovery, recovery2)
        expected = recovery.superoperator() @ recovery2
        assert np.abs(both.superoperator().matrix - expected.matrix).max() <= 1e-14

        # an inner reset, and plain channels, give the plain product list
        for e2, e1 in ((channel, recovery), (channel, exact)):
            composed = compose(e2, e1)
            assert composed._reset is None
            expected = [k2 @ k1 for k2 in e2.kraus for k1 in e1.kraus]
            assert len(composed.kraus) == len(expected)
            assert all(np.array_equal(a, b) for a, b in zip(composed.kraus, expected))

    def test_the_loop_multiplies_only_the_blocks(self, rng):
        # at d_P = 20 a recovery has 2 block operators and 16 reset ones
        enc, channel = random_preserved_system(4, 4, 4, rng)
        recovery = analysis.build_correction(enc, channel)
        assert (len(recovery._blocks), recovery.kraus_count) == (2, 18)
        loop = compose(recovery, channel)
        assert loop._blocks.shape == (2 * channel.kraus_count, 20, 20)
        assert loop.kraus_count == 18 * channel.kraus_count
        assert "_stack" not in vars(loop) and "_stack" not in vars(recovery)
        ok, residual = analysis.is_fixed(enc, loop)
        assert ok and residual <= 1e-13
        assert "_stack" not in vars(loop)


class TestCesaroProjector:
    def test_identity_channel(self):
        p = cesaro_projector(KrausChannel.identity(3))
        np.testing.assert_allclose(p.matrix, np.eye(9), atol=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.49])
    def test_bit_flip_projects_onto_x_commutant(self, p, rng):
        proj = cesaro_projector(bit_flip(p))
        for _ in range(5):
            rho = random_density(2, rng)
            expected = 0.5 * (rho + PAULI_X @ rho @ PAULI_X)
            assert np.abs(proj(rho) - expected).max() <= 1e-10

    def test_projector_invariants_on_random_channels(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 9))
            channel = random_channel(d, rng, kraus_count=int(rng.integers(1, 4)))
            s = channel.superoperator().matrix
            p = cesaro_projector(channel).matrix
            assert np.abs(s @ p - p).max() <= 1e-8
            assert np.abs(p @ s - p).max() <= 1e-8
            assert np.abs(p @ p - p).max() <= 1e-8

    def test_spectral_matches_iterative_on_unital(self, rng):
        for _ in range(6):
            d = int(rng.integers(2, 7))
            channel = random_unital_channel(d, rng)
            ps = cesaro_projector(channel, method="spectral").matrix
            pi = cesaro_projector(channel, method="iterative", tol_=1e-7).matrix
            assert np.abs(ps - pi).max() <= 1e-6

    def test_corrected_mixture_loop_dephases_encoded_states(self, repetition):
        from tniso.codes import make_example2_channel

        enc, _, recovery, _ = repetition
        loop = compose(recovery, make_example2_channel(0.4, 0.05))
        proj = cesaro_projector(loop)
        rho_c = 0.5 * np.ones((2, 2), dtype=complex)
        out = proj(enc.encode(rho_c))
        expected = enc.encode(np.diag([0.5, 0.5]).astype(complex))
        assert np.abs(out - expected).max() <= 1e-12

    def test_iterative_nonconvergence_raises(self):
        rot = KrausChannel([np.diag([1.0, np.exp(1j * 0.7)])])
        with pytest.raises(ConvergenceError):
            cesaro_projector(rot, method="iterative", max_n=8, tol_=1e-12)

    def test_requires_square_channel(self, rng):
        with pytest.raises(ContractViolation):
            cesaro_projector(random_channel(2, rng, dim_out=3))

    def test_unknown_method(self):
        with pytest.raises(ContractViolation):
            cesaro_projector(KrausChannel.identity(2), method="magic")


def _fixes_span(channel, x):
    return fixes_span(x, channel.superoperator().matrix @ x)


class TestFixesSpan:
    def test_identity_channel_fixes_any_span(self, rng):
        x = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
        assert _fixes_span(KrausChannel.identity(3), x)

    def test_identity_channel_fixes_rank_deficient_columns(self, rng):
        x = vec(random_density(3, rng))[:, None] * np.array([[1.0, -2.0]])
        assert _fixes_span(KrausChannel.identity(3), x)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.49])
    def test_flip_of_one_qubit_maps_its_span_into_itself_without_fixing_it(self, p, rng):
        flip_op = np.kron(PAULI_X, np.eye(4))
        flip = KrausChannel([np.sqrt(1 - p) * np.eye(8), np.sqrt(p) * flip_op])
        rho = random_density(8, rng)
        x = np.stack([vec(rho), vec(flip_op @ rho @ flip_op)], axis=1)
        image = flip.superoperator().matrix @ x
        assert np.abs(image - x @ np.linalg.lstsq(x, image, rcond=None)[0]).max() <= 1e-12
        assert not _fixes_span(flip, x)

    def test_bit_flip_moves_a_generic_state_off_its_span(self, rng):
        assert not _fixes_span(bit_flip(0.3), vec(random_density(2, rng))[:, None])

    def test_rejects_an_image_of_another_shape(self, rng):
        # the image of a 2 -> 3 channel has 9 rows against x's 4
        with pytest.raises(ContractViolation):
            _fixes_span(random_channel(2, rng, dim_out=3), np.eye(4))


class TestSupportInvariance:
    def test_identity_invariant(self, rng):
        rho = random_density(3, rng, rank=2)
        ok, res = check_support_invariance(KrausChannel.identity(3), rho)
        assert ok and res <= 1e-12

    def test_bit_flip_moves_ground_state(self):
        ok, res = check_support_invariance(bit_flip(0.3), np.diag([1.0, 0.0]))
        assert not ok
        assert res == pytest.approx(np.sqrt(0.3), abs=1e-12)

    def test_repetition_full_block(self, repetition):
        _, channel, _, _ = repetition
        ok, res = check_support_invariance(channel, np.eye(8) / 8)
        assert ok and res <= 1e-14


class TestContractionWitness:
    def test_identity_ratio_one(self):
        assert trace_norm_contraction_witness(KrausChannel.identity(3), 20, seed=1) == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_ratio_zero(self):
        assert trace_norm_contraction_witness(completely_depolarizing(3), 10, seed=1) <= 1e-12

    def test_random_channels_never_expand(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 9))
            channel = random_channel(d, rng, kraus_count=int(rng.integers(1, 4)))
            assert trace_norm_contraction_witness(channel, 10, seed=int(rng.integers(1 << 30))) <= 1.0 + 1e-9

    def test_repetition_preserves_code_pairs(self, repetition):
        enc, channel, _, _ = repetition

        def encoded_sampler(r):
            return enc.encode(random_density(2, r))

        ratio = trace_norm_contraction_witness(channel, 25, seed=2, state_sampler=encoded_sampler)
        assert ratio == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "budget,field", [({"samples": 0}, "samples"), ({"samples": -3}, "samples"), ({"seed": -1}, "seed")]
    )
    def test_rejects_bad_sampling_budget(self, budget, field):
        # no pair sampled would witness no ratio at all, not a ratio of 0
        with pytest.raises(ContractViolation, match=field):
            trace_norm_contraction_witness(KrausChannel.identity(2), **{"samples": 5, **budget})


class TestChannelJson:
    def test_roundtrip_exact(self, rng):
        channel = random_channel(3, rng, kraus_count=2)
        back = serialize.channel_from_dict(serialize.channel_to_dict(channel))
        for a, b in zip(channel.kraus, back.kraus):
            assert np.abs(a - b).max() <= 1e-15

    def test_malformed_payload(self):
        with pytest.raises(ContractViolation):
            serialize.channel_from_dict({"dim_in": 2, "kraus": [[[0.0]]]})

    def test_kraus_shape_must_match_the_dims(self):
        payload = {"dim_in": 2, "dim_out": 2, "kraus": [serialize.matrix_to_json(np.eye(3))]}
        with pytest.raises(ContractViolation, match=r"^Kraus shape \(3, 3\) does not match"):
            serialize.channel_from_dict(payload)

    @pytest.mark.parametrize(
        "entry", ["1", True, None, float("nan"), float("inf")],
        ids=["string", "boolean", "null", "nan", "infinity"],
    )
    def test_non_numeric_entry_names_the_field(self, entry):
        with pytest.raises(ContractViolation, match="malformed kraus payload"):
            serialize.channel_from_dict({"dim_in": 1, "dim_out": 1, "kraus": [[[[entry, 0]]]]})


def _kraus_superoperator(ops):
    return sum(np.kron(k.conj(), k) for k in ops)


class TestMinimalKraus:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_in=st.integers(1, 4),
        d_out=st.integers(1, 4),
        count=st.integers(1, 5),
        rank=st.integers(1, 5),
    )
    def test_reproduces_superoperator_at_choi_rank(self, seed, d_in, d_out, count, rank):
        # count operators spanning a rank-dimensional space: the Choi rank
        # is min(rank, count, d_out * d_in)
        rng = np.random.default_rng(seed)
        rank = min(rank, count)
        shape = (rank, d_out * d_in)
        base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        mix = rng.standard_normal((count, rank)) + 1j * rng.standard_normal((count, rank))
        ops = (mix @ base).reshape(count, d_out, d_in)
        ops /= np.linalg.norm(ops)
        minimal = minimal_kraus(ops)
        assert len(minimal) == min(rank, d_out * d_in)
        assert all(k.shape == (d_out, d_in) for k in minimal)
        diff = _kraus_superoperator(minimal) - _kraus_superoperator(ops)
        assert np.abs(diff).max() <= 1e-12


class TestStackedKernels:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_in=st.integers(1, 5),
        d_out=st.integers(1, 5),
        count=st.integers(1, 6),
        scale=st.floats(0.5, 2.0),
    )
    def test_match_per_operator_references(self, seed, d_in, d_out, count, scale):
        rng = np.random.default_rng(seed)
        count = max(count, -(-d_in // d_out))  # room for trace preservation
        shape = (count * d_out, d_in)
        rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u, _, vh = np.linalg.svd(rows, full_matrices=False)
        ops = list((u @ vh).reshape(count, d_out, d_in))  # sum_k M_k^dag M_k = I
        channel = KrausChannel(ops)
        rho = random_density(d_in, rng)

        out = channel.apply(rho)
        assert np.abs(out - sum(k @ rho @ k.conj().T for k in ops)).max() <= 1e-13
        s = channel.superoperator()
        assert (s.dim_in, s.dim_out) == (d_in, d_out)
        assert np.abs(s.matrix - _kraus_superoperator(ops)).max() <= 1e-13
        assert np.abs(s.apply(rho) - out).max() <= 1e-13

        # a defect far from zero, so the comparison is not of two roundings
        scaled = KrausChannel([scale * k for k in ops], tp_tol=np.inf)
        stack = scale * np.stack(ops)
        acc = np.einsum("kij,kil->jl", stack.conj(), stack)
        assert abs(scaled.tp_defect() - np.abs(acc - np.eye(d_in)).max()) <= 1e-13
        assert channel.tp_defect() <= 1e-13


def _reset_channel(k, n, d, rng) -> KrausChannel:
    """A d -> n channel held as k block operators on a random subspace plus a
    reset term that prepares a random state from its complement."""
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    kept = int(rng.integers(1, d))
    blocks = np.stack(random_channel(kept, rng, dim_out=n, kraus_count=k).kraus)
    reset = channels._Reset.of_state(u[:, kept:], random_density(n, rng))
    return KrausChannel._with_reset(blocks @ u[:, :kept].conj().T, reset)


class TestImageKernel:
    """``KrausChannel._images`` against an einsum over the expanded Kraus list."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 5),
        n=st.integers(1, 7),
        d=st.integers(1, 7),
        chunks=st.sampled_from(["one operand", "one chunk", "several chunks"]),
        reset=st.booleans(),
        layout=st.sampled_from(["C", "F", "strided"]),
    )
    def test_matches_the_einsum_oracle(self, seed, k, n, d, chunks, reset, layout):
        rng = np.random.default_rng(seed)
        if reset and d > 1:
            channel = _reset_channel(k, n, d, rng)
        else:
            channel = random_channel(d, rng, dim_out=n, kraus_count=k)
        k = len(channel._blocks)
        per_operand = 16 * k * n * max(n, d)
        # several chunks: three operands a chunk, the last one short
        budget = 3 * per_operand if chunks == "several chunks" else channels._SUPEROP_BLOCK_BYTES
        step = max(1, budget // per_operand)
        count = {"one operand": 1, "one chunk": step, "several chunks": 3 * step - 1}[chunks]
        xs = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
        vecs = xs.transpose(2, 1, 0).reshape(d * d, count)  # column c is vec(xs[c])
        if layout == "F":
            vecs = np.asfortranarray(vecs)
        elif layout == "strided":
            padded = np.zeros((2 * d * d, 2 * count), dtype=complex)
            padded[::2, ::2] = vecs
            vecs = padded[::2, ::2]

        with mock.patch.object(channels, "_SUPEROP_BLOCK_BYTES", budget):
            out = channel._images(vecs)
        m = channel._stack
        oracle = np.einsum("kij,cjl,kml->cim", m, xs, m.conj())
        assert out.shape == (n * n, count) and out.flags.c_contiguous
        images = out.reshape(n, n, count).transpose(2, 1, 0)  # images[c] = unvec(out[:, c])
        assert np.abs(images - oracle).max() <= 1e-13 * np.abs(oracle).max()

        # apply is the kernel's one column, whatever the column's layout
        x = xs[0]
        column = vecs[:, :1]
        assert np.array_equal(channel.apply(x), unvec(channel._images(column)[:, 0], n))


class TestBlockedSuperoperator:
    # (d_in, d_out, count): one block up to d_P = 10, several from d_P = 20,
    # uneven last blocks for rectangular maps, and a row over the budget at 26
    @pytest.mark.parametrize(
        "d_in,d_out,count,one_block",
        [
            (3, 3, 1, True),
            (10, 10, 4, True),
            (1, 40, 1, True),
            (20, 20, 1, False),
            (20, 20, 3, False),
            (24, 6, 4, False),
            (6, 24, 2, False),
            (26, 26, 2, False),
        ],
    )
    def test_matches_the_kron_sum(self, d_in, d_out, count, one_block, rng):
        assert (d_out * d_out * d_in * d_in * 16 <= channels._SUPEROP_BLOCK_BYTES) == one_block
        channel = random_channel(d_in, rng, dim_out=d_out, kraus_count=count)
        assert len(channel.kraus) == count
        s = channel.superoperator()
        assert s.matrix.shape == (d_out * d_out, d_in * d_in)
        assert np.abs(s.matrix - _kraus_superoperator(channel.kraus)).max() <= 1e-15


def _choi(s: Superoperator) -> np.ndarray:
    """``J = sum_ab E_ab kron s(E_ab)``, as the certificate forms it."""
    d, n = s.dim_in, s.dim_out
    return channels._unit_images(s).transpose(0, 2, 1, 3).reshape(d * n, d * n)


def _from_choi(j: np.ndarray, d: int, n: int) -> Superoperator:
    """The map on d x d operators whose Choi matrix is j: entry
    (a*n + i, b*n + j) of j is column a + d*b, row i + n*j of the matrix."""
    return Superoperator(d, n, j.reshape(d, n, d, n).transpose(3, 1, 2, 0).reshape(n * n, d * d))


def _svd_certificate(s: Superoperator) -> float:
    """The retired kernel, kept as an oracle: a full SVD ``J = U S V^dag`` of
    the Choi matrix and the mean of ``lambda_max(Tr_out (U S U^dag))`` and
    ``lambda_max(Tr_out (V S V^dag))``, the dual points ``(J J^dag)^(1/2)``
    and ``(J^dag J)^(1/2)``, both ``|J|`` for Hermitian J."""
    d, n = s.dim_in, s.dim_out
    u, sv, vh = np.linalg.svd(_choi(s))
    bound = 0.0
    for cols in (u, vh.conj().T):
        c = cols.reshape(d, n, -1)
        reduced = np.einsum("aik,k,bik->ab", c, sv, c.conj())
        bound += float(np.linalg.eigvalsh((reduced + reduced.conj().T) / 2)[-1]) / 2
    return bound + d * n * float(np.finfo(float).eps) * float(sv[0])


def _assert_agrees_with_the_svd_oracle(s, cert):
    # on maps that preserve Hermiticity up to rounding both kernels round
    # the same bound; the operands here have Choi norms of order 1
    scale = max(1.0, float(np.linalg.norm(_choi(s), 2)), cert)
    assert abs(cert - _svd_certificate(s)) <= 32 * np.finfo(float).eps * scale


def _assert_bounds_sampled_states(s, cert, rng):
    # the d_in^2 pure states |i>, (|i> + |j>)/sqrt 2 and (|i> + i|j>)/sqrt 2,
    # whose projectors span the operators, then random ones
    eye, (i, j) = np.eye(s.dim_in), np.triu_indices(s.dim_in, 1)
    basis = [*eye, *((eye[i] + eye[j]) / np.sqrt(2)), *((eye[i] + 1j * eye[j]) / np.sqrt(2))]
    states = [np.outer(v, v.conj()) for v in basis]
    for k in range(12):
        if k % 2 == 0:
            v = random_pure_state(s.dim_in, rng)
            states.append(np.outer(v, v.conj()))
        else:
            states.append(random_density(s.dim_in, rng, rank=int(rng.integers(1, s.dim_in + 1))))
    for rho in states:
        value = trace_norm(s(rho))
        # at d_in = 1 the bound is attained, and both sides are roundings of
        # one sum of singular values: allow the oracle's SVD its own ulps
        assert value <= cert + 4 * s.dim_out * np.finfo(float).eps * value


def _anti_hermitian(n: int, size: float, rng) -> np.ndarray:
    """i K for a random Hermitian n x n K, scaled to Frobenius norm ``size``."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = g + g.conj().T
    return 1j * k * (size / np.linalg.norm(k))


class TestTraceNormCertificate:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10_000), d_in=st.integers(1, 4), d_out=st.integers(1, 4))
    def test_channel_differences(self, seed, d_in, d_out):
        rng = np.random.default_rng(seed)
        e1 = random_channel(d_in, rng, dim_out=d_out).superoperator()
        e2 = random_channel(d_in, rng, dim_out=d_out).superoperator()
        for channel in (e1, e2):
            assert abs(trace_norm_certificate(channel) - 1.0) <= 1e-12
        delta = Superoperator(d_in, d_out, e1.matrix - e2.matrix)
        cert = trace_norm_certificate(delta)
        assert type(cert) is float
        _assert_agrees_with_the_svd_oracle(delta, cert)
        _assert_bounds_sampled_states(delta, cert, rng)
        zero = Superoperator(d_in, d_out, np.zeros_like(delta.matrix))
        assert trace_norm_certificate(zero) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 4),
        d_f=st.integers(1, 4),
        d_r=st.integers(0, 3),
    )
    def test_encodings_after_a_transpose(self, seed, d_s, d_f, d_r):
        # for d_S > 1 the map is positive but not completely positive: its
        # Choi matrix has a negative part, and the bound must still hold
        d_f = min(d_f, 4 // d_s)
        d_r = min(d_r, 4 - d_s * d_f)
        rng = np.random.default_rng(seed)
        enc = random_isometric_encoding(d_s, d_f, d_r, rng)
        flipped = enc.superoperator() @ Superoperator(d_s, d_s, transpose_superoperator(d_s))
        cert = trace_norm_certificate(flipped)
        _assert_agrees_with_the_svd_oracle(flipped, cert)
        _assert_bounds_sampled_states(flipped, cert, rng)

    # classify's four differences on a preserved system (detection's
    # verification, fixed, protection and correction) and, on a 1e-4 near
    # miss that detection rejects before verification, the fixed one
    @pytest.mark.parametrize("dims", [(2, 4, 2), (3, 4, 3), (4, 4, 4)])
    @pytest.mark.parametrize("admixture", [0.0, 1e-4])
    def test_classify_differences_agree_with_the_svd_oracle(self, dims, admixture, monkeypatch):
        certified = []
        real = analysis.trace_norm_certificate

        def spy(s):
            certified.append((s, real(s)))
            return certified[-1][1]

        monkeypatch.setattr(analysis, "trace_norm_certificate", spy)
        for seed in range(2):
            rng = np.random.default_rng(seed)
            enc, channel = random_preserved_system(*dims, rng)
            if admixture:
                noise = random_channel(enc.dim_physical, rng)
                channel = convex_mix([1 - admixture, admixture], [channel, noise])
            report = analysis.classify(enc, channel)
            assert report.preserved == (admixture == 0.0)
        assert len(certified) == (8 if admixture == 0.0 else 2)
        for s, cert in certified:
            _assert_agrees_with_the_svd_oracle(s, cert)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_purely_anti_hermitian_choi(self, n, rng):
        # d_in = 1 and 1 -> iK: the only state goes to iK, whose trace norm
        # the Hermitian part, zero, does not see; sqrt(n) ||iK||_F does
        ik = _anti_hermitian(n, 1.0, rng)
        s = Superoperator(1, n, vec(ik)[:, None])
        cert = trace_norm_certificate(s)
        assert cert >= trace_norm(ik)
        assert cert == pytest.approx(np.sqrt(n), rel=1e-12)
        _assert_bounds_sampled_states(s, cert, rng)

    def test_anti_hermitian_perturbation_of_example2(self, repetition, example2_channel, rng):
        # one round of example2's mixture moves the code by its coherence
        # damping, 0.04, which the basis state (|0> + |1>)/sqrt 2 attains; a
        # 1e-9 anti-Hermitian Choi part raises that state's value by about
        # 1e-9, far above the rounding slack, and the certificate covers it
        enc, _, recovery, _ = repetition
        s_phi = enc.superoperator()
        round_ = recovery @ (example2_channel @ s_phi)
        d, n = s_phi.dim_in, s_phi.dim_out
        choi = _choi(Superoperator(d, n, round_.matrix - s_phi.matrix))
        perturbed = _from_choi(choi + _anti_hermitian(d * n, 1e-9, rng), d, n)
        cert = trace_norm_certificate(perturbed)
        assert abs(cert - 0.04 - np.sqrt(n) * 1e-9) <= 1e-12
        _assert_bounds_sampled_states(perturbed, cert, rng)

    def test_one_eigh_and_no_svd(self, monkeypatch, rng):
        calls = []
        for name in ("svd", "eigh"):
            real = getattr(np.linalg, name)

            def spy(a, *args, _name=name, _real=real, **kwargs):
                calls.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        s = random_channel(3, rng, dim_out=5).superoperator()
        trace_norm_certificate(s)
        assert calls == [("eigh", (15, 15))]

        # a preserved classify at (4,4,4) takes 4 certificates of 80 x 80
        # Choi matrices, and no SVD of that size
        calls.clear()
        enc, channel = random_preserved_system(4, 4, 4, rng)
        assert analysis.classify(enc, channel).preserved
        assert [c for c in calls if c[0] == "svd" and c[1][-2:] == (80, 80)] == []
        assert calls.count(("eigh", (80, 80))) == 4


class TestCheckAtTheBoundary:
    """Products formed inside the package from checked operands skip the
    constructor's non-finite scan; the public constructor keeps it."""

    def test_internal_products_build_no_checked_superoperator(self, monkeypatch, rng):
        channel = random_channel(3, rng)
        s = channel.superoperator()
        built = []
        real = Superoperator.__post_init__

        def counted(self):
            built.append(1)
            real(self)

        monkeypatch.setattr(Superoperator, "__post_init__", counted)
        products = [
            channel.superoperator(),
            channel @ s,
            s @ s,
            cesaro_projector(channel),
            cesaro_projector(channel, method="iterative"),
        ]
        assert built == []
        assert all(p.matrix.shape == (9, 9) and p.matrix.dtype == complex for p in products)
        with pytest.raises(NumericError, match="non-finite"):
            Superoperator(1, 1, [[np.nan]])
        assert built == [1]

    def test_certificate_operands_skip_the_scan(self, monkeypatch, rng):
        # analysis._distance and detection's verification certify the
        # difference of two checked maps without the constructor's scan
        enc, channel = random_preserved_system(2, 2, 1, rng)
        s_phi = enc.superoperator()
        image = channel @ s_phi
        scanned, certified = [], []
        real_scan, real_cert = Superoperator.__post_init__, analysis.trace_norm_certificate

        def counted(self):
            scanned.append(self)
            real_scan(self)

        def spy(s):
            certified.append(s)
            return real_cert(s)

        monkeypatch.setattr(Superoperator, "__post_init__", counted)
        monkeypatch.setattr(analysis, "trace_norm_certificate", spy)
        analysis._distance(image, s_phi)
        assert scanned == [] and len(certified) == 1
        assert analysis.detect_structure(image).found
        assert len(certified) == 2 and all(s is not c for s in scanned for c in certified)
        assert all(c.matrix.shape == (25, 4) and c.matrix.dtype == complex for c in certified)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0])
    def test_tolerance_arguments_are_refused(self, bad, rng):
        channel = random_channel(2, rng)
        with pytest.raises(ContractViolation, match="^tol_ must be positive and finite"):
            cesaro_projector(channel, method="iterative", tol_=bad)
        with pytest.raises(ContractViolation, match="^tol_ must be positive and finite"):
            check_support_invariance(channel, np.eye(2) / 2, bad)

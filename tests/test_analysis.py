import json
import logging

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tniso import analysis, channels, cli, robustness, serialize
from tniso import tolerances as tol
from tniso.analysis import (
    build_correction,
    check_ns_factorization,
    classify,
    derive_protectable_code,
    detect_structure,
    is_fixed,
    is_preserved,
    noiseless_certificate,
    unitary_correctability,
)
from tniso.channels import (
    KrausChannel,
    Superoperator,
    cesaro_projector,
    compose,
    convex_mix,
    fixes_span,
    trace_norm_certificate,
    transpose_superoperator,
    vec,
)
from tniso.codes import (
    IsometricEncoding,
    PerturbedEncoding,
    SubsystemDecomposition,
    make_example2_channel,
)
from tniso.errors import ContractViolation, NotCorrectableError
from tniso.opcore import above_rank_cut, eigh_clamped, hermitian_basis, state_spectrum, trace_norm
from tniso.robustness import perturbed_encoding_correctability, simulate_iterated
from tniso.serialize import channel_to_dict
from tniso.sampling import (
    haar_unitary,
    random_channel,
    random_density,
    random_isometric_encoding,
    random_preserved_system,
)

from conftest import PAULI_Z


def _powers_found(encoding, channel, count):
    """Whether detection finds the code in S^k o phi for k = 1..count."""
    s_e, power = channel.superoperator(), encoding.superoperator()
    found = []
    for _ in range(count):
        power = s_e @ power
        found.append(detect_structure(power).found)
    return found


def _admixed_system(dims, seed, weight):
    """A random preserved system with a ``weight`` admixture of random noise."""
    d_s, d_f, d_r, d_g = dims
    rng = np.random.default_rng(seed)
    enc, channel = random_preserved_system(d_s, d_f, d_r, rng, d_g=d_g)
    noise = random_channel(enc.dim_physical, rng)
    return enc, convex_mix([1.0 - weight, weight], [channel, noise])


class TestDetectStructure:
    def test_constructed_encoding_roundtrip(self, rng):
        dec = SubsystemDecomposition(2, 2, 1, haar_unitary(5, rng))
        enc = IsometricEncoding(dec, np.diag([0.7, 0.3]))
        report = detect_structure(enc.superoperator())
        assert report.found and report.conjugation == "unitary"
        assert report.residual <= 1e-9
        np.testing.assert_allclose(np.sort(report.weights)[::-1], [0.7, 0.3], atol=1e-9)

    def test_repetition_image_structure(self, repetition):
        enc, channel, _, _ = repetition
        composite = channel.superoperator() @ enc.superoperator()
        report = detect_structure(composite)
        assert report.found
        np.testing.assert_allclose(
            np.sort(report.weights)[::-1],
            [0.6, 2.0 / 15.0, 2.0 / 15.0, 2.0 / 15.0],
            atol=1e-10,
        )
        # detected encoding reconstructs the composite on fresh states
        det = report.encoding()
        for _ in range(5):
            rho = random_density(2, np.random.default_rng(9))
            assert trace_norm(composite(rho) - det.encode(rho)) <= 1e-9

    def test_depolarizing_rejected_at_orthogonality(self):
        d = 4
        phi = Superoperator(d, d, np.outer(vec(np.eye(d)), vec(np.eye(d))) / d)
        report = detect_structure(phi)
        assert not report.found and report.stage == "orthogonality"

    def test_anti_unitary_flagged(self, rng):
        for _ in range(5):
            dec = SubsystemDecomposition(2, 2, 1, haar_unitary(5, rng))
            enc = IsometricEncoding(dec, random_density(2, rng))
            flipped = enc.superoperator() @ Superoperator(2, 2, transpose_superoperator(2))
            report = detect_structure(flipped)
            assert report.found and report.conjugation == "anti-unitary"
            assert report.residual <= 1e-8

    def test_rank_deficient_cofactor_detected_minimal(self, rng):
        dec = SubsystemDecomposition(2, 3, 0, haar_unitary(6, rng))
        enc = IsometricEncoding(dec, np.diag([0.8, 0.2, 0.0]))
        report = detect_structure(enc.superoperator())
        assert report.found
        assert report.decomposition.d_f == 2
        assert report.decomposition.d_r == 2

    def test_non_trace_preserving_map_rejected(self):
        phi = Superoperator(2, 2, 0.5 * np.eye(4))
        report = detect_structure(phi)
        assert not report.found and report.stage == "input_map"

    def test_report_encoding_raises_when_not_found(self):
        d = 3
        phi = Superoperator(d, d, np.outer(vec(np.eye(d)), vec(np.eye(d))) / d)
        report = detect_structure(phi)
        with pytest.raises(ContractViolation):
            report.encoding()

    def test_dephasing_fails_at_verification(self):
        # E_ab -> delta_ab E_aa passes every stage up to the candidate, which
        # keeps the coherence the map erases: a certified residual of 1
        phi = Superoperator(2, 2, np.diag(vec(np.eye(2))))
        report = detect_structure(phi)
        assert not report.found and report.stage == "verification"
        assert report.residual == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("found", [True, False])
    def test_verification_certifies_one_candidate(self, monkeypatch, found, rng):
        calls = []
        certificate = analysis.trace_norm_certificate

        def counted(s):
            calls.append(s)
            return certificate(s)

        monkeypatch.setattr(analysis, "trace_norm_certificate", counted)
        if found:
            phi = random_isometric_encoding(3, 2, 1, rng).superoperator()
        else:
            phi = Superoperator(2, 2, np.diag(vec(np.eye(2))))
        report = detect_structure(phi)
        assert report.found == found and report.stage in ("verified", "verification")
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 4),
        d_r=st.integers(0, 3),
        exponents=st.lists(st.floats(-8.0, 0.0), min_size=1, max_size=4),
        anti=st.booleans(),
    )
    def test_exact_encodings_with_skewed_cofactors(self, seed, d_s, d_r, exponents, anti):
        # cofactor weights spread over eight decades, in a rotated basis;
        # a 1e-4 admixture of noise after the encoding is still rejected
        rng = np.random.default_rng(seed)
        d_f = len(exponents)
        weights = 10.0 ** np.array(exponents)
        weights /= weights.sum()
        v = haar_unitary(d_f, rng)
        dec = SubsystemDecomposition(d_s, d_f, d_r, haar_unitary(d_s * d_f + d_r, rng))
        phi = IsometricEncoding(dec, v @ np.diag(weights) @ v.conj().T).superoperator()
        if anti:
            phi = phi @ Superoperator(d_s, d_s, transpose_superoperator(d_s))
        report = detect_structure(phi)
        assert report.found
        # a single logical level has no transpose to tell the flavors apart
        assert report.conjugation == ("anti-unitary" if anti and d_s > 1 else "unitary")
        assert report.residual <= 1e-12
        np.testing.assert_allclose(report.weights, np.sort(weights)[::-1], atol=1e-12)
        if d_s > 1:
            noise = random_channel(phi.dim_out, rng) @ phi
            near = Superoperator(d_s, phi.dim_out, (1 - 1e-4) * phi.matrix + 1e-4 * noise.matrix)
            assert not detect_structure(near).found

    @staticmethod
    def _diagonal_images(d_out, *diagonals):
        """The map sending E_aa to diag(diagonals[a]) and every E_ab, a != b, to 0."""
        d_in = len(diagonals)
        m = np.zeros((d_out**2, d_in**2), dtype=complex)
        for a, diagonal in enumerate(diagonals):
            m[:, a + d_in * a] = vec(np.diag(diagonal))
        return Superoperator(d_in, d_out, m)

    def test_negative_basis_state_image_is_rejected(self):
        report = detect_structure(self._diagonal_images(2, [-1.0, 2.0], [0.0, 1.0]))
        assert (report.found, report.stage, report.residual) == (False, "state_images", 1.0)

    def test_spread_of_the_image_spectra_is_rejected(self):
        phi = self._diagonal_images(4, [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5])
        report = detect_structure(phi)
        assert (report.found, report.stage, report.residual) == (False, "spectrum", 0.5)

    def test_cofactor_that_does_not_fit_is_rejected(self):
        # two weights per logical level need 2 * 2 > 3 physical dimensions:
        # the weight that does not fit is cut, and verification rejects the
        # candidate with the certified residual of what the cut left out
        w = 1e-5
        report = detect_structure(self._diagonal_images(3, [1 - w, w, 0.0], [0.0, w, 1 - w]))
        assert (report.found, report.stage) == (False, "verification")
        assert report.residual > tol.DETECTION_TOL


class TestFixedAndPreserved:
    def test_identity_fixes_everything(self, repetition):
        ok, res = is_fixed(repetition.encoding, KrausChannel.identity(8))
        assert ok and res <= 1e-14

    def test_repetition_fixed_under_correction(self, repetition):
        enc, channel, recovery, _ = repetition
        ok, res = is_fixed(enc, compose(recovery, channel), 1e-10)
        assert ok and res <= 1e-10

    def test_repetition_not_fixed_under_noise_alone(self, repetition):
        ok, res = is_fixed(repetition.encoding, repetition.channel)
        assert not ok and res > 0.1

    def test_repetition_preserved(self, repetition):
        ok, report = is_preserved(repetition.encoding, repetition.channel)
        assert ok and report.residual <= 1e-10

    def test_mixture_not_preserved_at_tight_tolerance(self, repetition):
        channel = make_example2_channel(0.4, 0.05)
        ok, report = is_preserved(repetition.encoding, channel, tol_=1e-6)
        assert not ok
        assert report.stage == "verification"
        # the deviation is the per-round coherence damping, order epsilon
        assert 1e-3 < report.residual < 1.0

    def test_unitary_conjugation_preserved(self, repetition, rng):
        v = haar_unitary(8, rng)
        ok, _ = is_preserved(repetition.encoding, KrausChannel.from_unitary(v))
        assert ok


class TestNoiselessCertificate:
    def test_corrected_loop_certified(self, repetition):
        enc, channel, recovery, _ = repetition
        loop = compose(recovery, channel)
        cert = noiseless_certificate(enc, loop)
        assert cert.accepted
        assert all(_powers_found(enc, loop, 8))
        # the loop fixes the code's span, so the projected code is the code itself
        assert cert.projector == "fixed"
        assert cert.fixed_residual == is_fixed(enc, loop)[1] <= 1e-10

    def test_noise_alone_fails_at_second_power(self, repetition):
        # a second bit flip can cross the majority boundary, so the code is
        # preserved by one application but not noiseless
        assert is_preserved(repetition.encoding, repetition.channel)[0]
        cert = noiseless_certificate(repetition.encoding, repetition.channel)
        assert not cert.accepted
        assert _powers_found(repetition.encoding, repetition.channel, 2) == [True, False]

    def test_dephasing_destroys_full_qubit_code(self):
        enc = IsometricEncoding.trivial(2)
        z = PAULI_Z.astype(complex)
        dephasing = KrausChannel([np.sqrt(0.7) * np.eye(2, dtype=complex), np.sqrt(0.3) * z])
        cert = noiseless_certificate(enc, dephasing)
        assert not cert.accepted

    def test_rejects_rectangular_channel(self, rng):
        with pytest.raises(ContractViolation):
            noiseless_certificate(IsometricEncoding.trivial(2), random_channel(2, rng, dim_out=4))

    @pytest.mark.parametrize("kind", ["perturbed", "superoperator"])
    def test_rejects_an_encoding_not_isometric_by_type(self, kind, rng):
        # the identity fixes every span, so the fixed path, which detects
        # nothing, would accept this contraction; only an IsometricEncoding
        # is isometric by its type
        enc = random_isometric_encoding(2, 2, 1, rng)
        s_enc = enc.superoperator()
        drift = random_channel(enc.dim_physical, rng).superoperator() @ s_enc
        delta = Superoperator(2, enc.dim_physical, 0.3 * (drift.matrix - s_enc.matrix))
        bad = PerturbedEncoding(enc, delta, trace_norm_certificate(delta))
        if kind == "superoperator":
            bad = bad.superoperator()
        assert not detect_structure(bad.superoperator()).found
        with pytest.raises(ContractViolation, match="^encoding must be an IsometricEncoding"):
            noiseless_certificate(bad, KrausChannel.identity(enc.dim_physical))

    def test_undetected_projection_reports_its_detection_residual(self):
        # a 1e-10 admixture leaves the code preserved, but projecting it on the
        # corrected loop's fixed points gives no encoding under either
        # strategy: the certificate reports the residual that rejected the
        # projection, not infinity
        enc, near = _admixed_system((2, 3, 1, None), seed=2, weight=1e-10)
        for strategy in ("time_reversal", "replace"):
            loop = compose(build_correction(enc, near, strategy), near)
            cert = noiseless_certificate(enc, loop)
            s_loop = loop.superoperator()
            rep = detect_structure(cesaro_projector(s_loop, method="spectral") @ enc.superoperator())
            assert not cert.accepted and cert.projector == "full" and not rep.found
            assert cert.fixed_residual == rep.residual
            assert np.isfinite(cert.fixed_residual)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 3),
        d_f=st.integers(1, 3),
        d_r=st.integers(0, 3),
        d_g=st.integers(1, 3),
        admixture=st.one_of(st.just(0.0), st.floats(-12.0, -2.0).map(lambda e: 10.0**e)),
        strategy=st.sampled_from([None, "time_reversal", "replace"]),
    )
    def test_acceptance_covers_every_power(
        self, seed, d_s, d_f, d_r, d_g, admixture, strategy
    ):
        # the fixed-point projector contracts every power of a CPTP map, so an
        # accepted code is found in S^k o phi for every k, not just the first few
        if d_s * d_g > d_s * d_f + d_r:
            d_g = d_f
        enc, channel = _admixed_system((d_s, d_f, d_r, d_g), seed, admixture)
        if strategy is not None and is_preserved(enc, channel)[0]:
            channel = compose(build_correction(enc, channel, strategy), channel)
        if noiseless_certificate(enc, channel).accepted:
            assert all(_powers_found(enc, channel, 8))


class TestFixedSpanPath:
    """The noiseless certificate takes the code as its own projection when
    the channel fixes the code's span, and falls back to the full
    fixed-point projector otherwise."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(2, 3),
        d_f=st.integers(1, 3),
        d_r=st.integers(0, 3),
        d_g=st.integers(1, 3),
        strategy=st.sampled_from(["time_reversal", "replace"]),
    )
    def test_corrected_loop_fixes_the_code(self, seed, d_s, d_f, d_r, d_g, strategy):
        if d_s * d_g > d_s * d_f + d_r:
            d_g = d_f
        enc, channel = random_preserved_system(d_s, d_f, d_r, np.random.default_rng(seed), d_g=d_g)
        loop = compose(build_correction(enc, channel, strategy), channel)
        cert = noiseless_certificate(enc, loop)
        assert cert.accepted and cert.projector == "fixed"
        s_phi = enc.superoperator().matrix
        assert np.abs(cesaro_projector(loop).matrix @ s_phi - s_phi).max() <= 1e-12
        assert cert.fixed_residual == is_fixed(enc, loop)[1]

    def test_preserved_classify_takes_no_full_size_projector(self, monkeypatch):
        enc, channel = random_preserved_system(2, 4, 2, np.random.default_rng(0))
        shapes = []
        real = channels._spectral_fixed_point_projector

        def recorded(s):
            shapes.append(s.shape)
            return real(s)

        monkeypatch.setattr(channels, "_spectral_fixed_point_projector", recorded)
        report = classify(enc, channel)
        assert report.noiseless_certificate
        assert shapes == []

    def test_admixture_in_the_eigenvalue_one_cluster_stays_certified(self):
        # a 1e-10 admixture spreads eigenvalue 1 of the corrected loop into a
        # cluster as wide as KERNEL_TOL, so the loop does not fix the code's
        # span and the full projector decides
        enc, near = _admixed_system((2, 4, 2, None), seed=0, weight=1e-10)
        report = classify(enc, near, strategy="replace")
        assert report.preserved and report.noiseless_certificate

    def test_admixture_that_splits_the_kernel_cut_goes_straight_to_full(self, monkeypatch):
        # Q^H S Q - I has singular values near 1e-10 on both sides of
        # KERNEL_TOL: the image and the full projection are the only
        # detections, and the full projector needs the loop's matrix, the
        # product of the recovery's and the channel's superoperators, the
        # only Kraus superoperators built; no Kraus list is multiplied
        enc, near = _admixed_system((4, 4, 4, None), seed=0, weight=1e-10)
        calls = _count_detections(monkeypatch)
        built, composed = _record_builds(monkeypatch)
        report = classify(enc, near, strategy="replace")
        assert report.preserved and report.noiseless_certificate
        assert report.meta == {"projector": "full", "fell_back": False}
        assert len(calls) == 2
        assert composed == []
        kraus_built = [x for x in built if isinstance(x, KrausChannel)]
        assert len(kraus_built) == 2 and kraus_built[1] is near

    def test_raw_repetition_channel_falls_back_to_full_projector(self, repetition):
        # the bit flips move the code's span off itself, so the full
        # projector decides
        cert = noiseless_certificate(repetition.encoding, repetition.channel)
        assert not cert.accepted
        assert cert.projector == "full"

    def test_uncorrected_channel_falls_back_to_full_projector(self):
        enc, channel = random_preserved_system(2, 3, 1, np.random.default_rng(0))
        s_phi = enc.superoperator().matrix
        assert not fixes_span(s_phi, channel.superoperator().matrix @ s_phi)
        assert noiseless_certificate(enc, channel).projector == "full"

    def test_classify_reports_projector_under_meta(self, repetition, caplog):
        with caplog.at_level(logging.DEBUG, logger="tniso.analysis"):
            report = classify(repetition.encoding, repetition.channel)
        assert report.meta == {"projector": "fixed", "fell_back": False}
        assert "meta" not in report.as_dict()
        assert "noiseless certificate: fixed projector" in caplog.text


class TestImageChain:
    """classify reads every loop residual off the chain S_phi -> S_E S_phi ->
    S_R S_E S_phi; the public wrappers take the loop's matrix S_R S_E instead,
    the product classify's full projector takes."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 3),
        d_f=st.integers(1, 3),
        d_r=st.integers(0, 3),
        d_g=st.integers(1, 3),
        admixture=st.one_of(st.just(0.0), st.floats(-12.0, -2.0).map(lambda e: 10.0**e)),
        strategy=st.sampled_from(["time_reversal", "replace"]),
    )
    def test_chain_matches_the_composed_loop(self, seed, d_s, d_f, d_r, d_g, admixture, strategy):
        if d_s * d_g > d_s * d_f + d_r:
            d_g = d_f
        enc, channel = _admixed_system((d_s, d_f, d_r, d_g), seed, admixture)
        report = classify(enc, channel, strategy=strategy)
        if not report.preserved:
            return
        loop = build_correction(enc, channel, strategy).superoperator() @ channel
        cert = noiseless_certificate(enc, loop)
        assert report.noiseless_certificate == cert.accepted
        assert report.meta["projector"] == cert.projector
        moved = is_fixed(enc, loop)[1]
        assert abs(report.residuals["correction"] - moved) <= 1e-12
        assert abs(report.residuals["noiseless_fixed_code"] - cert.fixed_residual) <= 1e-12
        if cert.projector == "fixed":
            assert abs(report.residuals["noiseless_fixed_code"] - moved) <= 1e-12


class TestBuildCorrection:
    def test_replace_strategy_matches_reference_recovery(self, repetition):
        enc, channel, reference, _ = repetition
        recovery = build_correction(enc, channel, "replace")
        assert np.abs(
            recovery.superoperator().matrix - reference.superoperator().matrix
        ).max() <= 1e-12
        ok, res = is_fixed(enc, compose(recovery, channel), 1e-10)
        assert ok and res <= 1e-10

    def test_time_reversal_strategy(self, repetition):
        enc, channel, _, _ = repetition
        recovery, details = build_correction(enc, channel, "time_reversal", return_details=True)
        assert not details.fell_back
        assert details.cofactor_tp_defect <= 1e-10
        ok, res = is_fixed(enc, compose(recovery, channel), 1e-9)
        assert ok and res <= 1e-9

    def test_global_unitary_noise(self, repetition, rng):
        enc = repetition.encoding
        v = haar_unitary(8, rng)
        channel = KrausChannel.from_unitary(v)
        for strategy in ("time_reversal", "replace"):
            recovery = build_correction(enc, channel, strategy)
            ok, res = is_fixed(enc, compose(recovery, channel), 1e-9)
            assert ok, (strategy, res)
            # on encoded operators the recovery acts as the inverse rotation
            for b in hermitian_basis(2):
                x = channel(enc.encode(b))
                np.testing.assert_allclose(
                    recovery(x), v.conj().T @ x @ v, atol=1e-9
                )

    def test_refuses_non_preserved_code(self, rng):
        enc = random_isometric_encoding(2, 2, 1, rng)
        channel = random_channel(enc.dim_physical, rng, kraus_count=3)
        with pytest.raises(NotCorrectableError):
            build_correction(enc, channel)

    def test_unknown_strategy(self, repetition, example2_channel):
        # the strategy is checked before preservation, so a code the
        # channel does not preserve still reports the bad strategy
        enc = repetition.encoding
        assert not is_preserved(enc, example2_channel)[0]
        for channel in (repetition.channel, example2_channel):
            for fn in (build_correction, derive_protectable_code):
                with pytest.raises(ContractViolation):
                    fn(enc, channel, "undo")

    @pytest.mark.parametrize("dims", [(2, 2, 1), (2, 4, 2), (3, 4, 3)])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("strategy", ["time_reversal", "replace"])
    def test_recovery_is_stable_under_rounding(self, dims, seed, strategy):
        # a relative 3e-15 change of the Kraus operators moves the recovery's
        # operators, and the image complement they route, by rounding only
        enc, channel = random_preserved_system(*dims, np.random.default_rng(seed))
        stack = np.stack(channel.kraus)
        noise = np.random.default_rng(100 + seed).standard_normal(stack.shape)
        nudged = KrausChannel(stack * (1 + 3e-15 * noise))
        (a, da), (b, db) = (
            build_correction(enc, ch, strategy, return_details=True) for ch in (channel, nudged)
        )
        assert np.abs(np.stack(a.kraus) - np.stack(b.kraus)).max() <= 1e-12
        img_a, img_b = da.image_report.decomposition, db.image_report.decomposition
        n = img_a.d_s * img_a.d_f
        assert img_a.d_r > 0
        assert np.abs(img_a.basis[:, n:] - img_b.basis[:, n:]).max() <= 1e-12

    def test_generate_and_check_harness(self, rng):
        for _ in range(8):
            d_s = int(rng.integers(2, 4))
            d_f = int(rng.integers(1, 4))
            d_r = int(rng.integers(0, 3))
            d_p = d_s * d_f + d_r
            d_g = int(rng.integers(1, d_p // d_s + 1))
            enc, channel = random_preserved_system(d_s, d_f, d_r, rng, d_g=d_g)
            for strategy in ("time_reversal", "replace"):
                recovery = build_correction(enc, channel, strategy)
                ok, res = is_fixed(enc, compose(recovery, channel), 1e-8)
                assert ok, (strategy, res, (d_s, d_f, d_r, d_g))

    @pytest.mark.parametrize("seed", range(5))
    def test_sub_tolerance_admixture_keeps_time_reversal(self, seed):
        # the sandwich is normalised by the induced cofactor channel's own
        # image of tau, so a 1e-9 admixture leaves it trace preserving to
        # rounding, and time reversal needs no fallback
        enc, near = _admixed_system((2, 3, 1, None), seed, weight=1e-9)
        assert is_preserved(enc, near)[0]
        recovery, details = build_correction(enc, near, return_details=True)
        assert not details.fell_back and details.strategy_used == "time_reversal"
        assert details.cofactor_tp_defect <= 1e-13
        assert recovery.tp_defect() <= 1e-13
        report = classify(enc, near)
        assert report.correctable and report.residuals["correction"] <= 1e-8
        assert report.meta["fell_back"] is False

    @pytest.mark.parametrize("seed", [2, 3])
    def test_noise_born_image_weight_falls_back(self, seed):
        # a 3e-9 admixture gives the image a cofactor weight near 1e-9 that
        # detection counts as a dimension, so sigma = E_FG(tau) has a direction
        # near the rank cut: the polar factor drops it (defect about 1), and
        # time reversal falls back to replacement
        enc, near = _admixed_system((2, 4, 2, None), seed, weight=3e-9)
        recovery, details = build_correction(enc, near, return_details=True)
        assert details.image_report.weights.min() < 2e-9
        assert details.fell_back and details.strategy_used == "replace"
        assert details.cofactor_tp_defect > 0.5
        assert recovery.tp_defect() <= tol.TP_TOL

    def test_noise_born_image_weight_kept_above_the_cut(self):
        # the same noise-born weight, with sigma's direction above the rank
        # cut: the polar factor forms no inverse root, so no rounding is
        # amplified and time reversal stays trace preserving
        enc, near = _admixed_system((2, 4, 2, None), 0, weight=3e-9)
        recovery, details = build_correction(enc, near, return_details=True)
        assert details.image_report.weights.min() < 2e-9
        assert not details.fell_back and details.strategy_used == "time_reversal"
        assert details.cofactor_tp_defect <= 1e-13
        assert recovery.tp_defect() <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 3),
        d_f=st.integers(1, 3),
        d_r=st.integers(0, 3),
        d_g=st.integers(1, 3),
        log_weight=st.floats(-14.0, -9.0),
        strategy=st.sampled_from(["time_reversal", "replace"]),
    )
    # ill-conditioned cofactor images on which an inverse root of sigma
    # amplified rounding to 1.07e-13 and 1.99e-13
    @example(seed=1, d_s=1, d_f=2, d_r=0, d_g=2, log_weight=-10.5, strategy="time_reversal")
    @example(seed=1, d_s=1, d_f=2, d_r=0, d_g=2, log_weight=-12.0, strategy="time_reversal")
    def test_recovery_is_trace_preserving_under_sub_tolerance_noise(
        self, seed, d_s, d_f, d_r, d_g, log_weight, strategy
    ):
        # an image cofactor of another size than the code's, so the sandwich
        # is no unitary, and noise up to 1e-9: unless it falls back, the
        # recovery is trace preserving to rounding
        if d_g == d_f:
            d_g = d_f % 3 + 1
        d_r = max(d_r, d_s * (d_g - d_f))
        enc, near = _admixed_system((d_s, d_f, d_r, d_g), seed, 10.0**log_weight)
        assume(is_preserved(enc, near)[0])
        recovery, details = build_correction(enc, near, strategy, return_details=True)
        if not details.fell_back:
            assert details.cofactor_tp_defect <= 1e-13
            assert recovery.tp_defect() <= 1e-13

    @pytest.mark.parametrize("seed", range(4))
    def test_strategies_agree_under_sub_tolerance_noise(self, seed):
        # with a 1e-10 admixture, time reversal is trace preserving and takes
        # the same verdicts as replacement
        enc, near = _admixed_system((2, 3, 1, None), seed, weight=1e-10)
        reports = [classify(enc, near, strategy=s) for s in ("time_reversal", "replace")]
        verdicts = [{k: v for k, v in r.as_dict().items() if k != "residuals"} for r in reports]
        assert verdicts[0] == verdicts[1]
        assert reports[0].preserved and reports[0].meta["fell_back"] is False

    @pytest.mark.parametrize("strategy", ["time_reversal", "replace"])
    def test_cofactor_weight_below_the_rank_cut(self, strategy, rng):
        # the 5e-10 weight is dropped as a zero; the kept weight must still
        # sum to one, or recovery and routing miss the TP gate by 5e-10
        enc, channel = random_preserved_system(2, 2, 1, rng)
        enc = enc.with_cofactor(np.diag([1.0 - 5e-10, 5e-10]))
        recovery = build_correction(enc, channel, strategy)
        assert recovery.tp_defect() <= tol.TP_TOL
        report = classify(enc, channel, strategy=strategy)
        assert report.preserved and report.noiseless_certificate
        # the minimal code keeps one cofactor slot and the image two
        assert report.unitarily_recoverable and not report.unitarily_correctable
        assert report.residuals["correction"] <= 1e-8


class TestProtectableCode:
    def test_repetition_image_is_protectable(self, repetition):
        enc, channel, _, sigma = repetition
        img, recovery, residual = derive_protectable_code(enc, channel, "replace")
        assert residual <= 1e-10
        np.testing.assert_allclose(
            np.sort(img.weights)[::-1], np.sort(np.diag(sigma).real)[::-1], atol=1e-10
        )

    def test_identity_channel(self, repetition):
        enc = repetition.encoding
        img, recovery, residual = derive_protectable_code(enc, KrausChannel.identity(8))
        assert residual <= 1e-10
        np.testing.assert_allclose(img.weights, [1.0], atol=1e-10)

    def test_random_preserved_systems(self, rng):
        for _ in range(5):
            enc, channel = random_preserved_system(2, 2, 1, rng)
            _, _, residual = derive_protectable_code(enc, channel)
            assert residual <= 1e-8


class TestUnitaryCorrectability:
    def test_repetition_only_recoverable(self, repetition):
        result = unitary_correctability(repetition.encoding, repetition.channel)
        assert not result.unitarily_correctable
        assert result.unitarily_recoverable
        assert result.code_support_dim == 2
        assert result.image_support_dim == 8
        assert result.residual <= 1e-9

    def test_unitary_noise_is_unitarily_correctable(self, repetition, rng):
        enc = repetition.encoding
        v = haar_unitary(8, rng)
        channel = KrausChannel.from_unitary(v)
        result = unitary_correctability(enc, channel)
        assert result.unitarily_correctable
        loop = compose(KrausChannel.from_unitary(result.unitary), channel)
        ok, res = is_fixed(enc, loop, 1e-8)
        assert ok, res

    def test_equal_rank_unitary_cofactor_channel(self, rng):
        # noise that rotates the cofactor unitarily keeps the image support
        # equal to the code support
        cof = KrausChannel.from_unitary(haar_unitary(3, rng))
        enc, channel = random_preserved_system(2, 3, 1, rng, cofactor_channel=cof)
        result = unitary_correctability(enc, channel)
        assert result.unitarily_correctable
        assert result.image_support_dim == result.code_support_dim

    def test_requires_preserved(self, rng):
        enc = random_isometric_encoding(2, 2, 0, rng)
        with pytest.raises(NotCorrectableError):
            unitary_correctability(enc, random_channel(4, rng, kraus_count=3))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dims", [(2, 2, 1), (2, 4, 2), (3, 4, 3)])
    def test_independent_of_kraus_representation(self, dims, seed):
        # mixing the Kraus operators by a unitary gives the same channel, so
        # the unitary, off the image support too, must not move; the two
        # recoveries' Kraus arrays are a gauge choice, their maps are not
        rng = np.random.default_rng(seed)
        enc, channel = random_preserved_system(*dims, rng)
        mix = haar_unitary(len(channel.kraus), rng)
        mixed = KrausChannel(list(np.einsum("jk,kab->jab", mix, np.stack(channel.kraus))))
        u = unitary_correctability(enc, channel).unitary
        assert np.abs(unitary_correctability(enc, mixed).unitary - u).max() <= 1e-12
        r = build_correction(enc, channel).superoperator().matrix
        r_mixed = build_correction(enc, mixed).superoperator().matrix
        assert np.abs(r_mixed - r).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        dims=st.sampled_from(
            [(2, 2, 1, None), (2, 3, 1, None), (2, 2, 2, 3), (2, 3, 2, 2), (3, 2, 3, 1)]
        ),
        seed=st.integers(0, 10_000),
        log_weight=st.floats(-14.0, -10.0),
    )
    def test_sub_tolerance_admixture_keeps_the_verdicts(self, dims, seed, log_weight):
        # the certificate scales with the noise weight, like the preservation
        # residual, so a preserved code keeps its unitary verdicts
        enc, near = _admixed_system(dims, seed, weight=10.0**log_weight)
        report = classify(enc, near)
        result = unitary_correctability(enc, near)
        assert report.preserved
        assert report.unitarily_recoverable and result.unitarily_recoverable
        fits = result.image_support_dim <= result.code_support_dim
        assert report.unitarily_correctable == result.unitarily_correctable == fits
        assert np.isfinite(list(report.residuals.values())).all()
        assert abs(report.residuals["unitary"] - report.residuals["preservation"]) <= 1e-12

    def test_admixture_on_a_small_image_weight_stays_preserved(self):
        # the image cofactor's smallest weight is 0.0019: an alignment that
        # divides by it amplifies the admixture past the tolerance
        enc, near = _admixed_system((2, 2, 2, 3), 120, weight=1e-10)
        report = classify(enc, near)
        assert report.preserved and report.unitarily_recoverable
        assert report.residuals["preservation"] <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 3),
        d_f=st.integers(1, 3),
        d_r=st.integers(0, 3),
        d_g=st.integers(1, 3),
        admixture=st.one_of(st.just(0.0), st.floats(-14.0, -10.0).map(lambda e: 10.0**e)),
    )
    def test_residual_is_the_certificate_of_the_paired_unitary(
        self, seed, d_s, d_f, d_r, d_g, admixture
    ):
        # oracle: V after channel after encoding against the encoding on the
        # target grid, which V changes by no trace norm from the image's
        # preservation certificate
        if d_s * d_g > d_s * d_f + d_r:
            d_g = d_f
        enc, channel = _admixed_system((d_s, d_f, d_r, d_g), seed, admixture)
        found, img = is_preserved(enc, channel)
        assume(found)
        result = unitary_correctability(enc, channel)
        assert result.residual == img.residual
        # target grid: the minimal code's cofactor slots, then the remainder
        dec, d_i = enc.minimalize().decomposition, img.decomposition.d_f
        comp = dec.basis[:, d_s * dec.d_f :]
        target = np.stack(
            [
                dec.block_columns[:, s * dec.d_f + a]
                if a < dec.d_f
                else comp[:, (a - dec.d_f) * d_s + s]
                for s in range(d_s)
                for a in range(d_i)
            ],
            axis=1,
        )
        basis = result.unitary @ img.decomposition.basis
        assert np.abs(basis[:, : d_s * d_i] - target).max() <= 1e-12
        d_p = enc.dim_physical
        target_dec = SubsystemDecomposition(d_s, d_i, d_p - d_s * d_i, basis)
        phi_target = IsometricEncoding(target_dec, img.cofactor).superoperator()
        rotated = KrausChannel.from_unitary(result.unitary) @ (channel @ enc)
        diff = Superoperator(d_s, d_p, rotated.matrix - phi_target.matrix)
        assert abs(trace_norm_certificate(diff) - result.residual) <= 1e-13
        report = classify(enc, channel)
        assert report.unitarily_correctable == result.unitarily_correctable
        assert report.unitarily_recoverable == result.unitarily_recoverable

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "dims", [(2, 2, 1, None), (2, 3, 0, None), (3, 4, 3, None), (2, 3, 2, 2), (3, 2, 3, 1)]
    )
    def test_kraus_level_ns_split_accepts_correctable_codes(self, dims, seed):
        # oracle: on an image no larger than the code, the noise-plus-unitary
        # loop must factor as identity on the logical factor, operator by operator
        d_s, d_f, d_r, d_g = dims
        enc, channel = random_preserved_system(d_s, d_f, d_r, np.random.default_rng(seed), d_g=d_g)
        result = unitary_correctability(enc, channel)
        assert result.unitarily_correctable
        loop = compose(KrausChannel.from_unitary(result.unitary), channel)
        ok, _, ns_res = check_ns_factorization(loop, enc.minimalize().decomposition)
        assert ok, ns_res


class TestNsFactorization:
    def test_protect_loop_factors_with_sigma_image(self, repetition):
        enc, channel, recovery, sigma = repetition
        loop = compose(channel, recovery)
        ok, cof, residual = check_ns_factorization(loop, enc.decomposition)
        assert ok and residual <= 1e-12
        ref = np.zeros((4, 4), dtype=complex)
        ref[0, 0] = 1.0
        np.testing.assert_allclose(cof(ref), sigma, atol=1e-12)

    def test_corrected_loop_on_minimal_code(self, repetition):
        enc, channel, recovery, _ = repetition
        loop = compose(recovery, channel)
        minimal = enc.minimalize()
        ok, cof, residual = check_ns_factorization(loop, minimal.decomposition)
        assert ok and residual <= 1e-12

    def test_corrected_loops_factor_for_random_full_rank_codes(self, rng):
        # a full-rank-cofactor code fixed by recovery-after-channel always
        # leaves the logical factor untouched on its own support
        for _ in range(5):
            enc, channel = random_preserved_system(2, 2, 1, rng)
            recovery = build_correction(enc, channel, "time_reversal")
            loop = compose(recovery, channel)
            ok, _, residual = check_ns_factorization(loop, enc.decomposition, 1e-7)
            assert ok, residual

    def test_swap_fails(self):
        d = 2
        swap = np.zeros((4, 4))
        for i in range(d):
            for j in range(d):
                swap[j * d + i, i * d + j] = 1.0
        dec = SubsystemDecomposition(2, 2, 0, np.eye(4))
        ok, cof, residual = check_ns_factorization(KrausChannel([swap]), dec)
        assert not ok and cof is None and residual > 0.5

    def test_logical_unitary_absorption(self, rng):
        v_s = haar_unitary(2, rng)
        b = random_channel(2, rng, kraus_count=2)
        ops = [np.kron(v_s, k) for k in b.kraus]
        channel = KrausChannel(ops)
        dec = SubsystemDecomposition(2, 2, 0, np.eye(4))
        ok_plain, _, _ = check_ns_factorization(channel, dec)
        assert not ok_plain
        ok_absorbed, cof, residual = check_ns_factorization(channel, dec, logical_unitary=v_s)
        assert ok_absorbed and residual <= 1e-12
        assert np.abs(cof.superoperator().matrix - b.superoperator().matrix).max() <= 1e-10

    def test_support_violation_raises(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        channel = KrausChannel([np.kron(x, np.eye(2))])  # hops out of a small block
        dec = SubsystemDecomposition(1, 2, 2, np.eye(4))
        with pytest.raises(ContractViolation):
            check_ns_factorization(channel, dec)


class TestEquivalenceHarness:
    def test_preserved_iff_correctable(self, rng):
        # constructive direction: preserved codes admit verified corrections;
        # contrapositive: rejected codes refuse correction
        for _ in range(6):
            enc, channel = random_preserved_system(2, 2, 1, rng)
            for strategy in ("time_reversal", "replace"):
                recovery = build_correction(enc, channel, strategy)
                ok, res = is_fixed(enc, compose(recovery, channel), 1e-8)
                assert ok, res
        for _ in range(6):
            enc = random_isometric_encoding(2, 2, 1, rng)
            channel = random_channel(5, rng, kraus_count=3)
            found, report = is_preserved(enc, channel)
            assert not found and report.residual > 1e-7
            with pytest.raises(NotCorrectableError):
                build_correction(enc, channel)


class TestClassify:
    def test_repetition_table(self, repetition):
        report = classify(repetition.encoding, repetition.channel)
        assert not report.fixed
        assert report.preserved
        assert report.noiseless_certificate
        assert report.correctable
        assert report.completely_correctable
        assert report.protectable
        assert not report.unitarily_correctable
        assert report.unitarily_recoverable

    def test_identity_channel_all_true(self, repetition):
        report = classify(repetition.encoding, KrausChannel.identity(8))
        assert all(
            [
                report.fixed,
                report.preserved,
                report.noiseless_certificate,
                report.correctable,
                report.completely_correctable,
                report.protectable,
                report.unitarily_correctable,
                report.unitarily_recoverable,
            ]
        )

    def test_unknown_strategy_on_a_code_the_channel_does_not_preserve(
        self, repetition, example2_channel
    ):
        assert not is_preserved(repetition.encoding, example2_channel)[0]
        with pytest.raises(ContractViolation, match="unknown strategy 'bogus'"):
            classify(repetition.encoding, example2_channel, strategy="bogus")

    def test_mixture_not_preserved(self, repetition):
        channel = make_example2_channel(0.4, 0.05)
        report = classify(repetition.encoding, channel, tol_=1e-6)
        assert not report.preserved
        assert not report.correctable
        assert not report.protectable

    @pytest.mark.parametrize("case", ["repetition", "identity", "mixture", "random"])
    def test_logical_implications(self, case, repetition, rng):
        enc = repetition.encoding
        channel = {
            "repetition": repetition.channel,
            "identity": KrausChannel.identity(8),
            "mixture": make_example2_channel(0.4, 0.05),
            "random": random_channel(8, rng, kraus_count=3),
        }[case]
        r = classify(enc, channel, tol_=1e-6)
        if r.fixed:
            assert r.preserved
        assert r.preserved == r.correctable == r.completely_correctable
        if r.unitarily_correctable:
            assert r.correctable


def _count_detections(monkeypatch) -> list:
    calls = []
    real = analysis.detect_structure

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "detect_structure", counted)
    return calls


def _record_builds(monkeypatch):
    """Lists of the maps whose superoperator is built and of the compose
    calls made through any package module that binds ``compose``."""
    built, composed = [], []
    real_kraus, real_enc = KrausChannel.superoperator, IsometricEncoding.superoperator
    monkeypatch.setattr(
        KrausChannel, "superoperator", lambda self: built.append(self) or real_kraus(self)
    )
    monkeypatch.setattr(
        IsometricEncoding, "superoperator", lambda self: built.append(self) or real_enc(self)
    )
    real_compose = channels.compose
    for module in (channels, analysis, robustness, cli):
        if hasattr(module, "compose"):
            monkeypatch.setattr(
                module, "compose", lambda *ops: composed.append(ops) or real_compose(*ops)
            )
    return built, composed


class TestAnalysisPass:
    def test_preserved_classify_detects_the_image_once(self, monkeypatch, repetition):
        # the image detection is the only one: the corrected loop fixes the
        # code's span, so the code is its own projection, and the unitary
        # verdicts read the image certificate without building the unitary
        calls = _count_detections(monkeypatch)
        paired = []
        real = analysis._paired_unitary
        monkeypatch.setattr(
            analysis, "_paired_unitary", lambda *a: paired.append(1) or real(*a)
        )
        report = classify(repetition.encoding, repetition.channel)
        assert report.preserved and report.meta["projector"] == "fixed"
        assert report.unitarily_recoverable
        assert len(calls) == 1
        assert paired == []

    def test_preserved_classify_builds_each_superoperator_once(self, monkeypatch, rng):
        # S_phi once; the channel and the recovery act on its images, and
        # the loop fixes the code, so no corrected loop is composed and no
        # Kraus superoperator is built
        enc, channel = random_preserved_system(2, 3, 1, rng)
        built, composed = _record_builds(monkeypatch)
        report = classify(enc, channel)
        assert report.preserved and report.meta["projector"] == "fixed"
        assert sum(x is enc for x in built) == 1
        assert composed == []
        assert not any(isinstance(x, KrausChannel) for x in built)

    def test_near_miss_classify_detects_once(self, monkeypatch, rng):
        enc, channel = random_preserved_system(2, 2, 1, rng)
        noise = random_channel(enc.dim_physical, rng)
        near = convex_mix([1.0 - 1e-4, 1e-4], [channel, noise])
        calls = _count_detections(monkeypatch)
        report = classify(enc, near)
        assert not report.preserved
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "case", ["repetition-time_reversal", "repetition-replace", "random-time_reversal"]
    )
    def test_residuals_match_public_wrappers(self, case, repetition, rng):
        system, strategy = case.split("-")
        if system == "repetition":
            enc, channel = repetition.encoding, repetition.channel
        else:
            enc, channel = random_preserved_system(2, 3, 1, rng)
        report = classify(enc, channel, strategy=strategy)
        recovery = build_correction(enc, channel, strategy)
        expected = {
            "fixed": is_fixed(enc, channel)[1],
            "preservation": is_preserved(enc, channel)[1].residual,
            "protection": derive_protectable_code(enc, channel, strategy)[2],
            "unitary": unitary_correctability(enc, channel).residual,
        }
        assert {k: report.residuals[k] for k in expected} == expected
        # the correction residual is the chain R @ (E @ phi) against phi, and
        # within rounding of the dense chain's and of the composed loop's
        s_phi = enc.superoperator()

        def moved(chain):
            diff = Superoperator(s_phi.dim_in, s_phi.dim_out, chain.matrix - s_phi.matrix)
            return channels.trace_norm_certificate(diff)

        assert report.residuals["correction"] == moved(recovery @ (channel @ s_phi))
        dense = recovery.superoperator() @ (channel.superoperator() @ s_phi)
        assert abs(report.residuals["correction"] - moved(dense)) <= 1e-14
        loop = compose(recovery, channel)
        assert abs(report.residuals["correction"] - is_fixed(enc, loop)[1]) <= 1e-12
        cert = noiseless_certificate(enc, loop)
        assert abs(report.residuals["noiseless_fixed_code"] - cert.fixed_residual) <= 1e-12


def _count_kraus_applications(monkeypatch) -> list:
    """One entry per operand a Kraus channel is applied to: each ``apply``
    call, and each of the map's images in ``channel @ map``."""
    calls = []
    real_apply, real_matmul = KrausChannel.apply, KrausChannel.__matmul__

    def counted_apply(self, rho):
        calls.append(1)
        return real_apply(self, rho)

    def counted_matmul(self, other):
        calls.extend([1] * other.superoperator().dim_in**2)
        return real_matmul(self, other)

    monkeypatch.setattr(KrausChannel, "apply", counted_apply)
    monkeypatch.setattr(KrausChannel, "__matmul__", counted_matmul)
    return calls


class TestImageLinks:
    """Analyses compose a channel with a map through the map's images
    (``channel @ map``): each link applies the Kraus operators once per
    logical matrix unit, whatever d_P, and no Kraus superoperator is built
    unless the full fixed-point projector needs one."""

    # links of the image chain each analysis forms, d_S**2 applications each
    LINKS = {classify: 3, build_correction: 1, derive_protectable_code: 3, unitary_correctability: 1}

    @pytest.fixture(params=["repetition", "random", "wider_image"])
    def system(self, request, repetition, rng):
        if request.param == "repetition":
            return repetition.encoding, repetition.channel
        if request.param == "random":
            return random_preserved_system(2, 3, 1, rng)
        # image support 6 > code support 4: unitary_correctability's extended branch
        return random_preserved_system(2, 2, 2, rng, d_g=3)

    @pytest.mark.parametrize("analysis_fn", list(LINKS))
    def test_preserved_code_applies_kraus_once_per_image_and_link(
        self, monkeypatch, system, analysis_fn
    ):
        enc, channel = system
        calls = _count_kraus_applications(monkeypatch)
        built, _ = _record_builds(monkeypatch)
        result = analysis_fn(enc, channel)
        if analysis_fn is classify:
            assert result.meta["projector"] == "fixed"
        assert len(calls) == self.LINKS[analysis_fn] * enc.dim_logical**2
        assert not any(isinstance(x, KrausChannel) for x in built)

    def test_certificate_of_a_corrected_loop_builds_no_kraus_superoperator(
        self, monkeypatch, system
    ):
        enc, channel = system
        loop = compose(build_correction(enc, channel), channel)
        built, _ = _record_builds(monkeypatch)
        cert = noiseless_certificate(enc, loop)
        assert cert.accepted and cert.projector == "fixed"
        assert not any(isinstance(x, KrausChannel) for x in built)

    def test_near_miss_classify_applies_kraus_once_per_image(self, monkeypatch, rng):
        enc, channel = random_preserved_system(2, 2, 1, rng)
        near = convex_mix([1.0 - 1e-4, 1e-4], [channel, random_channel(enc.dim_physical, rng)])
        calls = _count_kraus_applications(monkeypatch)
        built, _ = _record_builds(monkeypatch)
        assert not classify(enc, near).preserved
        assert len(calls) == enc.dim_logical**2
        assert not any(isinstance(x, KrausChannel) for x in built)


def _listed_reset(tau, out_cols, in_cols):
    """Rank-one Kraus operators preparing ``tau`` (on ``out_cols``) from each
    ``in_cols`` vector, listed one by one: a reset as the recovery's Kraus
    list spells it out."""
    w, v = eigh_clamped(tau)
    keep = above_rank_cut(w)
    if not keep.all():
        w = w / w[keep].sum()
    return [
        np.sqrt(w[m]) * np.outer(out_cols @ v[:, m], c.conj())
        for m in np.flatnonzero(keep)
        for c in in_cols.T
    ]


def _listed_recovery(enc, channel, strategy):
    """The recovery's Kraus list built operator by operator: the block
    operators (the listed replacement reset when the recovery replaces),
    then the listed reset of the image complement."""
    _, details = build_correction(enc, channel, strategy, return_details=True)
    img = details.image_report
    dec, d_g = enc.decomposition, img.decomposition.d_f
    if details.strategy_used == "replace":
        ops_gf = _listed_reset(enc.cofactor, np.eye(dec.d_f), np.eye(d_g))
    else:
        spectrum = state_spectrum(enc.cofactor)
        ops_gf = analysis._cofactor_recovery(enc, channel, img, strategy, spectrum)[0]
    u1, w1 = dec.block_columns, img.decomposition.block_columns
    blocks = [u1 @ np.kron(np.eye(dec.d_s), k) @ w1.conj().T for k in ops_gf]
    t_cols = img.decomposition.basis[:, dec.d_s * d_g :]
    return blocks + _listed_reset(enc.cofactor, u1[:, : dec.d_f], t_cols)


def _record_expansions(monkeypatch) -> list:
    """One entry per expansion of a reset term into Kraus operators."""
    calls = []
    real = channels._Reset.kraus

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(channels._Reset, "kraus", counted)
    return calls


class TestStructuredRecovery:
    """A built recovery holds its block operators and one reset term of the
    image complement; ``apply``, ``@`` and ``tp_defect`` read that form, and
    the Kraus list is expanded, in the listed order, only when read."""

    @staticmethod
    def _assert_matches_its_list(recovery, channel, enc, rng):
        d = recovery.dim_in
        before = recovery.apply(np.eye(d) / d)
        listed = KrausChannel(recovery.kraus)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.abs(recovery.apply(x) - listed.apply(x)).max() <= 1e-14
        # the kernels read the structured form after the expansion too
        assert np.array_equal(recovery.apply(np.eye(d) / d), before)
        composite = channel @ enc.superoperator()
        other = Superoperator(d, d, rng.standard_normal((d * d, d * d)))
        for s in (composite, other):
            assert np.abs((recovery @ s).matrix - (listed @ s).matrix).max() <= 1e-14 * max(
                1.0, np.abs(s.matrix).max()
            )
        assert abs(recovery.tp_defect() - listed.tp_defect()) <= 1e-14
        assert (
            np.abs(recovery.superoperator().matrix - listed.superoperator().matrix).max() <= 1e-14
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 3),
        d_f=st.integers(1, 3),
        d_r=st.integers(0, 3),
        d_g=st.integers(1, 3),
        strategy=st.sampled_from(["time_reversal", "replace"]),
    )
    def test_kernels_match_the_expanded_list(self, seed, d_s, d_f, d_r, d_g, strategy):
        assume(d_g != d_f and d_s * d_g <= d_s * d_f + d_r)
        rng = np.random.default_rng(seed)
        enc, channel = random_preserved_system(d_s, d_f, d_r, rng, d_g=d_g)
        recovery = build_correction(enc, channel, strategy)
        self._assert_matches_its_list(recovery, channel, enc, rng)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_fallback_recovery_matches_its_list(self, seed, rng):
        enc, near = _admixed_system((2, 4, 2, None), seed, weight=3e-9)
        recovery, details = build_correction(enc, near, return_details=True)
        assert details.fell_back
        listed = _listed_recovery(enc, near, "time_reversal")
        assert np.array_equal(np.stack(recovery.kraus), np.stack(listed))
        self._assert_matches_its_list(recovery, near, enc, rng)

    @pytest.mark.parametrize(
        "dims, d_g",
        [((2, 2, 1), None), ((2, 4, 2), None), ((3, 4, 3), None), ((2, 2, 2), 3), ((2, 3, 2), 2)],
    )
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("strategy", ["time_reversal", "replace"])
    def test_expansion_is_the_listed_recovery(self, dims, d_g, seed, strategy):
        enc, channel = random_preserved_system(*dims, np.random.default_rng(seed), d_g=d_g)
        recovery = build_correction(enc, channel, strategy)
        listed = _listed_recovery(enc, channel, strategy)
        assert np.array_equal(np.stack(recovery.kraus), np.stack(listed))
        # the file holds the leading block operators and the reset, which
        # loads to the listed channel
        written = channel_to_dict(recovery)
        blocks = serialize.matrix_from_json(written["kraus"], "kraus", ndim=3)
        full = serialize.matrix_from_json(
            channel_to_dict(KrausChannel(listed))["kraus"], "kraus", ndim=3
        )
        assert np.array_equal(blocks, full[: len(blocks)])
        assert recovery.kraus_count == len(listed)
        loaded = serialize.channel_from_dict(written)
        assert loaded.kraus_count == len(listed)
        assert (
            np.abs(loaded.superoperator().matrix - KrausChannel(listed).superoperator().matrix).max()
            <= 1e-14
        )

    def test_preserved_classify_at_d64_never_expands(self, monkeypatch):
        enc, channel = random_preserved_system(2, 24, 16, np.random.default_rng(0))
        calls = _record_expansions(monkeypatch)
        report = classify(enc, channel)
        assert report.noiseless_certificate and report.meta["projector"] == "fixed"
        assert calls == []

    @pytest.mark.parametrize("strategy", ["time_reversal", "replace"])
    def test_full_path_classify_never_expands(self, monkeypatch, strategy):
        # the full projector's loop is the recovery's superoperator, with the
        # reset term as one rank-one update, after the channel's
        enc, near = _admixed_system((4, 4, 4, None), seed=0, weight=1e-10)
        calls = _record_expansions(monkeypatch)
        report = classify(enc, near, strategy=strategy)
        assert report.preserved and report.meta["projector"] == "full"
        assert calls == []

    def test_perturbed_correctability_never_expands(self, monkeypatch, rng):
        enc, channel = random_preserved_system(4, 4, 4, rng)
        recovery = build_correction(enc, channel)
        zero = Superoperator(4, enc.dim_physical, np.zeros((enc.dim_physical**2, 16)))
        calls = _record_expansions(monkeypatch)
        ok, max_err, _ = perturbed_encoding_correctability(
            PerturbedEncoding(enc, zero, 0.0), channel, recovery
        )
        assert ok and max_err <= 1e-12
        assert calls == []

    @pytest.mark.parametrize("dims, count", [((4, 4, 4), 18), ((2, 16, 8), 130)])
    def test_correct_and_check_channel_never_expand(
        self, monkeypatch, tmp_path, capsys, dims, count
    ):
        # the recovery file holds the reset term, and both commands count
        # its operators as rank(rho_ref) * (complement columns)
        enc, channel = random_preserved_system(*dims, np.random.default_rng(0))
        paths = {name: str(tmp_path / f"{name}.json") for name in ("channel", "code", "out")}
        serialize.dump_json(serialize.channel_to_dict(channel), paths["channel"])
        serialize.dump_json(serialize.encoding_to_dict(enc), paths["code"])
        calls = _record_expansions(monkeypatch)
        argv = ["correct", "--channel", paths["channel"], "--code", paths["code"]]
        assert cli.main(argv + ["--out", paths["out"]]) == 0
        verification = json.loads(capsys.readouterr().out)
        assert verification["fixed_residual"] <= 1e-12 and verification["kraus_count"] == count
        assert "reset" in serialize.load_json(paths["out"])
        report = str(tmp_path / "check.json")
        assert cli.main(["check-channel", "--channel", paths["out"], "--out", report]) == 0
        assert serialize.load_json(report)["results"]["kraus_count"] == count
        assert calls == []

    def test_simulation_never_expands(self, monkeypatch, rng):
        enc, channel = random_preserved_system(4, 4, 4, rng)
        recovery = build_correction(enc, channel)
        calls = _record_expansions(monkeypatch)
        trace = simulate_iterated(channel, recovery, enc.encode(random_density(4, rng)), 5)
        assert trace.errors.max() <= 1e-12
        assert calls == []
        # the list is expanded once, on first read, and kept
        assert len(recovery.kraus) == 18 and recovery.kraus is recovery.kraus
        assert calls == [1]


class TestToleranceArguments:
    """A tolerance that is not positive and finite is refused at every public
    entry point, naming the parameter: an infinite one accepts every
    residual and NaN rejects every one."""

    BAD = [float("inf"), float("nan"), 0.0, -1e-8]

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize(
        "call",
        [
            lambda enc, ch, t: classify(enc, ch, tol_=t),
            lambda enc, ch, t: is_fixed(enc, ch, t),
            lambda enc, ch, t: is_preserved(enc, ch, t),
            lambda enc, ch, t: noiseless_certificate(enc, ch, t),
            lambda enc, ch, t: build_correction(enc, ch, tol_=t),
            lambda enc, ch, t: derive_protectable_code(enc, ch, tol_=t),
            lambda enc, ch, t: unitary_correctability(enc, ch, t),
            lambda enc, ch, t: check_ns_factorization(ch, enc.decomposition, t),
        ],
    )
    def test_tol_is_refused(self, call, bad):
        enc, channel = random_preserved_system(2, 2, 1, np.random.default_rng(0))
        with pytest.raises(ContractViolation, match="^tol_ must be positive and finite"):
            call(enc, channel, bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_detection_tol_is_refused(self, bad):
        enc, channel = random_preserved_system(2, 2, 1, np.random.default_rng(0))
        with pytest.raises(ContractViolation, match="^detection_tol must be positive and finite"):
            detect_structure(channel @ enc.superoperator(), detection_tol=bad)

    def test_the_check_accepts_positive_finite_values(self):
        assert tol.require_tolerance(1e-300, "tol_") == 1e-300
        assert tol.require_tolerance(1e300, "tol_") == 1e300

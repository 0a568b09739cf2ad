import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tniso.channels import Superoperator, compose, vec
from tniso.codes import (
    IsometricEncoding,
    ObservableEncoding,
    PerturbedEncoding,
    SubsystemDecomposition,
    bit_flip_channel,
    majority_basis_unitary,
    make_example2_channel,
    make_repetition_example,
    verify_faithfulness,
)
from tniso.errors import ContractViolation
from tniso.opcore import trace_norm
from tniso.sampling import haar_unitary, random_density, random_isometric_encoding
from tniso import serialize

from conftest import PAULI_Z


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


class TestEncodeDecode:
    def test_trivial_encoding_is_identity(self, rng):
        enc = IsometricEncoding.trivial(3)
        rho = random_density(3, rng)
        np.testing.assert_allclose(enc.encode(rho), rho, atol=1e-15)
        np.testing.assert_allclose(enc.decode(rho), rho, atol=1e-15)

    def test_repetition_ground_state(self, repetition):
        enc = repetition.encoding
        out = enc.encode(np.diag([1.0, 0.0]).astype(complex))
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 1.0  # |000><000|
        np.testing.assert_allclose(out, expected, atol=1e-15)
        out1 = enc.encode(np.diag([0.0, 1.0]).astype(complex))
        assert out1[7, 7] == pytest.approx(1.0)  # |111><111|

    def test_plain_basis_matches_kron_oracle(self):
        # oracle: direct Kronecker product in the trivial basis
        dec = SubsystemDecomposition(2, 2, 1, np.eye(5))
        tau = np.diag([0.7, 0.3])
        enc = IsometricEncoding(dec, tau)
        rho = np.eye(2, dtype=complex) / 2
        expected = np.zeros((5, 5), dtype=complex)
        expected[:4, :4] = np.kron(rho, tau)
        np.testing.assert_allclose(enc.encode(rho), expected, atol=1e-15)
        assert np.allclose(np.diag(enc.encode(rho)), [0.35, 0.15, 0.35, 0.15, 0.0])

    def test_decode_left_inverse(self, rng):
        for _ in range(10):
            dec = SubsystemDecomposition(2, 3, 1, haar_unitary(7, rng))
            enc = IsometricEncoding(dec, random_density(3, rng))
            z = random_hermitian(2, rng)
            np.testing.assert_allclose(enc.decode(enc.encode(z)), z, atol=1e-12)

    def test_decode_robust_to_cofactor(self, rng):
        dec = SubsystemDecomposition(2, 3, 0, haar_unitary(6, rng))
        enc = IsometricEncoding(dec, random_density(3, rng))
        rho = random_density(2, rng)
        for _ in range(5):
            other = enc.with_cofactor(random_density(3, rng))
            np.testing.assert_allclose(enc.decode(other.encode(rho)), rho, atol=1e-12)

    def test_decode_kills_remainder(self, rng):
        dec = SubsystemDecomposition(2, 1, 2, haar_unitary(4, rng))
        enc = IsometricEncoding(dec, np.ones((1, 1)))
        y = np.zeros((4, 4), dtype=complex)
        y[2:, 2:] = random_hermitian(2, rng)
        phys = dec.basis @ y @ dec.basis.conj().T
        np.testing.assert_allclose(enc.decode(phys), np.zeros((2, 2)), atol=1e-12)

    def test_dimension_mismatch(self, repetition):
        with pytest.raises(ContractViolation):
            repetition.encoding.encode(np.eye(3))


class TestIsometryProperties:
    def test_distinguishability_preserved(self, rng):
        dec = SubsystemDecomposition(2, 2, 1, haar_unitary(5, rng))
        enc = IsometricEncoding(dec, random_density(2, rng))
        for _ in range(100):
            r1, r2 = random_density(2, rng), random_density(2, rng)
            p = rng.uniform()
            lhs = trace_norm(p * enc.encode(r1) - (1 - p) * enc.encode(r2))
            rhs = trace_norm(p * r1 - (1 - p) * r2)
            assert abs(lhs - rhs) <= 1e-10

    def test_hermitian_extension_is_isometric(self, rng):
        dec = SubsystemDecomposition(3, 2, 2, haar_unitary(8, rng))
        enc = IsometricEncoding(dec, random_density(2, rng))
        for _ in range(50):
            z = random_hermitian(3, rng)
            assert abs(trace_norm(enc.encode(z)) - trace_norm(z)) <= 1e-10

    def test_majority_unitary_is_permutation(self):
        u = majority_basis_unitary()
        assert np.all((u == 0.0) | (u == 1.0))
        assert np.all(u.sum(axis=0) == 1.0)
        assert np.all(u.sum(axis=1) == 1.0)

    def test_code_projector(self, repetition):
        p = repetition.encoding.code_projector()
        expected = np.zeros((8, 8))
        expected[0, 0] = expected[7, 7] = 1.0  # span{|000>, |111>}
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_weights_and_minimality(self, rng):
        dec = SubsystemDecomposition(2, 3, 0, haar_unitary(6, rng))
        enc = IsometricEncoding(dec, np.diag([0.6, 0.4, 0.0]))
        assert not enc.is_minimal
        np.testing.assert_allclose(enc.weights, [0.6, 0.4, 0.0], atol=1e-12)
        minimal = enc.minimalize()
        assert minimal.decomposition.d_f == 2
        assert minimal.decomposition.d_r == 2
        assert minimal.is_minimal
        rho = random_density(2, rng)
        np.testing.assert_allclose(minimal.encode(rho), enc.encode(rho), atol=1e-12)

    def test_minimalize_rescales_weights_below_the_rank_cut(self, rng):
        # a 5e-10 weight counts as zero, so the kept weight is rescaled to a
        # unit-trace cofactor instead of failing the density check
        dec = SubsystemDecomposition(2, 2, 1, haar_unitary(5, rng))
        enc = IsometricEncoding(dec, np.diag([1.0 - 5e-10, 5e-10]))
        minimal = enc.minimalize()
        assert minimal.decomposition.d_f == 1 and minimal.decomposition.d_r == 3
        np.testing.assert_allclose(minimal.cofactor, [[1.0]], rtol=0, atol=1e-15)


class TestObservableEncoding:
    def test_identity_maps_to_identity(self, repetition):
        obs = ObservableEncoding(repetition.encoding.decomposition)
        np.testing.assert_allclose(
            obs.encode_observable(np.eye(2)), np.eye(8), atol=1e-14
        )

    def test_majority_parity_observable(self, repetition):
        # oracle: an independent majority vote over the computational labels
        obs = ObservableEncoding(repetition.encoding.decomposition)
        out = obs.encode_observable(PAULI_Z)
        signs = []
        for idx in range(8):
            bits = [(idx >> k) & 1 for k in (2, 1, 0)]
            signs.append(-1.0 if sum(bits) >= 2 else 1.0)
        np.testing.assert_allclose(out, np.diag(signs), atol=1e-14)

    def test_remainder_block(self, rng):
        dec = SubsystemDecomposition(2, 1, 2, np.eye(4))
        x_r = random_hermitian(2, rng)
        obs = ObservableEncoding(dec, x_r)
        out = obs.encode_observable(np.zeros((2, 2)))
        np.testing.assert_allclose(out[2:, 2:], x_r, atol=1e-14)
        np.testing.assert_allclose(out[:2, :2], np.zeros((2, 2)), atol=1e-14)


class TestFaithfulness:
    def test_trivial_encoding_all_zero(self):
        enc = IsometricEncoding.trivial(2)
        obs = ObservableEncoding(enc.decomposition)
        report = verify_faithfulness(enc, obs, samples=20, seed=1)
        assert report.max_residual <= 1e-12

    def test_repetition_encoding_faithful(self, repetition):
        obs = ObservableEncoding(repetition.encoding.decomposition)
        report = verify_faithfulness(repetition.encoding, obs, samples=50, seed=3)
        assert report.statics <= 1e-9
        assert report.unitary_dynamics <= 1e-9
        assert report.measurement_dynamics <= 1e-9

    def test_adversarial_observables_fail_statics(self, repetition):
        enc = repetition.encoding

        class SwappedRoles:
            # places the logical observable on the cofactor factor instead
            decomposition = enc.decomposition

            def encode_observable(self, a):
                block = np.zeros((4, 4), dtype=complex)
                block[:2, :2] = a
                big = np.kron(np.eye(2), block)
                u = enc.decomposition.basis
                return u @ big @ u.conj().T

        report = verify_faithfulness(enc, SwappedRoles(), samples=50, seed=3)
        assert report.statics > 0.1

    @pytest.mark.parametrize(
        "budget,field", [({"samples": 0}, "samples"), ({"samples": -3}, "samples"), ({"seed": -1}, "seed")]
    )
    def test_rejects_bad_sampling_budget(self, repetition, budget, field):
        # with no sample every residual would read 0, faithful or not
        enc = repetition.encoding
        with pytest.raises(ContractViolation, match=field):
            verify_faithfulness(enc, ObservableEncoding(enc.decomposition), **budget)


class TestExampleGenerators:
    def test_sigma_spectrum(self, repetition):
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(repetition.sigma))[::-1],
            [0.6, 2.0 / 15.0, 2.0 / 15.0, 2.0 / 15.0],
            atol=1e-15,
        )

    def test_channel_restricted_to_code_gives_sigma(self, repetition):
        enc, channel, _, sigma = repetition
        for rho in (np.diag([1.0, 0.0]), np.diag([0.3, 0.7]), 0.5 * np.ones((2, 2))):
            out = channel(enc.encode(rho.astype(complex)))
            expected = enc.decomposition.embed(np.kron(rho, sigma))
            np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_p_zero_is_identity(self):
        system = make_repetition_example(0.0)
        s = system.channel.superoperator().matrix
        np.testing.assert_allclose(s, np.eye(64), atol=1e-15)

    def test_p_range_validated(self):
        with pytest.raises(ContractViolation):
            make_repetition_example(0.5)
        with pytest.raises(ContractViolation):
            bit_flip_channel(-0.1)

    def test_example2_reduces_to_bit_flip(self):
        mixed = make_example2_channel(0.4, 0.0)
        pure = bit_flip_channel(0.4)
        assert np.abs(mixed.superoperator().matrix - pure.superoperator().matrix).max() <= 1e-15

    def test_example2_pure_dephasing_fixes_diagonal_codes(self, repetition):
        channel = make_example2_channel(0.4, 1.0)
        loop = compose(repetition.recovery, channel)
        for rho in (np.diag([1.0, 0.0]), np.diag([0.25, 0.75])):
            x = repetition.encoding.encode(rho.astype(complex))
            np.testing.assert_allclose(loop(x), x, atol=1e-14)

    def test_epsilon_range_validated(self):
        with pytest.raises(ContractViolation):
            make_example2_channel(0.4, 1.5)


class TestPerturbedEncoding:
    def test_valid_constant_perturbation(self, repetition):
        from tniso.channels import vec

        enc = repetition.encoding
        g = np.zeros((8, 8), dtype=complex)
        g[2, 2], g[3, 3] = 0.01, -0.01
        delta = Superoperator(2, 8, np.outer(vec(g), vec(np.eye(2)).conj()))
        pert = PerturbedEncoding(enc, delta, 0.02)
        rho = np.diag([0.5, 0.5]).astype(complex)
        out = pert.apply(rho)
        assert complex(np.trace(out)).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_trace_leaking_perturbation_rejected(self, repetition):
        from tniso.channels import vec

        g = np.zeros((8, 8), dtype=complex)
        g[0, 0] = 0.01  # not traceless
        delta = Superoperator(2, 8, np.outer(vec(g), vec(np.eye(2)).conj()))
        with pytest.raises(ContractViolation, match="Hermiticity-preserving and traceless"):
            PerturbedEncoding(repetition.encoding, delta, 0.02)

    def test_anti_hermitian_perturbation_rejected(self, repetition):
        g = np.zeros((8, 8), dtype=complex)
        g[0, 1], g[1, 0] = 1e-6, -1e-6  # traceless, but not Hermitian
        delta = Superoperator(2, 8, np.outer(vec(g), vec(np.eye(2)).conj()))
        with pytest.raises(ContractViolation, match="Hermiticity-preserving and traceless"):
            PerturbedEncoding(repetition.encoding, delta, 0.02)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -0.01])
    def test_epsilon_must_be_finite_and_nonnegative(self, repetition, epsilon):
        # nan compares false with every bound, so a bare `epsilon < 0` let it in
        delta = Superoperator(2, 8, np.zeros((64, 4)))
        with pytest.raises(ContractViolation, match="epsilon"):
            PerturbedEncoding(repetition.encoding, delta, epsilon)


class TestCodeJson:
    def test_roundtrip(self, rng):
        dec = SubsystemDecomposition(2, 2, 1, haar_unitary(5, rng))
        enc = IsometricEncoding(dec, random_density(2, rng))
        back = serialize.encoding_from_dict(serialize.encoding_to_dict(enc))
        assert np.abs(back.decomposition.basis - dec.basis).max() <= 1e-15
        assert np.abs(back.cofactor - enc.cofactor).max() <= 1e-15
        assert (back.decomposition.d_s, back.decomposition.d_f, back.decomposition.d_r) == (2, 2, 1)

    def test_malformed(self):
        with pytest.raises(ContractViolation):
            serialize.encoding_from_dict({"d_S": 2, "d_F": 2})


class TestDecompositionValidation:
    def test_non_unitary_basis_rejected(self):
        with pytest.raises(ContractViolation):
            SubsystemDecomposition(2, 2, 0, np.ones((4, 4)))

    def test_dimension_consistency(self):
        with pytest.raises(ContractViolation):
            SubsystemDecomposition(2, 2, 1, np.eye(4))


class TestEncodingSuperoperator:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d_s=st.integers(1, 3),
        d_f=st.integers(1, 3),
        d_r=st.integers(0, 2),
        full_rank=st.booleans(),
    )
    def test_matches_matrix_unit_probe(self, seed, d_s, d_f, d_r, full_rank):
        enc = random_isometric_encoding(d_s, d_f, d_r, np.random.default_rng(seed), full_rank)
        eye = np.eye(d_s)
        # reference: column a + d_s*b is the encoded matrix unit E_ab
        probe = np.stack(
            [vec(enc.encode(np.outer(eye[a], eye[b]))) for b in range(d_s) for a in range(d_s)],
            axis=1,
        )
        s = enc.superoperator()
        assert (s.dim_in, s.dim_out) == (d_s, enc.dim_physical)
        assert np.abs(s.matrix - probe).max() <= 1e-14

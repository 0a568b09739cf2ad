import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tniso.errors import ContractViolation, NumericError
from tniso.opcore import (
    DensityOperator,
    _hermitian_trace_norms,
    _trace_norms,
    sqrt_psd,
    support_projector,
    trace_norm,
)

from conftest import (
    PAULI_X,
    PAULI_Z,
    HermitianOperator,
    hermitian_basis,
    pinv_psd,
    positive_negative_parts,
)


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


class TestTraceNorm:
    def test_pauli_x(self):
        assert trace_norm(PAULI_X) == pytest.approx(2.0, abs=1e-12)

    def test_diagonal(self):
        assert trace_norm(np.diag([0.3, -0.7])) == pytest.approx(1.0, abs=1e-12)

    def test_zero_only_for_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0
        assert trace_norm(1e-3 * np.eye(3)) > 0

    def test_accepts_wrappers(self):
        op = HermitianOperator(np.diag([1.0, -1.0]))
        assert trace_norm(op) == pytest.approx(2.0)

    def test_nan_rejected(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericError):
            trace_norm(bad)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        dim=st.integers(2, 6),
        scale=st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_norm_axioms(self, seed, dim, scale):
        rng = np.random.default_rng(seed)
        a = random_hermitian(dim, rng)
        b = random_hermitian(dim, rng)
        assert trace_norm(scale * a) == pytest.approx(abs(scale) * trace_norm(a), abs=1e-10)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        count=st.integers(1, 9),
        layout=st.sampled_from(["C", "F", "transposed"]),
    )
    def test_stack_equals_one_at_a_time(self, seed, rows, cols, count, layout):
        # the batched kernel gives each matrix's trace norm bit for bit,
        # whatever the memory layout of the stack
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((count, rows, cols)) + 1j * rng.standard_normal(
            (count, rows, cols)
        )
        if layout == "F":
            stack = np.asfortranarray(stack)
        elif layout == "transposed":
            stack = stack.transpose(0, 2, 1)
        norms = _trace_norms(stack)
        assert norms.shape == (count,)
        assert np.array_equal(norms, [trace_norm(m) for m in stack])

    def test_stack_svd_failure_is_numeric(self):
        with pytest.raises(NumericError, match="SVD failed"):
            _trace_norms(np.full((2, 3, 3), np.nan, dtype=complex))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(1, 12),
        count=st.integers(1, 9),
        skew=st.sampled_from([0.0, 1e-15, 1e-9, 1e-3, 1.0]),
    )
    def test_hermitian_stack_within_its_bound(self, seed, d, count, skew):
        # exactly Hermitian matrices (skew 0, no defect) give the SVD's trace
        # norms to 1e-13; an anti-Hermitian part moves them by at most
        # sqrt(d) ||X - X^dag||_F more
        rng = np.random.default_rng(seed)
        herm = np.stack([random_hermitian(d, rng) for _ in range(count)])
        anti = 1j * np.stack([random_hermitian(d, rng) for _ in range(count)])
        stack = herm + skew * anti
        norms = _hermitian_trace_norms(stack)
        assert norms.shape == (count,)
        exact = _trace_norms(stack)
        defect = np.linalg.norm(stack - stack.conj().transpose(0, 2, 1), axis=(1, 2))
        assert (defect == 0.0).all() if skew == 0.0 else (defect > 0.0).all()
        assert (np.abs(norms - exact) <= np.sqrt(d) * defect + 1e-13 * exact).all()

    def test_hermitian_stack_failure_is_numeric(self):
        with pytest.raises(NumericError, match="eigensolve failed"):
            _hermitian_trace_norms(np.full((2, 3, 3), np.nan, dtype=complex))

    def test_unit_trace_on_densities(self, rng):
        from tniso.sampling import random_density

        for _ in range(20):
            rho = random_density(int(rng.integers(2, 7)), rng)
            assert trace_norm(rho) == pytest.approx(1.0, abs=1e-10)


class TestPositiveNegativeParts:
    def test_diagonal_split(self):
        pos, neg = positive_negative_parts(np.diag([0.3, -0.7]))
        np.testing.assert_allclose(pos, np.diag([0.3, 0.0]), atol=1e-14)
        np.testing.assert_allclose(neg, np.diag([0.0, 0.7]), atol=1e-14)

    def test_psd_input(self):
        z = np.diag([0.5, 0.2, 0.0])
        pos, neg = positive_negative_parts(z)
        np.testing.assert_allclose(pos, z, atol=1e-14)
        np.testing.assert_allclose(neg, np.zeros_like(z), atol=1e-14)

    def test_pauli_z(self):
        pos, neg = positive_negative_parts(PAULI_Z)
        np.testing.assert_allclose(pos, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(neg, np.diag([0.0, 1.0]), atol=1e-14)

    def test_recomposition_and_orthogonality(self, rng):
        for _ in range(25):
            z = random_hermitian(int(rng.integers(2, 7)), rng)
            pos, neg = positive_negative_parts(z)
            assert trace_norm(z - pos + neg) <= 1e-10
            assert np.abs(pos @ neg).max() <= 1e-10
            assert np.linalg.eigvalsh(pos).min() >= -1e-12
            assert np.linalg.eigvalsh(neg).min() >= -1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractViolation):
            positive_negative_parts(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSqrtAndPinv:
    def test_diag_examples(self):
        np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(pinv_psd(np.diag([4.0, 0.0])), np.diag([0.25, 0.0]), atol=1e-12)

    def test_half_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(2) / 2), np.eye(2) / np.sqrt(2), atol=1e-12)

    def test_cofactor_state_against_eigen_oracle(self):
        tau = np.diag([0.7, 0.3])
        # oracle: eigenvalues are already diagonal, take entrywise sqrt
        np.testing.assert_allclose(sqrt_psd(tau), np.diag(np.sqrt([0.7, 0.3])), atol=1e-12)

    def test_sqrt_squares_back(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = g @ g.conj().T
            s = sqrt_psd(a)
            assert np.abs(s @ s - a).max() <= 1e-10 * max(1.0, np.abs(a).max())

    def test_pinv_times_a_is_support_projector(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            rank = int(rng.integers(1, d + 1))
            g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            a = g @ g.conj().T
            np.testing.assert_allclose(pinv_psd(a) @ a, support_projector(a), atol=1e-9)

    def test_negative_beyond_tolerance_rejected(self):
        with pytest.raises(ContractViolation):
            sqrt_psd(np.diag([1.0, -1e-6]))


class TestSupportProjector:
    def test_rank_one(self):
        p = np.diag([1.0, 0.0])
        np.testing.assert_allclose(support_projector(p), p, atol=1e-14)

    def test_full_rank_gives_identity(self):
        np.testing.assert_allclose(support_projector(np.diag([0.5, 0.3, 0.2])), np.eye(3), atol=1e-14)

    def test_projector_properties(self, rng):
        for _ in range(15):
            d = int(rng.integers(2, 7))
            rank = int(rng.integers(1, d + 1))
            g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
            a = g @ g.conj().T
            p = support_projector(a)
            assert np.abs(p @ p - p).max() <= 1e-12
            assert np.abs(p - p.conj().T).max() <= 1e-12
            assert np.abs(p @ a - a).max() <= 1e-9 * max(1.0, np.abs(a).max())

    def test_repetition_image_support(self, repetition):
        # oracle: eigen-count of the explicitly computed channel image of a
        # full-rank encoded state; at p = 0.4 every deviation pattern is
        # populated, so the support is the whole 3-qubit space
        enc, channel, _, _ = repetition
        image = channel(enc.encode(np.eye(2, dtype=complex) / 2))
        eigs = np.linalg.eigvalsh(image)
        assert int(np.count_nonzero(eigs > 1e-9 * eigs.max())) == 8
        np.testing.assert_allclose(support_projector(image), np.eye(8), atol=1e-12)


class TestOperatorWrappers:
    def test_hermitian_validates(self):
        with pytest.raises(ContractViolation):
            HermitianOperator(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_density_validates_trace(self):
        with pytest.raises(ContractViolation):
            DensityOperator(np.diag([0.6, 0.6]))

    def test_density_validates_psd(self):
        with pytest.raises(ContractViolation):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_density_accepts_states(self):
        rho = DensityOperator(np.diag([0.25, 0.75]))
        assert rho.dim == 2


def test_hermitian_basis_is_orthonormal():
    for d in (2, 3, 4):
        basis = hermitian_basis(d)
        assert len(basis) == d * d
        for i, a in enumerate(basis):
            assert np.abs(a - a.conj().T).max() <= 1e-15
            for j, b in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert complex(np.trace(a.conj().T @ b)) == pytest.approx(expected, abs=1e-12)

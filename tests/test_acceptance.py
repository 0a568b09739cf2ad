"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
Tolerances are pinned here and not configurable.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from tniso.analysis import (
    build_correction,
    check_ns_factorization,
    detect_structure,
    is_fixed,
    is_preserved,
)
from tniso.channels import (
    KrausChannel,
    Superoperator,
    cesaro_projector,
    compose,
    trace_norm_contraction_witness,
    transpose_superoperator,
    vec,
)
from tniso.codes import (
    ObservableEncoding,
    PerturbedEncoding,
    make_example2_channel,
    make_repetition_example,
    verify_faithfulness,
)
from tniso.errors import NotCorrectableError
from tniso.opcore import trace_norm
from tniso.robustness import (
    check_prop3_bound,
    estimate_epsilon,
    perturbed_encoding_correctability,
    simulate_iterated,
)
from tniso.sampling import (
    random_channel,
    random_density,
    random_isometric_encoding,
    random_preserved_system,
    random_unital_channel,
)

from conftest import PAULI_X, RHO_COHERENT


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} [{label}]: PASS")


def test_01_mixture_golden_reproduction():
    with criterion(1, "mixture-model golden values"):
        system = make_repetition_example(0.4)
        channel = make_example2_channel(0.4, 0.05)
        started = time.perf_counter()
        trace = simulate_iterated(
            channel,
            system.recovery,
            system.encoding.encode(RHO_COHERENT),
            10,
            encoding=system.encoding,
        )
        elapsed = time.perf_counter() - started
        final = system.encoding.decode(trace.states[-1])
        assert abs(abs(final[0, 1]) - 0.332) <= 1e-3
        assert abs(trace.decoded_errors[-1] - 0.335) <= 1e-3
        assert elapsed < 1.0


def test_02_repetition_structure():
    with criterion(2, "repetition-code structure"):
        started = time.perf_counter()
        enc, channel, recovery, sigma = make_repetition_example(0.4)
        spectrum = np.sort(np.linalg.eigvalsh(sigma))[::-1]
        assert np.abs(spectrum - [0.6, 2 / 15, 2 / 15, 2 / 15]).max() <= 1e-12

        # the noise probed on code inputs factors off the logical qubit
        protect_loop = compose(channel, recovery)
        ok, cof, _ = check_ns_factorization(protect_loop, enc.decomposition, 1e-9)
        assert ok
        ref = np.zeros((4, 4), dtype=complex)
        ref[0, 0] = 1.0
        assert np.abs(cof(ref) - sigma).max() <= 1e-12

        replace = build_correction(enc, channel, "replace")
        fixed_ok, res = is_fixed(enc, compose(replace, channel), 1e-10)
        assert fixed_ok and res <= 1e-10

        # the image code is fixed when correction precedes the noise
        composite = channel.superoperator() @ enc.superoperator()
        loop = compose(channel, replace)
        residual = 0.0
        from tniso.opcore import hermitian_basis

        for b in hermitian_basis(2):
            x = composite(b)
            residual = max(residual, trace_norm(loop(x) - x))
        assert residual <= 1e-10
        assert time.perf_counter() - started < 1.0


def test_03_constructive_correction_equivalence():
    with criterion(3, "preserved iff correctable, constructively"):
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        for _ in range(50):
            d_s = int(rng.integers(2, 4))
            d_f = int(rng.integers(1, 4))
            d_r = int(rng.integers(0, 3))
            d_g = int(rng.integers(1, (d_s * d_f + d_r) // d_s + 1))
            enc, channel = random_preserved_system(d_s, d_f, d_r, rng, d_g=d_g)
            for strategy in ("time_reversal", "replace"):
                recovery = build_correction(enc, channel, strategy)
                ok, res = is_fixed(enc, compose(recovery, channel), 1e-8)
                assert ok, (strategy, res)
        for _ in range(50):
            d_s = int(rng.integers(2, 4))
            d_f = int(rng.integers(1, 3))
            d_r = int(rng.integers(0, 3))
            enc = random_isometric_encoding(d_s, d_f, d_r, rng)
            channel = random_channel(enc.dim_physical, rng, kraus_count=3)
            found, report = is_preserved(enc, channel, 1e-8)
            assert not found and report.residual > 1e-7
            with pytest.raises(NotCorrectableError):
                build_correction(enc, channel)
        assert time.perf_counter() - started < 30.0


def test_04_detection_roundtrip():
    with criterion(4, "detection round-trip incl. anti-unitary"):
        rng = np.random.default_rng(7)
        for i in range(100):
            d_s = int(rng.integers(2, 4))
            d_f = int(rng.integers(1, 4))
            d_r = int(rng.integers(0, 3))
            enc = random_isometric_encoding(d_s, d_f, d_r, rng)
            phi = enc.superoperator()
            conjugated = i < 20
            if conjugated:
                phi = phi @ Superoperator(d_s, d_s, transpose_superoperator(d_s))
            report = detect_structure(phi)
            assert report.found
            expected = "anti-unitary" if conjugated and d_s > 1 else "unitary"
            assert report.conjugation == expected, (i, report.conjugation)
            assert report.residual <= 1e-8
            true_w = np.sort(np.linalg.eigvalsh(enc.cofactor))[::-1]
            got_w = np.sort(report.weights)[::-1]
            assert np.abs(got_w - true_w).max() <= 1e-8


def test_05_trace_norm_contraction():
    with criterion(5, "trace-norm contraction"):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(40):
            d = int(rng.integers(2, 9))
            channel = random_channel(d, rng, kraus_count=int(rng.integers(1, 5)))
            ratio = trace_norm_contraction_witness(
                channel, samples=5, seed=int(rng.integers(1 << 30))
            )
            worst = max(worst, ratio)
        assert worst <= 1.0 + 1e-9


def test_06_fixed_point_projector():
    with criterion(6, "fixed-point projector"):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            channel = random_channel(d, rng, kraus_count=int(rng.integers(1, 4)))
            s = channel.superoperator().matrix
            p = cesaro_projector(channel, method="spectral").matrix
            assert np.abs(s @ p - p).max() <= 1e-8
            assert np.abs(p @ p - p).max() <= 1e-8
        for _ in range(20):
            d = int(rng.integers(2, 7))
            channel = random_unital_channel(d, rng)
            ps = cesaro_projector(channel, method="spectral").matrix
            pi = cesaro_projector(channel, method="iterative", tol_=1e-7).matrix
            assert np.abs(ps - pi).max() <= 1e-6
        flip = KrausChannel(
            [np.sqrt(0.7) * np.eye(2, dtype=complex), np.sqrt(0.3) * PAULI_X]
        )
        proj = cesaro_projector(flip, method="spectral")
        for _ in range(10):
            rho = random_density(2, rng)
            expected = 0.5 * (rho + PAULI_X @ rho @ PAULI_X)
            assert np.abs(proj(rho) - expected).max() <= 1e-10


def test_07_encoding_errors_never_amplified():
    with criterion(7, "bounded encoding errors stay bounded"):
        enc, channel, recovery, _ = make_repetition_example(0.4)
        for eps in (0.005, 0.02, 0.05):
            image = np.zeros((8, 8), dtype=complex)
            image[2, 2], image[5, 5] = eps / 2, -eps / 2
            delta = Superoperator(2, 8, np.outer(vec(image), vec(np.eye(2)).conj()))
            pert = PerturbedEncoding(enc, delta, eps)
            ok, max_err, rounds = perturbed_encoding_correctability(
                pert, channel, recovery, horizon=20
            )
            assert ok
            assert max_err <= eps + 1e-8
            assert np.all(np.diff(rounds) <= 1e-10)


def test_08_linear_error_bound():
    with criterion(8, "linear error accumulation bound"):
        enc, _, recovery, _ = make_repetition_example(0.4)
        channel = make_example2_channel(0.4, 0.05)
        loop = compose(recovery, channel)
        composite = loop.superoperator() @ enc.superoperator()
        est = estimate_epsilon(composite, enc, seed=0)
        for n in (5, 10, 20):
            trace = simulate_iterated(
                channel, recovery, enc.encode(RHO_COHERENT), n, encoding=enc
            )
            ok, _ = check_prop3_bound(trace, est.upper_bound)
            assert ok
        corrupted = simulate_iterated(
            channel, recovery, enc.encode(RHO_COHERENT), 10, encoding=enc
        )
        corrupted.errors = corrupted.errors + 5 * est.upper_bound
        bad_ok, margin = check_prop3_bound(corrupted, est.upper_bound)
        assert not bad_ok and margin < 0


def test_09_asymptotic_dephasing():
    with criterion(9, "asymptotic dephasing"):
        enc, _, recovery, _ = make_repetition_example(0.4)
        channel = make_example2_channel(0.4, 0.05)
        trace = simulate_iterated(
            channel, recovery, enc.encode(RHO_COHERENT), 500, encoding=enc
        )
        offdiag = np.array([abs(enc.decode(s)[0, 1]) for s in trace.states])
        assert offdiag[-1] < 1e-3
        assert np.all(np.diff(offdiag) <= 1e-12)
        assert abs(trace.decoded_errors[-1] - 1.0) <= 0.01


def test_10_faithfulness_conditions():
    with criterion(10, "faithfulness of the repetition encoding"):
        enc, _, _, _ = make_repetition_example(0.4)
        observables = ObservableEncoding(enc.decomposition)
        report = verify_faithfulness(enc, observables, samples=50, seed=5)
        assert report.statics <= 1e-9
        assert report.unitary_dynamics <= 1e-9
        assert report.measurement_dynamics <= 1e-9

        class SwappedRoles:
            decomposition = enc.decomposition

            def encode_observable(self, a):
                block = np.zeros((4, 4), dtype=complex)
                block[:2, :2] = a
                u = enc.decomposition.basis
                return u @ np.kron(np.eye(2), block) @ u.conj().T

        adversarial = verify_faithfulness(enc, SwappedRoles(), samples=50, seed=5)
        assert adversarial.statics > 0.1

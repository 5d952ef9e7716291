"""Bound tests: block assembly vs Kronecker oracle, efficiency identity."""
import numpy as np
import pytest

from irsradar.bounds import crb, fisher_information
from irsradar.channel import compose_paths, crandn, wrap_phase
from irsradar.errors import SingularModelError
from irsradar.estimator import NoiseModel, blue_estimate, estimator_mse
from irsradar.model import build_sensing_matrix, make_random_waveform
from irsradar.phaseopt import optimal_phases


def kron_oracle(A, R):
    """2 Re{[1 j]^H kron [1 j] kron G}: independent construction of the FIM."""
    G = A.conj().T @ np.linalg.inv(R) @ A
    v = np.array([[1.0, 1j]])
    W = v.conj().T @ v
    return 2.0 * np.real(np.kron(W, G))


def test_unit_scalar_model():
    J = fisher_information(np.eye(1), NoiseModel.scaled_identity(1.0, 1))
    np.testing.assert_allclose(J, 2.0 * np.eye(2), atol=1e-15)


def test_block_assembly_matches_kronecker_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        N, K = 12, 4
        A = crandn(rng, N, K)
        B = crandn(rng, N, N)
        R = B @ B.conj().T + N * np.eye(N)
        J = fisher_information(A, NoiseModel(covariance=R))
        np.testing.assert_allclose(J, kron_oracle(A, R), atol=1e-13)


def test_noise_scaling_linearity():
    rng = np.random.default_rng(1)
    A = crandn(rng, 10, 3)
    J1 = fisher_information(A, NoiseModel.scaled_identity(0.2, 10))
    J2 = fisher_information(A, NoiseModel.scaled_identity(0.6, 10))
    np.testing.assert_allclose(J1, 3.0 * J2, rtol=1e-12)


def test_diagonal_model_crb():
    K, s2 = 4, 0.3
    rep = crb(np.eye(K), NoiseModel.scaled_identity(s2, K))
    np.testing.assert_allclose(rep.crb, (s2 / 2) * np.eye(2 * K), atol=1e-14)
    assert abs(rep.trace - K * s2) < 1e-12


def test_block_structure():
    rng = np.random.default_rng(2)
    A = crandn(rng, 9, 3)
    rep = crb(A, NoiseModel.scaled_identity(0.5, 9))
    for Mat in (rep.fim, rep.crb):
        K = Mat.shape[0] // 2
        np.testing.assert_allclose(Mat, Mat.T, atol=1e-12)
        np.testing.assert_allclose(Mat[:K, :K], Mat[K:, K:], atol=1e-12)
        np.testing.assert_allclose(Mat[:K, K:], -Mat[K:, :K], atol=1e-12)


def test_efficiency_identity():
    # Tr(J^-1) equals the BLUE error floor Tr((A^H R^-1 A)^-1)
    rng = np.random.default_rng(3)
    for _ in range(10):
        N, K = 20, 5
        x = make_random_waveform(N, rng)
        A = build_sensing_matrix(x, rng.uniform(-np.pi, np.pi, K), crandn(rng, K))
        noise = NoiseModel.scaled_identity(0.1, N)
        mse = estimator_mse(A, noise)
        # absolute for well-conditioned draws, relative once the trace blows up
        assert abs(crb(A, noise).trace - mse) < 1e-10 * max(1.0, mse)


def test_per_component_bound_attained():
    rng = np.random.default_rng(4)
    N, K = 15, 3
    A = crandn(rng, N, K)
    noise = NoiseModel.scaled_identity(0.4, N)
    C = blue_estimate(A, noise, crandn(rng, N)).covariance
    rep = crb(A, noise)
    for k in range(K):
        lhs = C[k, k].real
        rhs = rep.crb[k, k] + rep.crb[K + k, K + k]
        assert abs(lhs - rhs) < 1e-10


def test_optimal_phases_never_worse():
    # per-realization trace ordering on the raw (unnormalized) channel
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g, h = crandn(rng, 5, 10), crandn(rng, 5, 10)
        x = make_random_waveform(50, seed)
        rng = np.random.default_rng(1000 + seed)
        nus = rng.uniform(-np.pi, np.pi, 5)
        noise = NoiseModel.scaled_identity(0.01, 50)
        traces = {}
        for name, theta in (
            ("optimal", optimal_phases(g, h)),
            ("random", wrap_phase(rng.uniform(0.0, 2.0 * np.pi, (5, 10)))),
        ):
            csi = compose_paths(g, h, theta, np.ones((5, 10)), "complex")
            A = build_sensing_matrix(x, nus, csi)
            traces[name] = crb(A, noise).trace
        assert traces["optimal"] <= traces["random"] + 1e-12


def test_singular_model_propagates():
    A = np.ones((6, 2), dtype=complex)
    with pytest.raises(SingularModelError):
        fisher_information(A, NoiseModel.scaled_identity(1.0, 6))

"""Signal-primitive tests, including the dual-construction check of A."""
import numpy as np
import pytest

from irsradar.channel import crandn
from irsradar.errors import DegeneratePathError, UnderdeterminedModelError
from irsradar.model import (
    Waveform,
    build_sensing_matrix,
    doppler_steering,
    make_random_waveform,
    random_code,
    sensing_columns,
    steering_columns,
)


def test_waveform_unimodular():
    w = make_random_waveform(50, seed=3)
    assert len(w) == 50
    np.testing.assert_allclose(np.abs(w.samples), 1.0, atol=1e-12)


def test_waveform_single_sample():
    w = make_random_waveform(1, seed=0)
    assert len(w) == 1 and abs(abs(w.samples[0]) - 1) < 1e-12


def test_waveform_deterministic():
    a = make_random_waveform(32, seed=11)
    b = make_random_waveform(32, seed=11)
    assert np.array_equal(a.samples, b.samples)


def test_random_code_rows_match_single_codes():
    codes = random_code(40, [np.random.default_rng(s) for s in range(5)])
    assert codes.shape == (5, 40)
    for s in range(5):
        expect = np.exp(1j * np.random.default_rng(s).uniform(0.0, 2.0 * np.pi, 40))
        np.testing.assert_array_equal(codes[s], expect)
        np.testing.assert_array_equal(codes[s], make_random_waveform(40, seed=s).samples)
    assert random_code(40, []).shape == (0, 40)


def test_waveform_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_random_waveform(0, seed=1)
    with pytest.raises(ValueError):
        Waveform(samples=np.array([1.0, 0.5]))


def test_steering_zero_doppler():
    np.testing.assert_array_equal(doppler_steering(0.0, 4).vector, np.ones(4))


def test_steering_half_turn():
    np.testing.assert_allclose(doppler_steering(np.pi, 2).vector, [1, -1], atol=1e-15)


def test_steering_direct_formula():
    v = doppler_steering(0.5, 3).vector
    np.testing.assert_allclose(v, [1, np.exp(0.5j), np.exp(1.0j)], atol=1e-15)
    assert v[0] == 1.0


def test_steering_rejects_nonfinite():
    with pytest.raises(ValueError):
        doppler_steering(np.nan, 4)


def test_single_path_identity_channel():
    x = make_random_waveform(8, seed=2)
    A = build_sensing_matrix(x, [0.0], [1.0 + 0j])
    np.testing.assert_allclose(A.columns[:, 0], x.samples, atol=1e-15)


def test_column_scaling():
    x = make_random_waveform(8, seed=2)
    A = build_sensing_matrix(x, [0.0], [0.5 + 0j])
    np.testing.assert_allclose(A.columns[:, 0], 0.5 * x.samples, atol=1e-15)


def test_factorization_equivalence():
    # columnwise assembly vs Diag(x) P(nu) Diag(csi)
    rng = np.random.default_rng(5)
    N, K = 24, 6
    x = make_random_waveform(N, rng)
    nus = rng.uniform(-np.pi, np.pi, K)
    csi = crandn(rng, K)
    A = build_sensing_matrix(x, nus, csi)
    P = np.exp(1j * np.outer(np.arange(N), nus))
    ref = np.diag(x.samples) @ P @ np.diag(csi)
    np.testing.assert_allclose(A.columns, ref, atol=1e-13)


def test_column_norms_and_gram():
    rng = np.random.default_rng(6)
    N, K = 30, 4
    x = make_random_waveform(N, rng)
    csi = crandn(rng, K)
    A = build_sensing_matrix(x, rng.uniform(-np.pi, np.pi, K), csi)
    np.testing.assert_allclose(
        np.linalg.norm(A.columns, axis=0), np.abs(csi) * np.sqrt(N), atol=1e-12
    )
    G = A.gram()
    np.testing.assert_allclose(G, G.conj().T, atol=1e-13)
    np.testing.assert_allclose(np.diag(G).real, N * np.abs(csi) ** 2, atol=1e-12)


def test_too_many_paths_rejected():
    x = make_random_waveform(3, seed=1)
    with pytest.raises(UnderdeterminedModelError):
        build_sensing_matrix(x, np.zeros(4), np.ones(4))


def test_zero_path_rejected():
    x = make_random_waveform(5, seed=1)
    with pytest.raises(DegeneratePathError):
        build_sensing_matrix(x, [0.0, 0.1], [1.0, 0.0])


def test_sensing_columns_stack_matches_single_models():
    # stacking models must not change any column entry
    rng = np.random.default_rng(22)
    for T, N, K in ((7, 50, 5), (3, 256, 32)):
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, (T, N)))
        nus = rng.uniform(-np.pi, np.pi, (T, K))
        csi = crandn(rng, T, K)
        stacked = sensing_columns(steering_columns(x, nus), csi)
        for t in range(T):
            single = build_sensing_matrix(Waveform(x[t]), nus[t], csi[t]).columns
            np.testing.assert_array_equal(stacked[t], single)

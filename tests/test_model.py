"""Signal-primitive tests, including the dual-construction check of A."""
import numpy as np
import pytest

from irsradar.channel import crandn
from irsradar.errors import DegeneratePathError, UnderdeterminedModelError
from irsradar.model import (
    Waveform,
    build_sensing_matrix,
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
    phases = np.array([np.random.default_rng(s).uniform(0.0, 2.0 * np.pi, 40) for s in range(5)])
    codes = random_code(phases)
    assert codes.shape == (5, 40)
    for s in range(5):
        np.testing.assert_array_equal(codes[s], np.exp(1j * phases[s]))
        np.testing.assert_array_equal(codes[s], random_code(phases[s]))
        np.testing.assert_array_equal(codes[s], make_random_waveform(40, seed=s).samples)
    assert random_code(np.empty((0, 40))).shape == (0, 40)


def test_waveform_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_random_waveform(0, seed=1)
    with pytest.raises(ValueError):
        Waveform(samples=np.array([1.0, 0.5]))


def steering(nu, N):
    """p(nu) = [1, e^{j nu}, ..., e^{j (N-1) nu}], the columns of an all-ones code."""
    return steering_columns(np.ones(N, dtype=complex), np.array([nu]))[:, 0]


def test_steering_zero_doppler():
    np.testing.assert_array_equal(steering(0.0, 4), np.ones(4))


def test_steering_half_turn():
    np.testing.assert_allclose(steering(np.pi, 2), [1, -1], atol=1e-15)


def test_steering_direct_formula():
    v = steering(0.5, 3)
    np.testing.assert_allclose(v, [1, np.exp(0.5j), np.exp(1.0j)], atol=1e-15)
    assert v[0] == 1.0


def test_steering_rejects_nonfinite():
    x = make_random_waveform(4, seed=1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="dopplers must be finite"):
            build_sensing_matrix(x, [0.1, bad], [1.0, 1.0])


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
    G = A.columns.conj().T @ A.columns
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


@pytest.mark.parametrize("N", [1, 2, 3, 7, 50, 255, 256, 257])
def test_steering_table_matches_direct_formula(N):
    # the phase table against x * exp(j n nu) evaluated directly, within a
    # few N * eps: the direct formula's own rounding of n * nu is that size
    rng = np.random.default_rng(N)
    T, K = 3, 9
    x = np.exp(1j * rng.uniform(0, 2 * np.pi, (T, N)))
    nus = rng.uniform(-np.pi, np.pi, (T, K))
    nus[:, 0] = 0.0
    nus[0, 1], nus[1, 1] = np.pi, -np.pi
    got = steering_columns(x, nus)
    ref = x[..., :, None] * np.exp(1j * np.arange(N)[:, None] * nus[..., None, :])
    assert np.max(np.abs(got - ref)) <= 4 * N * np.finfo(float).eps
    np.testing.assert_array_equal(got[:, :, 0], x)  # exactly 1 at nu = 0
    np.testing.assert_array_equal(got[:, 0, :], np.repeat(x[:, :1], K, axis=1))  # and at n = 0
    for t in range(T):
        np.testing.assert_array_equal(steering_columns(x[t], nus[t]), got[t])
        np.testing.assert_array_equal(steering_columns(x[t:t + 1], nus[t:t + 1]), got[t:t + 1])

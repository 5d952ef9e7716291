"""Estimator tests, anchored on an explicit dense-inverse oracle."""
import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from irsradar.channel import crandn
from irsradar.errors import SingularModelError, UndefinedMetricError
from irsradar.estimator import (
    CONDITION_LIMIT,
    NoiseModel,
    _gram_stack,
    blue_estimate,
    blue_stack,
    estimator_mse,
    nmse,
    nmse_rows,
)
from irsradar.model import build_sensing_matrix, make_random_waveform


def oracle_blue(A, R, y):
    """Textbook normal equations with explicit inverses; slow but independent."""
    Ri = np.linalg.inv(R)
    G = A.conj().T @ Ri @ A
    C = np.linalg.inv(G)
    return C @ (A.conj().T @ Ri @ y), C


def random_spd(rng, n):
    B = crandn(rng, n, n)
    return B @ B.conj().T + n * np.eye(n)


def test_identity_model():
    K = 4
    rng = np.random.default_rng(0)
    y = crandn(rng, K)
    rep = blue_estimate(np.eye(K), NoiseModel.identity(K), y)
    np.testing.assert_allclose(rep.alpha_hat, y, atol=1e-14)
    np.testing.assert_allclose(rep.covariance, np.eye(K), atol=1e-14)


def test_noiseless_recovery():
    rng = np.random.default_rng(1)
    x = make_random_waveform(20, rng)
    A = build_sensing_matrix(x, [0.1, 0.5, -0.4], crandn(rng, 3))
    alpha = crandn(rng, 3)
    rep = blue_estimate(A, NoiseModel.identity(20), A.columns @ alpha)
    np.testing.assert_allclose(rep.alpha_hat, alpha, atol=1e-10)


@pytest.mark.parametrize("trial", range(5))
def test_matches_dense_oracle(trial):
    rng = np.random.default_rng(100 + trial)
    N, K = 10, 3
    A = crandn(rng, N, K)
    R = random_spd(rng, N)
    y = crandn(rng, N)
    rep = blue_estimate(A, NoiseModel(covariance=R), y)
    ref_hat, ref_cov = oracle_blue(A, R, y)
    np.testing.assert_allclose(rep.alpha_hat, ref_hat, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(rep.covariance, ref_cov, rtol=1e-9, atol=1e-12)
    assert abs(rep.mse - np.trace(ref_cov).real) < 1e-9


def test_report_consistency():
    rng = np.random.default_rng(7)
    x = make_random_waveform(50, rng)
    A = build_sensing_matrix(x, rng.uniform(-3, 3, 5), crandn(rng, 5))
    noise = NoiseModel.scaled_identity(0.3, 50)
    y = crandn(rng, 50)
    rep = blue_estimate(A, noise, y)
    np.testing.assert_allclose(rep.covariance, rep.covariance.conj().T, atol=1e-12)
    assert abs(rep.mse - np.trace(rep.covariance).real) < 1e-12
    assert abs(rep.mse - estimator_mse(A, noise)) < 1e-12


def test_scaled_identity_matches_general():
    rng = np.random.default_rng(8)
    A = crandn(rng, 12, 4)
    y = crandn(rng, 12)
    s2 = 0.07
    fast = blue_estimate(A, NoiseModel.scaled_identity(s2, 12), y)
    slow = blue_estimate(A, NoiseModel(covariance=s2 * np.eye(12)), y)
    np.testing.assert_allclose(fast.alpha_hat, slow.alpha_hat, atol=1e-12)
    np.testing.assert_allclose(fast.covariance, slow.covariance, atol=1e-12)


def test_whitening_invariance():
    rng = np.random.default_rng(9)
    N, K = 14, 3
    A = crandn(rng, N, K)
    R = random_spd(rng, N)
    y = crandn(rng, N)
    L = np.linalg.cholesky(R)
    Aw = np.linalg.solve(L, A)
    yw = np.linalg.solve(L, y)
    direct = blue_estimate(A, NoiseModel(covariance=R), y)
    white = blue_estimate(Aw, NoiseModel.identity(N), yw)
    np.testing.assert_allclose(direct.alpha_hat, white.alpha_hat, atol=1e-10)


def test_mse_scaling_in_csi():
    # A = Diag(x) P Diag(csi): doubling |csi| divides the MSE by 4
    rng = np.random.default_rng(10)
    x = make_random_waveform(30, rng)
    nus = rng.uniform(-3, 3, 4)
    csi = crandn(rng, 4)
    noise = NoiseModel.scaled_identity(0.1, 30)
    m1 = estimator_mse(build_sensing_matrix(x, nus, csi), noise)
    m2 = estimator_mse(build_sensing_matrix(x, nus, 2.0 * csi), noise)
    np.testing.assert_allclose(m1 / m2, 4.0, rtol=1e-10)


def test_mse_identity_model():
    assert abs(estimator_mse(np.eye(5), NoiseModel.scaled_identity(0.2, 5)) - 1.0) < 1e-12


def test_singular_gram_rejected():
    A = np.ones((6, 2), dtype=complex)  # identical columns
    with pytest.raises(SingularModelError) as err:
        estimator_mse(A, NoiseModel.identity(6))
    assert "condition number" in str(err.value)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        blue_estimate(np.eye(3), NoiseModel.identity(3), np.zeros(4))


def test_unbiased_and_covariance_match():
    # empirical moments over 2e4 noise draws at one fixed scenario
    rng = np.random.default_rng(11)
    N, K = 16, 3
    A = crandn(rng, N, K)
    alpha = crandn(rng, K)
    s2 = 0.5
    noise = NoiseModel.scaled_identity(s2, N)
    draws = 20000
    hats = np.empty((draws, K), dtype=complex)
    clean = A @ alpha
    for i in range(draws):
        y = clean + np.sqrt(s2) * crandn(rng, N)
        hats[i] = blue_estimate(A, noise, y).alpha_hat
    C = blue_estimate(A, noise, clean).covariance
    err = hats.mean(axis=0) - alpha
    # componentwise 4-sigma bound on the empirical mean
    se = np.sqrt(np.real(np.diag(C)) / draws)
    assert np.all(np.abs(err) < 4 * se)
    centered = hats - hats.mean(axis=0)
    emp = centered.T @ centered.conj() / (draws - 1)
    scale = np.sqrt(np.outer(np.real(np.diag(C)), np.real(np.diag(C))))
    assert np.max(np.abs(emp - C) / scale) < 0.05


def test_nmse_definition():
    assert nmse([1 + 0j, 0], [1 + 0j, 0]) == 0.0
    assert abs(nmse([3 + 4j], [0])) == 1.0
    assert abs(nmse([1, 0], [0, 1]) - np.sqrt(2)) < 1e-15
    with pytest.raises(UndefinedMetricError):
        nmse([0, 0], [1, 1])


def test_blue_stack_items_match_single_estimates():
    # each item is estimated as if alone, and a singular item fails alone
    rng = np.random.default_rng(23)
    for T, N, K in ((6, 20, 3), (3, 256, 32)):
        cols = crandn(rng, T, N, K)
        cols[1, :, 1] = cols[1, :, 0]  # identical columns
        y = crandn(rng, T, N)
        for noise in (NoiseModel.scaled_identity(0.1, N), NoiseModel(covariance=random_spd(rng, N))):
            alpha_hat, cov, mse, errors = blue_stack(cols, noise, y)
            for t in range(T):
                if t == 1:
                    assert isinstance(errors[t], SingularModelError)
                    assert np.isnan(mse[t]) and np.all(np.isnan(alpha_hat[t]))
                    continue
                rep = blue_estimate(cols[t], noise, y[t])
                assert errors[t] is None
                np.testing.assert_array_equal(alpha_hat[t], rep.alpha_hat)
                np.testing.assert_array_equal(cov[t], rep.covariance)
                assert mse[t] == rep.mse


SHAPES = [(50, 5), (256, 32)]


@pytest.mark.parametrize("N, K", SHAPES)
def test_nmse_rows_match_per_row_norms(N, K):
    rng = np.random.default_rng(N)
    truth, est = crandn(rng, 40, K), crandn(rng, 40, K)
    est[3] = truth[3]  # an exact estimate
    ref = [np.linalg.norm(t - e) / np.linalg.norm(t) for t, e in zip(truth, est)]
    np.testing.assert_array_equal(nmse_rows(truth, est), ref)
    truth[5] = 0
    with pytest.raises(UndefinedMetricError):
        nmse_rows(truth, est)


@pytest.mark.parametrize("N, K", SHAPES)
def test_blue_stack_matches_per_item_cholesky_solves(N, K):
    # the per-item cho_factor/cho_solve BLUE with b and eye(K) solved apart
    rng = np.random.default_rng(K)
    T = 6
    cols, y = crandn(rng, T, N, K), crandn(rng, T, N)
    R = random_spd(rng, N)
    for noise, solve in (
        (NoiseModel.scaled_identity(0.1, N), lambda b: b / 0.1),
        (NoiseModel(covariance=R), lambda b: cho_solve(cho_factor(R, lower=True), b)),
    ):
        alpha_hat, cov, mse, errors = blue_stack(cols, noise, y)
        for t in range(T):
            ria = solve(cols[t])
            gram = cols[t].conj().T @ ria
            factor = cho_factor(0.5 * (gram + gram.conj().T), lower=True)
            ref_cov = cho_solve(factor, np.eye(K))
            ref_cov = 0.5 * (ref_cov + ref_cov.conj().T)
            assert errors[t] is None
            np.testing.assert_array_equal(alpha_hat[t], cho_solve(factor, ria.conj().T @ y[t]))
            np.testing.assert_array_equal(cov[t], ref_cov)
            assert mse[t] == np.trace(ref_cov).real


@pytest.mark.parametrize("N, K", SHAPES)
def test_condition_decision_matches_np_linalg_cond(N, K):
    rng = np.random.default_rng(N + K)
    cols = crandn(rng, 24, N, K)
    # near-singular items: column 1 approaches column 0, conditions ~1e2 to ~1e17
    for t, eps in enumerate(np.logspace(-15, -1, 15)):
        cols[t, :, 1] = cols[t, :, 0] + eps * crandn(rng, N)
    cols[15, :, 1] = cols[15, :, 0]  # identical columns
    cols[16, :, 0] = 0  # a zero column: the smallest eigenvalue is exactly 0
    noise = NoiseModel.scaled_identity(1.0, N)
    _, gram, cond = _gram_stack(cols, noise)
    ref = np.linalg.cond(gram)
    np.testing.assert_array_equal(cond > CONDITION_LIMIT, ref > CONDITION_LIMIT)
    assert 0 < np.sum(ref > CONDITION_LIMIT) < len(cols)
    assert cond[16] == np.inf
    well = ref < 1e8
    np.testing.assert_allclose(cond[well], ref[well], rtol=1e-6)

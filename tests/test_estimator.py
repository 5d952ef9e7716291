"""Estimator tests, anchored on an explicit dense-inverse oracle."""
import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from irsradar import estimator
from irsradar.errors import SingularModelError, UndefinedMetricError
from irsradar.estimator import (
    CONDITION_LIMIT,
    NoiseModel,
    _condition_numbers,
    _gram_stack,
    blue_estimate,
    blue_gram,
    blue_stack,
    estimator_mse,
    nmse_rows,
)
from irsradar.harness import SWEEP_MODES, Scenario, _evaluate_block, _sweep
from irsradar.model import build_sensing_matrix, make_random_waveform

from csi_draws import crandn


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
    rep = blue_estimate(np.eye(K), NoiseModel.scaled_identity(1.0, K), y)
    np.testing.assert_allclose(rep.alpha_hat, y, atol=1e-14)
    np.testing.assert_allclose(rep.covariance, np.eye(K), atol=1e-14)


def test_noiseless_recovery():
    rng = np.random.default_rng(1)
    x = make_random_waveform(20, rng)
    A = build_sensing_matrix(x, [0.1, 0.5, -0.4], crandn(rng, 3))
    alpha = crandn(rng, 3)
    rep = blue_estimate(A, NoiseModel.scaled_identity(1.0, 20), A.columns @ alpha)
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
    white = blue_estimate(Aw, NoiseModel.scaled_identity(1.0, N), yw)
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
        estimator_mse(A, NoiseModel.scaled_identity(1.0, 6))
    assert "condition number" in str(err.value)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        blue_estimate(np.eye(3), NoiseModel.scaled_identity(1.0, 3), np.zeros(4))


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
    # norm(alpha - alpha_hat) / norm(alpha), one row per trial
    truth = np.array([[1, 0], [3 + 4j, 0], [1, 0]], dtype=complex)
    est = np.array([[1, 0], [0, 0], [0, 1]], dtype=complex)
    got = nmse_rows(truth, est)
    assert got[0] == 0.0 and got[1] == 1.0
    assert abs(got[2] - np.sqrt(2)) < 1e-15
    with pytest.raises(UndefinedMetricError):
        nmse_rows(np.zeros((1, 2), dtype=complex), np.ones((1, 2), dtype=complex))


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


def assert_close_to_largest(got, ref, rtol=1e-12):
    # entrywise gaps measured against the largest entry of the reference
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("N, K", SHAPES)
def test_blue_stack_matches_per_item_cholesky_solves(N, K):
    # scipy's per-item cho_factor/cho_solve BLUE with b and eye(K) solved
    # apart, an oracle independent of the engine's stacked numpy path
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
            assert_close_to_largest(alpha_hat[t], cho_solve(factor, ria.conj().T @ y[t]))
            assert_close_to_largest(cov[t], ref_cov)
            assert mse[t] == pytest.approx(np.trace(ref_cov).real, rel=1e-12)


def _stack_with_singular_item(rng, T, N, K):
    cols, y = crandn(rng, T, N, K), crandn(rng, T, N)
    cols[2, :, 1] = cols[2, :, 0]  # identical columns
    return cols, y


def _assert_items_equal(got, want, t, u):
    # item t of one blue_stack result against item u of another, bit for bit
    alpha_hat, cov, mse, errors = got
    ref_hat, ref_cov, ref_mse, ref_errors = want
    np.testing.assert_array_equal(alpha_hat[t], ref_hat[u])
    np.testing.assert_array_equal(cov[t], ref_cov[u])
    np.testing.assert_array_equal(mse[t], ref_mse[u])
    assert type(errors[t]) is type(ref_errors[u])
    assert str(errors[t]) == str(ref_errors[u])


@pytest.mark.parametrize("N, K", SHAPES)
def test_blue_stack_items_do_not_depend_on_the_stack(N, K):
    rng = np.random.default_rng(N * K)
    T = 7
    cols, y = _stack_with_singular_item(rng, T, N, K)
    for noise in (NoiseModel.scaled_identity(0.1, N), NoiseModel(covariance=random_spd(rng, N))):
        full = blue_stack(cols, noise, y)
        assert isinstance(full[3][2], SingularModelError)
        assert sum(e is None for e in full[3]) == T - 1
        for t in range(T):
            _assert_items_equal(blue_stack(cols[t:t + 1], noise, y[t:t + 1]), full, 0, t)
        # and in a shorter stack that still holds the singular item
        part = blue_stack(cols[1:4], noise, y[1:4])
        for t in range(3):
            _assert_items_equal(part, full, t, t + 1)


def test_blue_stack_factors_items_alone_when_the_stacked_cholesky_fails(monkeypatch):
    # an indefinite Gram with a finite condition number passes the screen,
    # so the stacked factorization raises and each item is factored alone
    rng = np.random.default_rng(41)
    T, N, K = 6, 20, 3
    cols, y = _stack_with_singular_item(rng, T, N, K)
    noise = NoiseModel.scaled_identity(0.1, N)
    clean = blue_stack(cols, noise, y)
    real_gram_stack = estimator._gram_stack

    def indefinite_item_4(cols, noise):
        ria, gram = real_gram_stack(cols, noise)
        gram[4] = -gram[4]
        return ria, gram

    monkeypatch.setattr(estimator, "_gram_stack", indefinite_item_4)
    got = blue_stack(cols, noise, y)
    alpha_hat, cov, mse, errors = got
    assert np.isfinite(_condition_numbers(_gram_stack(cols, noise)[1])[4])
    assert isinstance(errors[4], SingularModelError)
    assert str(errors[4]) == "Gram matrix is not positive definite"
    assert np.isnan(mse[4]) and np.all(np.isnan(alpha_hat[4])) and np.all(np.isnan(cov[4]))
    assert "condition number" in str(errors[2])
    for t in (0, 1, 2, 3, 5):
        _assert_items_equal(got, clean, t, t)


def _kspace(cols, noise, y):
    # the Grams and matched filters A^H R^-1 A and A^H R^-1 y blue_gram takes
    ria, gram = _gram_stack(cols, noise)
    return gram, (ria.conj().swapaxes(-1, -2) @ y[..., None])[..., 0]


def _with_covariances(result):
    # blue_gram's result laid out as blue_stack's, L^-1 in the place of cov
    alpha_hat, mse, errors, chol_inv = result
    ok = np.array([e is None for e in errors], dtype=bool)
    padded = np.full((ok.size, *chol_inv.shape[1:]), np.nan, dtype=complex)
    padded[ok] = chol_inv
    return alpha_hat, padded, mse, errors


@pytest.mark.parametrize("N, K", SHAPES)
def test_blue_gram_items_do_not_depend_on_the_stack(N, K):
    rng = np.random.default_rng(N * K + 1)
    T = 7
    cols, y = _stack_with_singular_item(rng, T, N, K)
    for noise in (NoiseModel.scaled_identity(0.1, N), NoiseModel(covariance=random_spd(rng, N))):
        gram, b = _kspace(cols, noise, y)
        full = _with_covariances(blue_gram(gram, b))
        assert isinstance(full[3][2], SingularModelError)
        assert sum(e is None for e in full[3]) == T - 1
        for t in range(T):
            alone = _with_covariances(blue_gram(gram[t:t + 1], b[t:t + 1]))
            _assert_items_equal(alone, full, 0, t)
        part = _with_covariances(blue_gram(gram[1:4], b[1:4]))
        for t in range(3):
            _assert_items_equal(part, full, t, t + 1)
        # blue_stack is this kernel on the same Grams
        stacked = blue_stack(cols, noise, y)
        np.testing.assert_array_equal(stacked[0], full[0])
        np.testing.assert_array_equal(stacked[2], full[2])


def test_blue_gram_factors_items_alone_when_the_stacked_cholesky_fails():
    rng = np.random.default_rng(43)
    T, N, K = 6, 20, 3
    cols, y = _stack_with_singular_item(rng, T, N, K)
    gram, b = _kspace(cols, NoiseModel.scaled_identity(0.1, N), y)
    clean = _with_covariances(blue_gram(gram, b))
    gram[4] = -gram[4]  # indefinite, with the same finite condition number
    assert np.isfinite(_condition_numbers(gram)[4])
    got = _with_covariances(blue_gram(gram, b))
    alpha_hat, chol_inv, mse, errors = got
    assert isinstance(errors[4], SingularModelError)
    assert str(errors[4]) == "Gram matrix is not positive definite"
    assert np.isnan(mse[4]) and np.all(np.isnan(alpha_hat[4])) and np.all(np.isnan(chol_inv[4]))
    assert "condition number" in str(errors[2])
    for t in (0, 1, 2, 3, 5):
        _assert_items_equal(got, clean, t, t)


def _eigvalsh_screen(gram):
    # the errors an eigenvalue screen alone gives: the condition number
    # max|lambda| / min|lambda| of eigvalsh against CONDITION_LIMIT
    errors = []
    for lam in np.abs(np.linalg.eigvalsh(gram)):
        cond = lam.max() / lam.min() if lam.min() > 0 else np.inf
        errors.append(None if cond <= CONDITION_LIMIT else SingularModelError(
            f"Gram matrix condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"))
    return errors


def _assert_same_errors(got, want):
    assert [type(e) for e in got] == [type(e) for e in want]
    assert [str(e) for e in got] == [str(e) for e in want]


@pytest.mark.parametrize("N, K", [*SHAPES, (50, 1)])
def test_condition_decision_matches_np_linalg_cond(N, K):
    rng = np.random.default_rng(N + K)
    cols = crandn(rng, 24, N, K)
    # near-singular items: column 1 approaches column 0, conditions ~1e2 to
    # ~1e17; a single column has condition 1 at any scale, so at K = 1 the
    # ladder scales the column instead
    for t, eps in enumerate(np.logspace(-15, -1, 15)):
        if K == 1:
            cols[t] *= eps
        else:
            cols[t, :, 1] = cols[t, :, 0] + eps * crandn(rng, N)
    if K > 1:
        cols[15, :, 1] = cols[15, :, 0]  # identical columns
    cols[16, :, 0] = 0  # a zero column: the smallest eigenvalue is exactly 0
    noise = NoiseModel.scaled_identity(1.0, N)
    _, gram = _gram_stack(cols, noise)
    cond = _condition_numbers(gram)
    ref = np.linalg.cond(gram)
    np.testing.assert_array_equal(cond > CONDITION_LIMIT, ref > CONDITION_LIMIT)
    assert 0 < np.sum(ref > CONDITION_LIMIT) < len(cols)
    assert cond[16] == np.inf
    well = ref < 1e8
    np.testing.assert_allclose(cond[well], ref[well], rtol=1e-6)
    # blue_gram screens from its Cholesky factor first, in the whole stack
    # and item by item, and still gives the eigenvalue screen's errors
    want = _eigvalsh_screen(gram)
    b = crandn(rng, len(cols), K)
    _assert_same_errors(blue_gram(gram, b)[2], want)
    for t in range(len(cols)):
        _assert_same_errors(blue_gram(gram[t:t + 1], b[t:t + 1])[2], want[t:t + 1])


def test_well_conditioned_grams_skip_the_eigenvalue_screen(monkeypatch):
    seen = []  # the size of each stack that reaches the eigenvalue screen
    real = estimator._condition_numbers

    def counting(gram):
        seen.append(len(gram))
        return real(gram)

    monkeypatch.setattr(estimator, "_condition_numbers", counting)
    points = [Scenario(link_mode=mode) for mode in SWEEP_MODES]
    records = _evaluate_block(points, 0, range(65))
    assert np.all(np.isfinite(records))
    assert sum(seen) == 0
    # the exclusions record case: its near-singular Grams are screened
    s = Scenario(n=10, k=10, m=2, trials=24, master_seed=1, doppler_min_gap=0)
    res = _sweep(s, "gamma", (1e-3, 0.3, 30.0), SWEEP_MODES)
    assert res.excluded.sum() > 0
    assert sum(seen) >= 1

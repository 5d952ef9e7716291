"""Estimator tests, anchored on an explicit dense-inverse oracle."""
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from irsradar import estimator
from irsradar.bounds import fisher_information
from irsradar.errors import SingularModelError, UndefinedMetricError
from irsradar.estimator import (
    CLEARED,
    CONDITION_LIMIT,
    ILL_CONDITIONED,
    NOT_POSITIVE_DEFINITE,
    POWER_RANGE,
    NoiseModel,
    _blue_one,
    _blue_scaled,
    _cholesky_factors,
    _condition_numbers,
    _error_nmse,
    _gram_stack,
    _path_factor,
    _refusal,
    blue_estimate,
    blue_gram,
    estimator_mse,
)
from irsradar.harness import (
    LINK_MODES,
    SWEEP_MODES,
    Scenario,
    _draw_block,
    _estimate_mode,
    _evaluate_block,
    _path_models,
    _project,
    _sweep,
    run_trial,
)
from irsradar.model import build_sensing_matrix, make_random_waveform

from csi_draws import crandn, noise_matched_filter


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


def test_noise_model_takes_a_covariance_or_a_finite_power():
    # white noise is the model without a covariance; a covariance given with
    # sigma2 was once read as sigma2 I, and a non-finite sigma2 failed deep
    # inside the estimate
    R = 5.0 * np.eye(3)
    assert not NoiseModel(covariance=R).is_scaled_identity
    assert NoiseModel.scaled_identity(0.5, 3).is_scaled_identity
    assert blue_estimate(np.eye(3), NoiseModel(covariance=R), np.ones(3)).mse == pytest.approx(15)
    with pytest.raises(ValueError, match="not both"):
        NoiseModel(covariance=R, sigma2=1.0, n=3)
    for bad in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match=r"^sigma2 must lie in \[1e-30, 1e\+30\]$"):
            NoiseModel.scaled_identity(bad, 3)


def test_noise_model_owns_the_noise_rules():
    # a nan covariance was accepted and then refused by blue_estimate as a
    # Gram of condition number inf; a power far outside POWER_RANGE
    # overflowed with RuntimeWarnings; an n given with a covariance was
    # ignored.  Each is now a ValueError at construction, with no warning
    eigenvalues = r"^covariance eigenvalues must lie in \[1e-30, 1e\+30\]$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.full((3, 3), np.nan), np.diag([1.0, np.inf, 1.0])):
            with pytest.raises(ValueError, match="^covariance entries must be finite$"):
                NoiseModel(covariance=bad)
        for power in (1e-320, 1e-31, 1e31, -1.0):
            with pytest.raises(ValueError, match=eigenvalues):
                NoiseModel(covariance=power * np.eye(3))
            with pytest.raises(ValueError, match=r"^sigma2 must lie in \[1e-30, 1e\+30\]$"):
                NoiseModel.scaled_identity(power, 3)
        with pytest.raises(ValueError, match=eigenvalues):
            NoiseModel(covariance=np.diag([1.0, 1e-40, 1.0]))  # one eigenvalue is enough
        with pytest.raises(ValueError, match="^covariance is 3 x 3, but n is 5$"):
            NoiseModel(covariance=np.eye(3), n=5)
        for edge in POWER_RANGE:
            assert NoiseModel(covariance=edge * np.eye(3), n=3).n == 3
            assert NoiseModel.scaled_identity(edge, 3).sigma2 == edge


def test_white_noise_needs_a_real_sigma2():
    # a Python complex raised a bare TypeError from float(), numpy's complex
    # was kept as sigma2, and a string was parsed silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (1 + 1j, np.complex128(0.5), "1.0"):
            for build in (lambda: NoiseModel.scaled_identity(bad, 3),
                          lambda: NoiseModel(sigma2=bad, n=3)):
                with pytest.raises(ValueError, match=rf"^sigma2 must be a real number, got "
                                                     rf"{re.escape(repr(bad))}$"):
                    build()
    noise = NoiseModel.scaled_identity(np.float32(0.5), 3)
    assert noise.sigma2 == 0.5 and type(noise.sigma2) is float


def test_white_noise_needs_a_positive_integer_n():
    # int(n) turned 2.5 into 2, and n = 0 or -3 built a model of no pulses
    for bad in (2.5, 2.0, "3", None):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {bad!r}$"):
            NoiseModel.scaled_identity(1.0, bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match=rf"^n must be positive, got {bad}$"):
            NoiseModel.scaled_identity(1.0, bad)
    noise = NoiseModel.scaled_identity(1.0, np.int64(3))
    assert noise.n == 3 and type(noise.n) is int


def test_sigma2_has_one_message():
    # Scenario and sweeps (harness._check_powers) and NoiseModel gave the
    # one sigma2 rule two messages
    messages = set()
    for run in (lambda: NoiseModel.scaled_identity(0.0, 5), lambda: NoiseModel(sigma2=np.nan, n=5),
                lambda: Scenario(sigma2=0.0),
                lambda: _sweep(Scenario(trials=2), "sigma2", [1e-2, 1e31], SWEEP_MODES)):
        with pytest.raises(ValueError) as err:
            run()
        messages.add(str(err.value))
    assert messages == {"sigma2 must lie in [1e-30, 1e+30]"}


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        blue_estimate(np.eye(3), NoiseModel.scaled_identity(1.0, 3), np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_nonfinite_model_is_named(bad):
    # every library entry to the N-space Gram names A, not its conditioning
    A = crandn(np.random.default_rng(5), 6, 2)
    A[3, 1] = bad
    noise = NoiseModel.scaled_identity(1.0, 6)
    for call in (lambda: blue_estimate(A, noise, np.ones(6)), lambda: estimator_mse(A, noise),
                 lambda: fisher_information(A, noise)):
        with pytest.raises(ValueError, match="A has non-finite entries"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_observation_is_named(bad):
    A = crandn(np.random.default_rng(6), 6, 2)
    y = np.ones(6, dtype=complex)
    y[2] = bad
    with pytest.raises(ValueError, match="y has non-finite entries"):
        blue_estimate(A, NoiseModel.scaled_identity(1.0, 6), y)


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
    got = _error_nmse(truth, truth - est)
    assert got[0] == 0.0 and got[1] == 1.0
    assert abs(got[2] - np.sqrt(2)) < 1e-15
    zero = np.zeros((1, 2), dtype=complex)
    with pytest.raises(UndefinedMetricError):
        _error_nmse(zero, zero - np.ones((1, 2), dtype=complex))


SHAPES = [(50, 5), (256, 32)]


@pytest.mark.parametrize("N, K", SHAPES)
def test_nmse_rows_match_per_row_norms(N, K):
    rng = np.random.default_rng(N)
    truth, est = crandn(rng, 40, K), crandn(rng, 40, K)
    est[3] = truth[3]  # an exact estimate
    ref = [np.linalg.norm(t - e) / np.linalg.norm(t) for t, e in zip(truth, est)]
    np.testing.assert_array_equal(_error_nmse(truth, truth - est), ref)
    truth[5] = 0
    with pytest.raises(UndefinedMetricError):
        _error_nmse(truth, truth - est)


def assert_close_to_largest(got, ref, rtol=1e-12):
    # entrywise gaps measured against the largest entry of the reference
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("N, K", SHAPES)
def test_blue_estimate_matches_per_item_cholesky_solves(N, K):
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
        for t in range(T):
            rep = blue_estimate(cols[t], noise, y[t])
            ria = solve(cols[t])
            gram = cols[t].conj().T @ ria
            factor = cho_factor(0.5 * (gram + gram.conj().T), lower=True)
            ref_cov = cho_solve(factor, np.eye(K))
            ref_cov = 0.5 * (ref_cov + ref_cov.conj().T)
            assert_close_to_largest(rep.alpha_hat, cho_solve(factor, ria.conj().T @ y[t]))
            assert_close_to_largest(rep.covariance, ref_cov)
            assert rep.mse == pytest.approx(np.trace(ref_cov).real, rel=1e-12)


def _stack_with_singular_item(rng, T, N, K):
    cols, y = crandn(rng, T, N, K), crandn(rng, T, N)
    if K > 1:
        cols[2, :, 1] = cols[2, :, 0]  # identical columns
    else:
        cols[2] = 0  # a zero column
    return cols, y


def _assert_items_equal(got, want, t, u):
    # item t of one blue_gram result against item u of another, bit for
    # bit: estimate, trace, cause code, condition number and L^-1
    for field, ref in zip(got, want):
        np.testing.assert_array_equal(field[t], ref[u])


def _kspace(cols, noise, y):
    # the Grams and matched filters A^H R^-1 A and A^H R^-1 y blue_gram takes
    ria, gram = _gram_stack(cols, noise)
    return gram, (ria.conj().swapaxes(-1, -2) @ y[..., None])[..., 0]


def test_blue_gram_items_match_single_estimates():
    # each item is estimated as if alone, and a singular item fails alone
    rng = np.random.default_rng(23)
    for T, N, K in ((6, 20, 3), (3, 256, 32)):
        cols = crandn(rng, T, N, K)
        cols[1, :, 1] = cols[1, :, 0]  # identical columns
        y = crandn(rng, T, N)
        for noise in (NoiseModel.scaled_identity(0.1, N), NoiseModel(covariance=random_spd(rng, N))):
            alpha_hat, mse, cause, cond, chol_inv = blue_gram(*_kspace(cols, noise, y))
            cov = estimator._hermitian(chol_inv.conj().swapaxes(-1, -2) @ chol_inv)  # L^-H L^-1
            for t in range(T):
                if t == 1:
                    assert cause[t] != CLEARED
                    assert np.isnan(mse[t]) and np.all(np.isnan(alpha_hat[t]))
                    with pytest.raises(SingularModelError) as alone:
                        blue_estimate(cols[t], noise, y[t])
                    assert str(alone.value) == str(_refusal(cause[t], cond[t]))
                    continue
                rep = blue_estimate(cols[t], noise, y[t])
                assert cause[t] == CLEARED
                np.testing.assert_array_equal(alpha_hat[t], rep.alpha_hat)
                np.testing.assert_array_equal(cov[t], rep.covariance)
                assert mse[t] == rep.mse


def _shared_blue(q, z, d):
    # the sweep's BLUE of the models A = S Diag(d), from one factor of each
    # steering Gram Q and the normals z: the factor's arrays, then (err,
    # trace, cause, cond)
    factor = _path_factor(q, z)
    return (*factor, *_blue_scaled(q, factor, d))


@pytest.mark.parametrize("N, K", [*SHAPES, (50, 1)])
def test_blue_gram_items_do_not_depend_on_the_stack(N, K):
    rng = np.random.default_rng(N * K + 1)
    T = 7
    cols, y = _stack_with_singular_item(rng, T, N, K)
    d = crandn(rng, T, K)
    for noise in (NoiseModel.scaled_identity(0.1, N), NoiseModel(covariance=random_spd(rng, N))):
        gram, b = _kspace(cols, noise, y)
        # blue_gram on the Grams, and the sweep's helpers with them as one
        # group's steering Grams Q and b as z; the cause code is field 2
        # of blue_gram's result and field 5 of the helpers'
        for blue, at in ((lambda rows: blue_gram(gram[rows], b[rows]), 2),
                         (lambda rows: _shared_blue(gram[rows], b[rows], d[rows]), 5)):
            full = blue(slice(None))
            cause = full[at]
            assert cause.dtype == np.int8 and cause[2] != CLEARED
            assert np.count_nonzero(cause == CLEARED) == T - 1
            for t in range(T):
                _assert_items_equal(blue(slice(t, t + 1)), full, 0, t)
            part = blue(slice(1, 4))
            for t in range(3):
                _assert_items_equal(part, full, t, t + 1)


def test_blue_gram_factors_items_alone_when_the_stacked_cholesky_fails():
    rng = np.random.default_rng(43)
    T, N, K = 6, 20, 3
    cols, y = _stack_with_singular_item(rng, T, N, K)
    gram, b = _kspace(cols, NoiseModel.scaled_identity(0.1, N), y)
    clean = blue_gram(gram, b)
    gram[4] = -gram[4]  # indefinite, with the same finite condition number
    assert np.isfinite(_condition_numbers(gram)[4])
    got = blue_gram(gram, b)
    alpha_hat, mse, cause, cond, chol_inv = got
    assert cause[4] == NOT_POSITIVE_DEFINITE
    assert np.isnan(mse[4]) and np.all(np.isnan(alpha_hat[4])) and np.all(np.isnan(chol_inv[4]))
    with pytest.raises(SingularModelError, match="^Gram matrix is not positive definite$"):
        _blue_one(gram[4], b[4])
    assert cause[2] == ILL_CONDITIONED
    for t in (0, 1, 2, 3, 5):
        _assert_items_equal(got, clean, t, t)


def _mode_paths(block, mode, gamma):
    """A mode's normalized coefficients d, true reflectivities and group of paths, per trial."""
    if mode == "los_only":
        h_los, alpha_los = block["h_los"], block["alpha_los"]
        d = h_los * np.sqrt(gamma) / np.abs(alpha_los * h_los)
        return d[:, None], alpha_los[:, None], slice(0, 1)
    raw, alpha = block["csi"][mode], block["alpha"]
    return raw / np.abs(_project(alpha, raw))[:, None], alpha, slice(1, None)


@pytest.mark.parametrize("n, k", SHAPES)
def test_shared_factor_matches_blue_gram_on_each_models_gram(n, k):
    # every mode's BLUE, read off its group's one factor of Q, against
    # blue_gram on the mode's own Gram D^H Q D and matched filter
    # D^H (Q D alpha + v), formed explicitly with v = L z from the group's
    # Q = L L^H and normals z.  Besides the drawn trials,
    # one with two nearly coincident Dopplers, the stack holds a trial
    # whose d has a zero entry and one whose Q is indefinite.  Cause codes
    # and screened condition numbers agree bit for bit, and the records of
    # a kept trial within 64 K eps cond(G): crb_trace relative to itself,
    # nmse, already relative to ||alpha||, times 1 + nmse
    T, gamma = 8, 0.3
    thetas = np.random.default_rng(k).uniform(0.0, 6.0, (k, 4))
    s = Scenario(n=n, k=k, m=4, gamma=gamma, trials=T, master_seed=9, fixed_theta=thetas)
    block = _draw_block(s, 0, range(T))
    block["u"][1, 1:3] = 0.1, 0.1 + 1e-9  # two reflected paths 1e-9 cycles apart
    models = _path_models(block, s._noise)
    for mode in LINK_MODES:
        d, truth, paths = _mode_paths(block, mode, gamma)
        qp, zp = models["direct" if mode == "los_only" else "reflected"][0], block["z"][:, paths]
        qs = np.concatenate([qp, qp[:1], -qp[2:3]])  # the last Q indefinite
        zs, ds, ts = (np.concatenate([x, x[:1], x[2:3]]) for x in (zp, d, truth))
        vs = noise_matched_filter(qs, zs)  # nan where Q has no factor
        ds[T, 0] = 0  # a path with no coefficient
        err, trace, cause, cond = _blue_scaled(qs, _path_factor(qs, zs), ds)
        gram = estimator._hermitian(ds.conj()[:, :, None] * qs * ds[:, None, :])
        b = ds.conj() * ((qs @ (ds * ts)[..., None])[..., 0] + vs)
        alpha_hat, mse, want_cause, want_cond, _ = blue_gram(gram, b)
        np.testing.assert_array_equal(cause, want_cause, err_msg=mode)
        np.testing.assert_array_equal(cond, want_cond, err_msg=mode)
        assert cause[T] == ILL_CONDITIONED and cause[T + 1] == NOT_POSITIVE_DEFINITE
        assert cause[1] == (CLEARED if mode == "los_only" else ILL_CONDITIONED)
        ok = cause == CLEARED
        assert ok.sum() == (T if mode == "los_only" else T - 1)
        assert np.all(np.isnan(trace[~ok])) and np.all(np.isnan(err[~ok]))
        tol = 64 * d.shape[1] * np.finfo(float).eps * np.linalg.cond(gram[ok])
        np.testing.assert_array_less(np.abs(trace[ok] - mse[ok]), tol * mse[ok])
        scale = np.linalg.norm(ts[ok], axis=1)
        got = np.linalg.norm(err[ok], axis=1) / scale
        want = np.linalg.norm(alpha_hat[ok] - ts[ok], axis=1) / scale
        np.testing.assert_array_less(np.abs(got - want), tol * (1 + want))
        # the harness reads the drawn trials' records off the same factor
        records, mode_cause, mode_cond = _estimate_mode(mode, block, models, gamma)
        np.testing.assert_array_equal(mode_cause, cause[:T])
        np.testing.assert_array_equal(mode_cond, cond[:T])
        np.testing.assert_array_equal(records[2], trace[:T])
        np.testing.assert_array_equal(records[0], _error_nmse(ts[:T], err[:T]))


@pytest.mark.parametrize("K", [1, 5, 32])
def test_cholesky_factors_fall_back_item_by_item(K):
    # one stacked factorization; when an item is indefinite, each item is
    # factored alone, in the same bits, and the indefinite one is flagged
    rng = np.random.default_rng(K)
    T = 6
    A = crandn(rng, T, 2 * K, K)
    gram = estimator._hermitian(A.conj().swapaxes(-1, -2) @ A)
    stacked, all_factored = _cholesky_factors(gram)
    assert all_factored.all()
    gram[3] = -gram[3]
    factors, factored = _cholesky_factors(gram)
    np.testing.assert_array_equal(factored, np.arange(T) != 3)
    assert np.all(np.isnan(factors[3]))
    for t in range(T):
        alone, ok = _cholesky_factors(gram[t:t + 1])
        assert ok[0] == factored[t]
        np.testing.assert_array_equal(alone[0], factors[t])
        if factored[t]:
            np.testing.assert_array_equal(factors[t], stacked[t])


def _eigvalsh_screen(gram):
    # the refusals an eigenvalue screen alone gives: the condition number
    # max|lambda| / min|lambda| of eigvalsh against CONDITION_LIMIT, and
    # the message each refusal raises, None where the Gram passes
    messages = []
    for lam in np.abs(np.linalg.eigvalsh(gram)):
        cond = lam.max() / lam.min() if lam.min() > 0 else np.inf
        messages.append(None if cond <= CONDITION_LIMIT else
                        f"Gram matrix condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    return messages


def _raised_messages(calls):
    # the message of the SingularModelError each call raises, None where it returns
    out = []
    for call in calls:
        try:
            call()
            out.append(None)
        except SingularModelError as exc:
            out.append(str(exc))
    return out


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
    # and item by item, and still gives the eigenvalue screen's cause codes
    want = _eigvalsh_screen(gram)
    want_cause = [CLEARED if m is None else ILL_CONDITIONED for m in want]
    b = crandn(rng, len(cols), K)
    full = blue_gram(gram, b)
    np.testing.assert_array_equal(full[2], want_cause)
    for t in range(len(cols)):
        alone = blue_gram(gram[t:t + 1], b[t:t + 1])
        np.testing.assert_array_equal(alone[2], want_cause[t:t + 1])
        np.testing.assert_array_equal(alone[3], full[3][t:t + 1])
    # and a refused model raises the eigenvalue screen's message, byte for
    # byte, through _blue_one and the library entries that take one model
    assert _raised_messages(lambda g=g, v=v: _blue_one(g, v) for g, v in zip(gram, b)) == want
    for f in (fisher_information, estimator_mse):
        assert _raised_messages(lambda A=A: f(A, noise) for A in cols) == want


def test_run_trial_raises_the_screens_messages():
    # the trials of the golden exclusions case that run_trial refuses,
    # each with its message byte for byte
    s = Scenario(n=10, k=10, m=2, trials=24, master_seed=1, doppler_min_gap=0)
    want = {
        (2, "nlos_random", 1): "Gram matrix condition number 1.709e+15 exceeds 1e+12",
        (2, "nlos_random", 15): "Gram matrix condition number 2.621e+12 exceeds 1e+12",
        (2, "nlos_random", 20): "Gram matrix condition number 2.922e+14 exceeds 1e+12",
        (2, "nlos_optimal", 1): "Gram matrix condition number 1.488e+15 exceeds 1e+12",
        (2, "nlos_optimal", 20): "Gram matrix condition number 4.778e+14 exceeds 1e+12",
    }
    got = {}
    for i, gamma in enumerate((1e-3, 0.3, 30.0)):
        for mode in SWEEP_MODES:
            scenario = replace(s, link_mode=mode, gamma=gamma)
            for t in range(s.trials):
                try:
                    run_trial(scenario, t, i)
                except SingularModelError as exc:
                    got[i, mode, t] = str(exc)
    assert got == want


def test_well_conditioned_grams_skip_the_eigenvalue_screen(monkeypatch):
    seen = []  # the size of each stack that reaches the eigenvalue screen
    real = estimator._condition_numbers

    def counting(gram):
        seen.append(len(gram))
        return real(gram)

    monkeypatch.setattr(estimator, "_condition_numbers", counting)
    powers = np.full(65, 1e-2)  # the default gamma and sigma2 of every row
    records, cause, _ = _evaluate_block(Scenario(), SWEEP_MODES, 0, range(65), powers, powers)
    assert np.all(np.isfinite(records))
    assert np.all(cause == estimator.CLEARED)
    assert sum(seen) == 0
    # the exclusions record case: its near-singular Grams are screened
    s = Scenario(n=10, k=10, m=2, trials=24, master_seed=1, doppler_min_gap=0)
    res = _sweep(s, "gamma", (1e-3, 0.3, 30.0), SWEEP_MODES)
    assert res.excluded.sum() > 0
    assert sum(seen) >= 1

"""Monte-Carlo harness: pairing, reproducibility, and aggregate behavior."""
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from irsradar import estimator, harness
from irsradar.channel import IrsPanel, compose_paths, wrap_phase
from irsradar.errors import DegeneratePathError, GenerationError, SingularModelError
from irsradar.estimator import NoiseModel, blue_stack
from irsradar.harness import (
    LINK_MODES,
    MODE_LABELS,
    POWER_RANGE,
    SWEEP_MODES,
    Scenario,
    _draw_block,
    _dopplers,
    _estimate_mode,
    _point_trials,
    _project,
    _steering_gram,
    _sweep,
    run_trial,
    sweep_gamma,
    sweep_noise,
)
from irsradar.phaseopt import optimal_phases

from csi_draws import crandn

SMALL = dict(n=20, k=3, m=4, trials=8)


def random_panels(rng, k=3, m=4):
    return tuple(IrsPanel(g=crandn(rng, m), h=crandn(rng, m)) for _ in range(k))


def test_scenario_defaults():
    s = Scenario()
    assert (s.n, s.k, s.m) == (50, 5, 10)
    assert s.trials == 1000
    assert s.doppler_range == (-0.5, 0.5)
    assert s.min_gap_cycles == pytest.approx(1.0 / 200.0)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(n=0)
    with pytest.raises(ValueError):
        Scenario(k=60, n=50)
    with pytest.raises(ValueError):
        Scenario(sigma2=0.0)
    with pytest.raises(ValueError):
        Scenario(gamma=-1.0)
    for bad in (-1, 2**64, 2**70):
        with pytest.raises(ValueError, match="master_seed"):
            Scenario(master_seed=bad)
    Scenario(master_seed=2**64 - 1)
    with pytest.raises(ValueError):
        Scenario(link_mode="nlos_psychic")
    with pytest.raises(ValueError):
        Scenario(nlos_form="cubed")
    with pytest.raises(ValueError):
        Scenario(doppler_range=(0.5, 0.5))
    with pytest.raises(ValueError):
        Scenario(k=5, doppler_min_gap=0.3)  # 5 paths cannot fit
    with pytest.raises(ValueError):
        Scenario(link_mode="nlos_fixed")  # no fixed phases supplied
    with pytest.raises(ValueError):
        Scenario(noise_cov=np.eye(3), n=50)
    # powers outside the supported range under- or overflow in the engine
    for field, bad in (("gamma", 1e-320), ("gamma", 1e31), ("sigma2", 1e-320), ("sigma2", 1e31)):
        with pytest.raises(ValueError, match=rf"{field} must .*\[1e-30, 1e\+30\]"):
            Scenario(**{field: bad})
    for edge in POWER_RANGE:
        Scenario(gamma=edge, sigma2=edge)


def test_scenario_rejects_nonfinite_and_blocked_los():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            Scenario(gamma=bad)
        with pytest.raises(ValueError, match="sigma2"):
            Scenario(sigma2=bad)
    with pytest.raises(ValueError, match="los_only"):
        Scenario(link_mode="los_only", gamma=0.0)
    Scenario(link_mode="nlos_optimal", gamma=0.0)  # blocked LoS, reflected paths only


def test_doppler_inputs_must_be_finite():
    # a nan gap made both separation comparisons False and switched the check off
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="doppler_min_gap"):
            Scenario(doppler_min_gap=bad)
        for rng in ((-bad, 0.5), (-0.5, bad), (bad, bad)):
            with pytest.raises(ValueError, match="doppler_range"):
                Scenario(doppler_range=rng)


def test_fixed_panels_must_be_finite():
    # fails at construction, not in the first trial
    with pytest.raises(ValueError, match="panel g"):
        Scenario(fixed_panels=(IrsPanel(g=[np.nan, 1, 1, 1], h=np.ones(4)),) * 3, n=20, k=3, m=4)


def test_fixed_panels_must_not_be_dead():
    # a panel with beta * conj(g) * h all zero composes to zero for every phase
    live = random_panels(np.random.default_rng(5))
    dead = (IrsPanel(g=np.zeros(4), h=np.ones(4)),
            IrsPanel(g=[1, 0, 1, 0], h=[0, 1, 0, 1]),
            IrsPanel(g=np.ones(4), h=np.ones(4), beta=np.zeros(4)))
    for panel in dead:
        with pytest.raises(ValueError, match=r"fixed_panels \[1\]"):
            Scenario(n=20, k=3, m=4, fixed_panels=(live[0], panel, live[2]))
    with pytest.raises(ValueError, match=r"fixed_panels \[0, 1, 2\]"):
        Scenario(n=20, k=3, m=4, fixed_panels=(dead[0],) * 3)


def test_fixed_panels_power_must_lie_in_power_range():
    # far outside the range every composition under- or overflows, so
    # every trial would burn the scene budget or come out non-finite
    for value, form in ((1e-100, "magnitude_squared"), (1e-100, "complex"),
                        (1e100, "complex"), (1e160, "complex"), (1e160, "magnitude_squared")):
        far = (IrsPanel(g=np.full(4, value), h=np.full(4, value)),) * 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"fixed_panels \[0, 1, 2\] .*\[1e-30, 1e\+30\]"):
                Scenario(n=20, k=3, m=4, fixed_panels=far, nlos_form=form)
    live = random_panels(np.random.default_rng(5))
    big = IrsPanel(g=np.full(4, 1e10), h=np.full(4, 1e10))  # (4e20)^2 = 1.6e41
    with pytest.raises(ValueError, match=r"fixed_panels \[2\]"):
        Scenario(n=20, k=3, m=4, fixed_panels=(*live[:2], big))
    # (sum_m |g_m h_m|)^2 = 16 a^4 just inside either edge gives finite records
    for edge, inside in zip(POWER_RANGE, (1.01, 0.99)):
        a = (inside * edge / 16) ** 0.25
        panels = (IrsPanel(g=np.full(4, a), h=np.full(4, a)),) * 3
        for form in ("complex", "magnitude_squared"):
            rec = run_trial(Scenario(n=20, k=3, m=4, fixed_panels=panels, nlos_form=form), 0)
            assert np.all(np.isfinite([rec.nmse, rec.mse, rec.crb_trace]))


def test_unit_phasors_match_the_exponential():
    rng = np.random.default_rng(6)
    words = np.concatenate([rng.integers(0, 2**64, 5000, dtype=np.uint64, endpoint=False),
                            np.array([0, 1, 2**11, 2**40, 2**63, 2**64 - 1], np.uint64)])
    u = (words >> np.uint64(11)).astype(float) / 2.0**53
    got = harness._unit_phasors(words)
    np.testing.assert_allclose(got, np.exp(2j * np.pi * u), rtol=0, atol=4e-15)
    assert got[-6] == 1.0  # u = 0 turns by nothing
    np.testing.assert_array_equal(harness._unit_phasors(words.reshape(2, -1)).ravel(), got)


def test_project_matches_per_trial_dot():
    # the stacked alpha^T c gives each trial's alpha[t] @ c[t] bits
    rng = np.random.default_rng(3)
    for K in (5, 32):
        alpha, c = crandn(rng, 40, K), crandn(rng, 40, K)
        for cs in (c, np.broadcast_to(c[0], c.shape)):  # shared by every trial
            got = _project(alpha, cs)
            for t in range(len(alpha)):
                assert got[t] == alpha[t] @ cs[t]


def test_optimal_rows_ignore_phase_policy():
    base = dict(n=20, k=3, m=4, trials=30, master_seed=1)
    zeros = tuple(np.zeros(4) for _ in range(3))
    plain = sweep_gamma(Scenario(**base), [0.1])
    with_policy = sweep_gamma(Scenario(**base, fixed_theta=zeros), [0.1])
    for lab in plain.modes:
        for field in ("nmse", "mse", "crb_trace"):
            np.testing.assert_array_equal(
                with_policy.records[lab][field], plain.records[lab][field]
            )


def test_run_trial_deterministic():
    s = Scenario(**SMALL, master_seed=7)
    assert run_trial(s, 3) == run_trial(s, 3)
    assert run_trial(s, 3) != run_trial(s, 4)


def test_paired_modes_share_draws():
    # everything random is identical across link modes at the same keys
    base = dict(**SMALL, master_seed=11, gamma=0.3)
    drawn = [
        _draw_block(Scenario(link_mode=m, **base), 2, [5])
        for m in ("los_only", "nlos_random", "nlos_optimal")
    ]
    b0 = drawn[0]
    for b in drawn[1:]:
        for key in ("x", "u", "w", "alpha", "h_los", "alpha_los"):
            np.testing.assert_array_equal(b[key], b0[key])
        assert b["csi"].keys() == b0["csi"].keys()  # composed csi per reflected mode
        for mode in b0["csi"]:
            np.testing.assert_array_equal(b["csi"][mode], b0["csi"][mode])


def test_waveform_frozen_across_trials():
    s = Scenario(**SMALL, freeze_waveform=True)
    x0 = _draw_block(s, 0, [0])["x"][0]
    x9 = _draw_block(s, 0, [9])["x"][0]
    np.testing.assert_array_equal(x0, x9)
    s2 = Scenario(**SMALL)
    x9b = _draw_block(s2, 0, [9])["x"][0]
    assert np.max(np.abs(x9b - x0)) > 1e-3


def test_doppler_draws_respect_gap_and_range():
    s = Scenario(n=25, k=4, m=2, trials=1, doppler_range=(0.1, 0.4), doppler_min_gap=0.02)
    span = 0.3
    block = _draw_block(s, 0, range(300))
    assert not block["failed"]
    for u in block["u"]:
        assert u.size == 5
        assert np.all((u >= 0.1) & (u < 0.4))
        srt = np.sort(u[1:])  # the direct path is unconstrained
        seps = np.concatenate([np.diff(srt), [srt[0] + span - srt[-1]]])
        assert seps.min() >= 0.02


def test_near_span_gap_draws_every_trial():
    # 5 * 0.19 leaves 5% of the circle free, which a rejection sampler
    # almost never hits; the spacings draw needs no retry
    s = Scenario(n=20, k=5, m=2, trials=1, doppler_min_gap=0.19)
    block = _draw_block(s, 0, range(2000))
    assert not block["failed"] and block["drawn"].size == 2000
    u = block["u"]
    assert np.all((u >= -0.5) & (u < 0.5))
    srt = np.sort(u[:, 1:], axis=1)
    seps = np.concatenate([np.diff(srt, axis=1), srt[:, :1] + 1.0 - srt[:, -1:]], axis=1)
    assert seps.min() >= 0.19
    run_trial(s, 0)


def test_dopplers_guard_rounding_at_the_edges():
    # spacings that land exactly on the floor, and values that round up to hi
    k, lo, hi, gap = 4, 0.1, 0.4, 0.07
    tiny = np.nextafter(1.0, 0.0)
    u = np.array([[tiny, 0.0, 0.0, 0.0, tiny, 0.1, 0.2, 0.3, 0.4],
                  [0.0, 0.5, 0.5, 0.5, 0.0, 0.4, 0.3, 0.2, 0.1],
                  [0.5, tiny, tiny, tiny, 0.999999, 0.0, 0.0, 0.0, 0.0],
                  [0.25, 1 / 3, 2 / 3, 0.5, 1 - 2**-53, 0.9, 0.1, 0.5, 0.3]])
    nu = _dopplers(u, lo, hi, k, gap)
    assert np.all((nu >= lo) & (nu < hi))
    srt = np.sort(nu[:, 1:], axis=1)
    seps = np.concatenate([np.diff(srt, axis=1), srt[:, :1] + (hi - lo) - srt[:, -1:]], axis=1)
    assert seps.min() >= gap


def _rejection_dopplers(rng, count, k, gap):
    # the law the spacings draw reproduces: k uniforms on the circle [-0.5,
    # 0.5), kept when every circular separation reaches the gap
    out = []
    while len(out) < count:
        u = rng.uniform(-0.5, 0.5, (4 * count, k))
        srt = np.sort(u, axis=1)
        seps = np.concatenate([np.diff(srt, axis=1), srt[:, :1] + 1.0 - srt[:, -1:]], axis=1)
        out.extend(u[seps.min(axis=1) >= gap])
    return np.array(out[:count])


def test_spacings_draw_matches_rejection_sampler():
    from scipy import stats

    k, gap, count = 3, 0.15, 3000
    s = Scenario(n=20, k=k, m=2, trials=1, doppler_min_gap=gap, master_seed=21)
    ours = _draw_block(s, 0, range(count))["u"][:, 1:]
    ref = _rejection_dopplers(np.random.default_rng(21), count, k, gap)

    def min_gap(u):
        srt = np.sort(u, axis=1)
        seps = np.concatenate([np.diff(srt, axis=1), srt[:, :1] + 1.0 - srt[:, -1:]], axis=1)
        return seps.min(axis=1)

    assert stats.ks_2samp(min_gap(ours), min_gap(ref)).pvalue > 1e-3
    assert stats.ks_2samp(ours[:, 1], ref[:, 1]).pvalue > 1e-3


def test_noiseless_limit_recovers_truth():
    for mode in SWEEP_MODES:
        s = Scenario(**SMALL, link_mode=mode, sigma2=1e-16, gamma=0.5)
        for t in range(4):
            assert run_trial(s, t).nmse < 1e-6


def test_los_mean_matches_theory():
    # alpha_hat - alpha is CN(0, sigma2/(N*gamma)), so the mean NMSE is
    # sqrt(pi/4) * sqrt(sigma2 / (N * gamma))
    s = Scenario(n=40, k=3, m=2, trials=600, link_mode="los_only", gamma=0.2, sigma2=1e-2)
    res = sweep_gamma(s, [0.2])
    expect = np.sqrt(np.pi / 4.0) * np.sqrt(s.sigma2 / (s.n * 0.2))
    got = res.mean_nmse["los"][0]
    assert abs(got - expect) < 3.0 * res.stderr_nmse["los"][0]


def test_sweep_matches_run_trial():
    tpl = Scenario(**SMALL, master_seed=3)
    res = sweep_gamma(tpl, [0.05, 2.0])
    for i, g in enumerate([0.05, 2.0]):
        for mode in SWEEP_MODES:
            lab = MODE_LABELS[mode]
            s = Scenario(n=20, k=3, m=4, trials=8, master_seed=3, link_mode=mode, gamma=g)
            for t in range(tpl.trials):
                rec = run_trial(s, t, axis_index=i)
                assert res.records[lab]["nmse"][i, t] == rec.nmse
                assert res.records[lab]["mse"][i, t] == rec.mse
                assert res.records[lab]["crb_trace"][i, t] == rec.crb_trace


def test_sweep_deterministic_and_worker_independent():
    tpl = Scenario(n=20, k=3, m=4, trials=40, master_seed=5)
    a = sweep_gamma(tpl, [0.01, 1.0])
    b = sweep_gamma(tpl, [0.01, 1.0])
    c = sweep_gamma(tpl, [0.01, 1.0], workers=2)
    for lab in a.modes:
        np.testing.assert_array_equal(a.mean_nmse[lab], b.mean_nmse[lab])
        np.testing.assert_array_equal(a.mean_nmse[lab], c.mean_nmse[lab])
        np.testing.assert_array_equal(a.records[lab]["mse"], c.records[lab]["mse"])
    np.testing.assert_array_equal(a.excluded, c.excluded)


def test_optimal_never_worse_than_random_per_trial():
    tpl = Scenario(n=24, k=3, m=6, trials=60, master_seed=2)
    res = sweep_gamma(tpl, [1e-3, 1e-1, 1e1])
    opt = res.records["nlos_optimal"]["mse"]
    rnd = res.records["nlos_random"]["mse"]
    assert np.all(opt <= rnd + 1e-15)


def test_mean_ordering_across_master_seeds():
    for seed in range(5):
        tpl = Scenario(n=30, k=3, m=6, trials=150, master_seed=seed)
        res = sweep_gamma(tpl, [1e-2])
        assert res.mean_nmse["nlos_optimal"][0] <= res.mean_nmse["nlos_random"][0]


def test_stderr_shrinks_with_trials():
    lo = sweep_noise(Scenario(n=20, k=3, m=4, trials=300, master_seed=9), [1e-2])
    hi = sweep_noise(Scenario(n=20, k=3, m=4, trials=1200, master_seed=9), [1e-2])
    for lab in lo.modes:
        ratio = lo.stderr_nmse[lab][0] / hi.stderr_nmse[lab][0]
        assert 1.4 < ratio < 2.9  # expect about 2 at 4x the trials


def test_noise_sweep_nondecreasing_within_two_se():
    tpl = Scenario(n=20, k=3, m=4, trials=300, master_seed=4, gamma=1e-2)
    grid = np.logspace(-5, 0, 6)
    res = sweep_noise(tpl, grid)
    for lab in res.modes:
        m, se = res.mean_nmse[lab], res.stderr_nmse[lab]
        for j in range(1, grid.size):
            slack = 2.0 * np.hypot(se[j], se[j - 1])
            assert m[j] >= m[j - 1] - slack


def test_exclusions_are_counted_and_masked(monkeypatch):
    # a condition limit low enough that a sizeable fraction of trials fail
    monkeypatch.setattr(estimator, "CONDITION_LIMIT", 7.0)
    tpl = Scenario(n=20, k=5, m=2, trials=40, master_seed=1, doppler_min_gap=0.155)
    res = sweep_gamma(tpl, [0.5])
    assert 0 < res.excluded[0] < 40
    assert res.included[0] + res.excluded[0] == 40
    nan_count = int(np.isnan(res.records["los"]["nmse"][0]).sum())
    assert nan_count == res.excluded[0]
    for lab in res.modes:
        assert np.isfinite(res.mean_nmse[lab][0])


def test_sweep_axis_validation():
    tpl = Scenario(**SMALL)
    with pytest.raises(ValueError):
        sweep_gamma(tpl, [])
    with pytest.raises(ValueError):
        sweep_gamma(tpl, [1e-2, 0.0])
    with pytest.raises(ValueError):
        sweep_noise(tpl, [-1.0])


def test_fixed_panels_replayed_every_trial():
    panels = random_panels(np.random.default_rng(0))
    s = Scenario(n=20, k=3, m=4, trials=3, fixed_panels=panels)
    g, h = np.stack([p.g for p in panels]), np.stack([p.h for p in panels])
    expect = compose_paths(g, h, wrap_phase(optimal_phases(g, h)), np.ones((3, 4)), s.nlos_form)
    block = _draw_block(s, 0, range(3))
    for t in range(3):
        # the optimal composition is a function of the panels alone
        np.testing.assert_array_equal(block["csi"]["nlos_optimal"][t], expect)
    a0, a1 = block["alpha"][:2]
    assert np.max(np.abs(a0 - a1)) > 1e-3  # reflectivities still vary


def test_fixed_policy_with_optimal_thetas_matches_optimal_mode():
    panels = random_panels(np.random.default_rng(8))
    thetas = tuple(optimal_phases(p.g, p.h) for p in panels)
    common = dict(n=20, k=3, m=4, trials=1, gamma=0.1, fixed_panels=panels)
    opt = run_trial(Scenario(link_mode="nlos_optimal", **common), 0)
    fix = run_trial(
        Scenario(link_mode="nlos_fixed", fixed_theta=thetas, **common),
        0,
    )
    assert fix == opt


def test_explicit_noise_covariance_matches_scaled_identity():
    s_id = Scenario(**SMALL, sigma2=0.05)
    s_cov = Scenario(**SMALL, sigma2=0.05, noise_cov=0.05 * np.eye(20))
    for t in range(4):
        a, b = run_trial(s_id, t), run_trial(s_cov, t)
        assert a.nmse == pytest.approx(b.nmse, rel=1e-12)
        assert a.mse == pytest.approx(b.mse, rel=1e-12)


def test_fixed_policy_must_match_k_and_m():
    zeros = np.zeros(4)
    with pytest.raises(ValueError, match=r"fixed_theta has 2 theta vectors.*k=3 of m=4"):
        Scenario(n=20, k=3, m=4, fixed_theta=(zeros,) * 2)
    with pytest.raises(ValueError, match=r"fixed_theta .*length 5.*k=3 of m=4"):
        Scenario(n=20, k=3, m=4, fixed_theta=(np.zeros(5),) * 3)
    for mode in ("los_only", "nlos_optimal", "nlos_fixed"):
        run_trial(Scenario(n=20, k=3, m=4, link_mode=mode, fixed_theta=(zeros,) * 3), 0)


def test_noise_cov_eigenvalues_must_lie_in_power_range():
    # far outside the range the noise solve under- or overflows, and every
    # trial fails or comes out non-finite
    for bad in (1e-320 * np.eye(20), 1e-40 * np.eye(20), 1e200 * np.eye(20), -np.eye(20)):
        with pytest.raises(ValueError, match=r"noise_cov .*\[1e-30, 1e\+30\]"):
            Scenario(n=20, k=3, m=4, noise_cov=bad)
    with pytest.raises(ValueError, match="noise_cov entries must be finite"):
        Scenario(n=20, k=3, m=4, noise_cov=np.full((20, 20), np.inf))
    for edge in POWER_RANGE:
        rec = run_trial(Scenario(n=20, k=3, m=4, noise_cov=edge * np.eye(20)), 0)
        assert np.all(np.isfinite([rec.nmse, rec.mse, rec.crb_trace]))


def test_scenarios_with_array_fields_compare_by_value():
    rng = np.random.default_rng(17)
    theta = rng.uniform(0.0, 6.0, (3, 4))
    panels = random_panels(rng)
    cov = np.diag(np.linspace(0.01, 0.2, 20))
    cases = {  # field: (value, an equal copy, a different value)
        "fixed_theta": (tuple(theta), tuple(theta.copy()), tuple(theta + 0.5)),
        "noise_cov": (cov, cov.copy(), 2.0 * cov),
        "fixed_panels": (panels, tuple(IrsPanel(g=p.g.copy(), h=p.h.copy()) for p in panels),
                         random_panels(rng)),
    }
    for field, (value, same, other) in cases.items():
        s = Scenario(**SMALL, **{field: value})
        assert (s == Scenario(**SMALL, **{field: same})) is True
        assert (s == Scenario(**SMALL, **{field: other})) is False
        assert (s != Scenario(**SMALL, **{field: other})) is True
        assert (s == Scenario(**SMALL)) is False
        assert (replace(s, gamma=0.5) == s) is False
        assert (replace(s, gamma=s.gamma) == s) is True
    assert Scenario(**SMALL) != "a scenario"


def test_noise_sweep_rejects_noise_cov():
    tpl = Scenario(**SMALL, noise_cov=0.05 * np.eye(20))
    with pytest.raises(ValueError, match="noise_cov"):
        sweep_noise(tpl, [1e-4, 1e-1])


@pytest.mark.parametrize("block_trials", [None, 1, 7])
def test_exclusion_mask_matches_run_trial(monkeypatch, block_trials):
    # a limit low enough that a fair share of the reflected Grams exceed it
    monkeypatch.setattr(estimator, "CONDITION_LIMIT", 7.0)
    tpl = Scenario(n=20, k=3, m=4, trials=30, master_seed=2)
    if block_trials is not None:
        monkeypatch.setattr(harness, "_block_trials", lambda scenario: block_trials)
    gammas = [1e-2, 1.0]
    res = sweep_gamma(tpl, gammas)
    singular = np.zeros((len(gammas), tpl.trials), dtype=bool)
    expect = {MODE_LABELS[m]: np.full((3, len(gammas), tpl.trials), np.nan) for m in SWEEP_MODES}
    for i, g in enumerate(gammas):
        for t in range(tpl.trials):
            recs = {}
            for mode in SWEEP_MODES:
                try:
                    recs[MODE_LABELS[mode]] = run_trial(replace(tpl, link_mode=mode, gamma=g), t, i)
                except SingularModelError:
                    singular[i, t] = True
            if not singular[i, t]:
                for lab, rec in recs.items():
                    expect[lab][:, i, t] = (rec.nmse, rec.mse, rec.crb_trace)
    assert 0.2 <= singular.mean() <= 0.8
    for lab in res.modes:
        for j, field in enumerate(("nmse", "mse", "crb_trace")):
            got = res.records[lab][field]
            np.testing.assert_array_equal(np.isnan(got), singular)
            np.testing.assert_array_equal(got, expect[lab][j])
    np.testing.assert_array_equal(res.excluded, singular.sum(axis=1))


def test_block_trials_follow_the_largest_array():
    # N x (k + 1) steering columns set the size at large N and k, k x M
    # panel draws at large M
    assert harness._block_trials(Scenario(n=256, k=32, m=64)) >= 3
    assert harness._block_trials(Scenario()) >= 60  # a default sweep point is one block
    assert harness._block_trials(Scenario(m=2000)) <= 4
    assert harness._block_trials(Scenario(m=20000)) == 1


def _traced_peak(run):
    """The peak bytes tracemalloc sees during run(), after a first untraced call."""
    run()  # builds the draw's cached tables, which every later call reuses
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _point(tpl, trials):
    scenarios = [replace(tpl, link_mode=mode) for mode in SWEEP_MODES]
    return lambda: _point_trials((scenarios, 0, 0, trials))


def test_large_m_point_memory_is_bounded():
    # an N x K rule put all 65 trials in one block, which traced 27 MiB,
    # mostly k x M panel draws
    tpl = Scenario(n=50, k=5, m=500, trials=65, master_seed=3)
    assert _traced_peak(_point(tpl, tpl.trials)) < 6 * 2**20


def test_large_n_block_memory_stays_at_the_old_blocks():
    # at the large benchmark's shape the N x K rule made blocks of 2 trials,
    # which traced 871107 bytes; a block of the current rule holds more
    # trials in about the same memory (slack: 64 KiB)
    tpl = Scenario(n=256, k=32, m=64, trials=8, master_seed=3)
    step = harness._block_trials(tpl)
    assert step >= 3
    assert _traced_peak(_point(tpl, step)) <= 871107 + 64 * 1024


def test_fixed_policy_must_be_finite():
    for bad in (np.nan, np.inf, -np.inf):
        thetas = (np.array([0.0, bad, 0.0, 0.0]),) + (np.zeros(4),) * 2
        with pytest.raises(ValueError, match="fixed_theta"):
            Scenario(n=20, k=3, m=4, fixed_theta=thetas)


def test_sweeps_need_two_trials(monkeypatch):
    tpl = Scenario(**dict(SMALL, trials=1))
    run_trial(tpl, 0)  # one trial on its own stays legal

    def no_draws(*args):
        raise AssertionError("a trial was evaluated")

    monkeypatch.setattr(harness, "_evaluate_block", no_draws)
    for run in (
        lambda: sweep_gamma(tpl, [0.1]),
        lambda: sweep_noise(tpl, [1e-2]),
        lambda: _sweep(tpl, "gamma", [0.1], ("nlos_optimal",)),
    ):
        with pytest.raises(ValueError, match="trials"):
            run()


def _philox_words(seed, axis_index, stream, t, count, attempt=0):
    # a fresh generator at the documented counter of trial t's range
    width = -(-count // 4)
    bitgen = np.random.Philox(key=np.array([seed, axis_index], np.uint64),
                              counter=np.array([t * width, stream, attempt, 0], np.uint64))
    return bitgen.random_raw(4 * width)[:count]


def _unit_uniforms(words):
    return (words >> np.uint64(11)).astype(float) / 2.0**53


@pytest.mark.parametrize("freeze", [False, True])
def test_block_words_sit_at_their_counters(freeze):
    n, k, sigma2 = 20, 3, 0.05
    s = Scenario(n=n, k=k, m=4, sigma2=sigma2, master_seed=2**64 - 5, freeze_waveform=freeze)
    block = _draw_block(s, 7, range(40, 49))
    assert block["drawn"].tolist() == list(range(9))
    for i in (0, 4, 8):  # the block's start, middle and end
        t = 40 + i
        code = _unit_uniforms(_philox_words(s.master_seed, 7, 0, 0 if freeze else t, n))
        np.testing.assert_array_equal(block["x"][i], np.exp(1j * (2.0 * np.pi * code)))
        doppler = _unit_uniforms(_philox_words(s.master_seed, 7, 1, t, 2 * k + 1))
        np.testing.assert_array_equal(block["u"][i], _dopplers(doppler[None], -0.5, 0.5, k,
                                                               s.min_gap_cycles)[0])
        u = _unit_uniforms(_philox_words(s.master_seed, 7, 3, t, 2 * n)).reshape(n, 2)
        noise = np.sqrt(-np.log1p(-u[:, 0])) * np.exp(1j * (2.0 * np.pi * u[:, 1]))
        # the draw turns by tables, within a few eps of the direct exponential
        np.testing.assert_allclose(block["w"][i], np.sqrt(sigma2) * noise, rtol=0, atol=1e-14)


def test_draw_block_takes_trials_in_any_order():
    # each run of consecutive trials is one range; any list gives each
    # trial its own draw
    s = Scenario(**SMALL, master_seed=9)
    order = [9, 2, 3, 4, 0, 17, 16]
    block = _draw_block(s, 1, order)
    assert block["drawn"].tolist() == list(range(len(order)))
    for i, t in enumerate(order):
        single = _draw_block(s, 1, [t])
        for key in ("x", "u", "w", "alpha", "h_los", "alpha_los"):
            np.testing.assert_array_equal(block[key][i], single[key][0])
        for mode in single["csi"]:
            np.testing.assert_array_equal(block["csi"][mode][i], single["csi"][mode][0])


DRAW_CASES = {
    "plain": dict(n=20, k=3, m=4),
    "fixed_panels": dict(n=20, k=3, m=4, fixed_panels=random_panels(np.random.default_rng(5))),
    "noise_cov": dict(n=20, k=3, m=4, noise_cov=np.diag(np.linspace(0.01, 0.2, 20))
                      + 0.004 * np.ones((20, 20))),
    "freeze_waveform": dict(n=20, k=3, m=4, freeze_waveform=True),
    "fixed_policy": dict(n=20, k=3, m=4, link_mode="nlos_fixed",
                         fixed_theta=np.linspace(-7.0, 7.0, 12).reshape(3, 4)),
    "magnitude_squared": dict(n=20, k=3, m=4, nlos_form="magnitude_squared"),
    "doppler_redraws": dict(n=20, k=5, m=2, doppler_min_gap=0.155),
    # drawn with every composed coefficient patched to zero
    "degenerate_scene": dict(n=20, k=3, m=4, fixed_panels=random_panels(np.random.default_rng(6)),
                             nlos_form="magnitude_squared"),
    # the large benchmark's N and k, where the rule's blocks hold several
    # trials and the last one fewer
    "large_n_and_k": dict(n=256, k=32, m=2, trials=8),
}


@pytest.mark.parametrize("block_trials", [None, 1, 7])
@pytest.mark.parametrize("case", sorted(DRAW_CASES))
def test_draw_block_matches_blocks_of_one(case, block_trials, monkeypatch):
    s = Scenario(**{"trials": 20, "master_seed": 4, **DRAW_CASES[case]})
    if case == "degenerate_scene":
        real = harness.compose_paths
        monkeypatch.setattr(harness, "compose_paths", lambda *args: 0 * real(*args))
    step = block_trials or harness._block_trials(s)
    if case == "large_n_and_k" and block_trials is None:
        assert 1 < step < s.trials
    got = {}  # trial -> its fields, or the exception that excluded it
    for lo in range(0, s.trials, step):
        block = _draw_block(s, 3, range(lo, min(lo + step, s.trials)))
        for j, err in block["failed"].items():
            got[lo + j] = err
        for i, j in enumerate(block["drawn"].tolist()):
            got[lo + j] = block, i
    assert sorted(got) == list(range(s.trials))
    for t in range(s.trials):
        single = _draw_block(s, 3, [t])
        if single["failed"]:
            assert type(got[t]) is type(single["failed"][0])
            assert str(got[t]) == str(single["failed"][0])
            continue
        block, i = got[t]
        for key in ("x", "u", "alpha", "w"):
            np.testing.assert_array_equal(block[key][i], single[key][0])
        for key in ("h_los", "alpha_los"):
            assert block[key].shape == (len(block["drawn"]),) and block[key].dtype == complex
            assert block[key][i] == single[key][0]
        assert block["csi"].keys() == single["csi"].keys()
        for mode in single["csi"]:
            np.testing.assert_array_equal(block["csi"][mode][i], single["csi"][mode][0])
    excluded = sum(1 for v in got.values() if isinstance(v, GenerationError))
    if case == "degenerate_scene":
        assert excluded == s.trials
    else:
        assert excluded == 0


def _full_noise_cov(n):
    rng = np.random.default_rng(n + 7)
    B = crandn(rng, n, n)
    return 0.02 * np.eye(n) + (0.05 / n) * (B @ B.conj().T)


@pytest.mark.parametrize("full_noise", [False, True], ids=["scaled_identity", "noise_cov"])
@pytest.mark.parametrize("n, k", [(20, 3), (50, 5), (256, 32)])
def test_estimate_mode_matches_blue_on_rebuilt_models(n, k, full_noise):
    # the K-space estimate against blue_stack on A = Diag(x) P(nu) Diag(c)
    # and y = A alpha + w rebuilt per trial from the block's draws
    m, T, gamma = 4, 6, 0.3
    thetas = np.random.default_rng(k).uniform(0.0, 6.0, (k, m))
    s = Scenario(n=n, k=k, m=m, gamma=gamma, sigma2=0.05, trials=T, master_seed=8,
                 fixed_theta=thetas, noise_cov=_full_noise_cov(n) if full_noise else None)
    block = _draw_block(s, 1, range(T))
    q, v = _steering_gram(block, s._noise)
    rows = np.arange(block["drawn"].size)
    assert rows.size == T
    noise = NoiseModel(covariance=s.noise_cov) if full_noise else NoiseModel.scaled_identity(0.05, n)
    pulses = np.arange(n)[:, None]
    for mode in LINK_MODES:
        records, errors = _estimate_mode(replace(s, link_mode=mode), block, q, v, rows)
        assert errors == [None] * T
        for t in rows:
            if mode == "los_only":
                nus = block["u"][t, :1]
                truth = np.array([block["alpha_los"][t]])
                norm = abs(block["alpha_los"][t] * block["h_los"][t]) / np.sqrt(gamma)
                coef = np.array([block["h_los"][t]]) / norm
            else:
                nus = block["u"][t, 1:]
                truth = block["alpha"][t]
                norm = abs(truth @ block["csi"][mode][t])
                coef = block["csi"][mode][t] / norm
            steer = np.exp(2j * np.pi * pulses * nus[None, :])
            A = np.diag(block["x"][t]) @ steer @ np.diag(coef)
            y = A @ truth + block["w"][t]
            alpha_hat, _, mse, ref_errors = blue_stack(A[None], noise, y[None])
            assert ref_errors == [None]
            nmse = np.linalg.norm(truth - alpha_hat[0]) / np.linalg.norm(truth)
            np.testing.assert_allclose(records[0, t], nmse, rtol=1e-8, err_msg=mode)
            np.testing.assert_allclose(records[1, t], mse[0] / norm**2, rtol=1e-10, err_msg=mode)
            np.testing.assert_allclose(records[2, t], mse[0], rtol=1e-10, err_msg=mode)


def test_estimate_mode_checks_coefficients():
    s = Scenario(n=20, k=3, m=4, trials=4, master_seed=3, link_mode="nlos_random")
    block = _draw_block(s, 0, range(4))
    q, v = _steering_gram(block, s._noise)
    rows = np.arange(4)
    _estimate_mode(s, block, q, v, rows)  # the draw as it is passes
    csi = block["csi"]["nlos_random"]
    csi[2, 1] = np.nan
    # the rules run before the normalization, so numpy never warns on the NaN
    with pytest.raises(ValueError, match="must be finite"):
        _estimate_mode(s, block, q, v, rows)
    csi[2, 1] = 0.0
    with pytest.raises(DegeneratePathError):
        _estimate_mode(s, block, q, v, rows)


@pytest.mark.parametrize("full_noise", [False, True], ids=["scaled_identity", "noise_cov"])
def test_whitened_noise_is_chi_square(full_noise):
    # the noise part of a mode's matched filter, D^H v, is CN(0, G) with
    # G = D^H Q D = L L^H, so ||L^-1 D^H v||^2 ~ Gamma(K, 1) whatever the
    # scene (Kay 1993, ch. 6); its mean over T trials is K within sqrt(K/T)
    s = Scenario(gamma=0.3, trials=400, noise_cov=_full_noise_cov(50) if full_noise else None)
    for axis_index in range(3):
        block = _draw_block(s, axis_index, range(s.trials))
        q, v = _steering_gram(block, s._noise)
        for mode in SWEEP_MODES:
            if mode == "los_only":
                h_los, alpha_los = np.array(block["h_los"]), np.array(block["alpha_los"])
                d = (h_los * np.sqrt(s.gamma) / np.abs(alpha_los * h_los))[:, None]
                paths = slice(0, 1)
            else:
                raw = block["csi"][mode]
                d = raw / np.abs(_project(block["alpha"], raw))[:, None]
                paths = slice(1, None)
            qp, vp = q[:, paths, paths], v[:, paths]
            gram = estimator._hermitian(d.conj()[:, :, None] * qp * d[:, None, :])
            b = d.conj() * vp
            _, _, errors, chol_inv = estimator.blue_gram(gram, b)
            ok = np.array([e is None for e in errors])
            white = (chol_inv @ b[ok][..., None])[..., 0]
            stat = np.sum(np.abs(white) ** 2, axis=1)
            K, T = d.shape[1], stat.size
            assert T >= 0.95 * s.trials
            assert abs(stat.mean() - K) <= 5.0 * np.sqrt(K / T), (axis_index, mode)

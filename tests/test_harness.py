"""Monte-Carlo harness: pairing, reproducibility, and aggregate behavior."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsradar import estimator, harness
from irsradar.channel import IrsPanel, crandn, draw_csi, nlos_coefficient
from irsradar.errors import GenerationError, SingularModelError
from irsradar.harness import (
    MODE_LABELS,
    SWEEP_MODES,
    Scenario,
    _draw_block,
    _HashedSeed,
    _project,
    _seed_states,
    _sweep,
    run_trial,
    sweep_gamma,
    sweep_noise,
)
from irsradar.phaseopt import PhasePolicy, apply_policy, optimal_phases

SMALL = dict(n=20, k=3, m=4, trials=8)


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
    with pytest.raises(ValueError):
        Scenario(master_seed=-1)
    with pytest.raises(ValueError):
        Scenario(link_mode="nlos_psychic")
    with pytest.raises(ValueError):
        Scenario(nlos_form="cubed")
    with pytest.raises(ValueError):
        Scenario(doppler_range=(0.5, 0.5))
    with pytest.raises(ValueError):
        Scenario(k=5, doppler_min_gap=0.3)  # 5 paths cannot fit
    with pytest.raises(ValueError):
        Scenario(link_mode="nlos_fixed")  # no fixed policy supplied
    with pytest.raises(ValueError):
        Scenario(noise_cov=np.eye(3), n=50)


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
    live = draw_csi(4, 3, 5)[1]
    dead = (IrsPanel(g=np.zeros(4), h=np.ones(4)),
            IrsPanel(g=[1, 0, 1, 0], h=[0, 1, 0, 1]),
            IrsPanel(g=np.ones(4), h=np.ones(4), beta=np.zeros(4)))
    for panel in dead:
        with pytest.raises(ValueError, match=r"fixed_panels \[1\]"):
            Scenario(n=20, k=3, m=4, fixed_panels=(live[0], panel, live[2]))
    with pytest.raises(ValueError, match=r"fixed_panels \[0, 1, 2\]"):
        Scenario(n=20, k=3, m=4, fixed_panels=(dead[0],) * 3)


def test_project_matches_per_trial_dot():
    # the stacked alpha^T c gives each trial's alpha[t] @ c[t] bits
    rng = np.random.default_rng(3)
    for K in (5, 32):
        alpha, c = crandn(rng, 40, K), crandn(rng, 40, K)
        for cs in (c, np.broadcast_to(c[0], c.shape)):  # shared by every trial
            got = _project(alpha, cs)
            for t in range(len(alpha)):
                assert got[t] == alpha[t] @ cs[t]


def test_phase_policy_must_be_fixed():
    # only nlos_fixed reads phase_policy; a random one would draw unseeded phases
    for kind in ("random", "optimal"):
        with pytest.raises(ValueError, match="phase_policy"):
            Scenario(**SMALL, link_mode="nlos_optimal", phase_policy=PhasePolicy(kind=kind))


def test_optimal_rows_ignore_phase_policy():
    base = dict(n=20, k=3, m=4, trials=30, master_seed=1)
    zeros = tuple(np.zeros(4) for _ in range(3))
    fixed = PhasePolicy(kind="fixed", fixed_theta=zeros)
    plain = sweep_gamma(Scenario(**base), [0.1])
    with_policy = sweep_gamma(Scenario(**base, phase_policy=fixed), [0.1])
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
        for key in ("x", "u", "w", "alpha"):
            np.testing.assert_array_equal(b[key], b0[key])
        assert b["h_los"] == b0["h_los"]
        assert b["alpha_los"] == b0["alpha_los"]
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


def test_doppler_budget_exhaustion_raises():
    # feasible in principle (5 * 0.19 < 1) but vanishingly unlikely per draw
    s = Scenario(n=20, k=5, m=2, trials=1, doppler_min_gap=0.19)
    with pytest.raises(GenerationError):
        run_trial(s, 0)


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


def test_exclusions_are_counted_and_masked():
    # gap chosen so a sizeable fraction of trials exhausts the budget
    tpl = Scenario(n=20, k=5, m=2, trials=40, master_seed=1, doppler_min_gap=0.155)
    res = sweep_gamma(tpl, [0.5])
    assert res.excluded[0] > 0
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
    rng = np.random.default_rng(0)
    _, panels, _, _ = draw_csi(4, 3, rng)
    s = Scenario(n=20, k=3, m=4, trials=3, fixed_panels=panels)
    aligned = apply_policy(panels, PhasePolicy(kind="optimal"))
    expect = np.array([nlos_coefficient(p, s.nlos_form) for p in aligned])
    block = _draw_block(s, 0, range(3))
    for t in range(3):
        # the optimal composition is a function of the panels alone
        np.testing.assert_array_equal(block["csi"]["nlos_optimal"][t], expect)
    a0, a1 = block["alpha"][:2]
    assert np.max(np.abs(a0 - a1)) > 1e-3  # reflectivities still vary


def test_fixed_policy_with_optimal_thetas_matches_optimal_mode():
    rng = np.random.default_rng(8)
    _, panels, _, _ = draw_csi(4, 3, rng)
    thetas = tuple(optimal_phases(p.g, p.h) for p in panels)
    common = dict(n=20, k=3, m=4, trials=1, gamma=0.1, fixed_panels=panels)
    opt = run_trial(Scenario(link_mode="nlos_optimal", **common), 0)
    fix = run_trial(
        Scenario(
            link_mode="nlos_fixed",
            phase_policy=PhasePolicy(kind="fixed", fixed_theta=thetas),
            **common,
        ),
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
    with pytest.raises(ValueError, match=r"2 theta vectors.*k=3 of m=4"):
        Scenario(n=20, k=3, m=4, phase_policy=PhasePolicy(kind="fixed", fixed_theta=(zeros,) * 2))
    with pytest.raises(ValueError, match=r"length 5.*k=3 of m=4"):
        Scenario(n=20, k=3, m=4,
                 phase_policy=PhasePolicy(kind="fixed", fixed_theta=(np.zeros(5),) * 3))
    fixed = PhasePolicy(kind="fixed", fixed_theta=(zeros,) * 3)
    for mode in ("los_only", "nlos_optimal", "nlos_fixed"):
        run_trial(Scenario(n=20, k=3, m=4, link_mode=mode, phase_policy=fixed), 0)


def test_noise_sweep_rejects_noise_cov():
    tpl = Scenario(**SMALL, noise_cov=0.05 * np.eye(20))
    with pytest.raises(ValueError, match="noise_cov"):
        sweep_noise(tpl, [1e-4, 1e-1])


@pytest.mark.parametrize("block_trials", [None, 1, 7])
def test_exclusion_mask_matches_run_trial(monkeypatch, block_trials):
    # a limit low enough that a fair share of the reflected Grams exceed it
    monkeypatch.setattr(estimator, "CONDITION_LIMIT", 7.0)
    tpl = Scenario(n=20, k=3, m=4, trials=30, master_seed=2)
    if block_trials is not None and hasattr(harness, "BLOCK_BYTES"):
        monkeypatch.setattr(harness, "BLOCK_BYTES", 16 * tpl.n * tpl.k * block_trials)
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


def test_fixed_policy_must_be_finite():
    for bad in (np.nan, np.inf, -np.inf):
        thetas = (np.array([0.0, bad, 0.0, 0.0]),) + (np.zeros(4),) * 2
        with pytest.raises(ValueError, match="phase_policy"):
            Scenario(n=20, k=3, m=4, phase_policy=PhasePolicy(kind="fixed", fixed_theta=thetas))


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


_KEY_ENTRY = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**200)
)


@settings(deadline=None)
@given(st.lists(st.lists(_KEY_ENTRY, max_size=7).map(tuple), min_size=1, max_size=6))
@example([(2**32, 0, 0, 0)])
@example([(2**64 + 3, 1, 2, 3), (0, 1, 2, 3), (5,), ()])
def test_seed_states_match_seed_sequence(keys):
    states = _seed_states(keys)
    assert states.shape == (len(keys), 4) and states.dtype == np.uint64
    for key, state in zip(keys, states):
        ref = np.random.SeedSequence(key)
        np.testing.assert_array_equal(state, ref.generate_state(4, np.uint64))
        ours = np.random.Generator(np.random.PCG64(_HashedSeed(state)))
        np.testing.assert_array_equal(
            ours.integers(2**63, size=3), np.random.default_rng(ref).integers(2**63, size=3)
        )


def _degenerate_panels():
    # Scenario rejects panels with no nonzero element, but a squared path
    # magnitude of ~1e-400 still underflows to exactly zero on every draw
    return tuple(IrsPanel(g=np.full(4, 1e-100), h=np.full(4, 1e-100)) for _ in range(3))


DRAW_CASES = {
    "plain": dict(n=20, k=3, m=4),
    "fixed_panels": dict(n=20, k=3, m=4, fixed_panels=draw_csi(4, 3, 5)[1]),
    "noise_cov": dict(n=20, k=3, m=4, noise_cov=np.diag(np.linspace(0.01, 0.2, 20))
                      + 0.004 * np.ones((20, 20))),
    "freeze_waveform": dict(n=20, k=3, m=4, freeze_waveform=True),
    "fixed_policy": dict(n=20, k=3, m=4, link_mode="nlos_fixed", phase_policy=PhasePolicy(
        kind="fixed", fixed_theta=tuple(np.linspace(-7.0, 7.0, 12).reshape(3, 4)))),
    "magnitude_squared": dict(n=20, k=3, m=4, nlos_form="magnitude_squared"),
    "doppler_redraws": dict(n=20, k=5, m=2, doppler_min_gap=0.155),
    "degenerate_scene": dict(n=20, k=3, m=4, fixed_panels=_degenerate_panels(),
                             nlos_form="magnitude_squared"),
}


@pytest.mark.parametrize("block_trials", [None, 1, 7])
@pytest.mark.parametrize("case", sorted(DRAW_CASES))
def test_draw_block_matches_blocks_of_one(case, block_trials):
    s = Scenario(trials=20, master_seed=4, **DRAW_CASES[case])
    step = block_trials or max(1, harness.BLOCK_BYTES // (16 * s.n * s.k))
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
            assert type(block[key][i]) is complex
            assert block[key][i] == single[key][0]
        assert block["csi"].keys() == single["csi"].keys()
        for mode in single["csi"]:
            np.testing.assert_array_equal(block["csi"][mode][i], single["csi"][mode][0])
    excluded = sum(1 for v in got.values() if isinstance(v, GenerationError))
    if case == "doppler_redraws":
        assert 0 < excluded < s.trials
    elif case == "degenerate_scene":
        assert excluded == s.trials
    else:
        assert excluded == 0

"""Monte-Carlo harness: pairing, reproducibility, and aggregate behavior."""
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsradar import estimator, harness
from irsradar.channel import NLOS_FORMS, IrsPanel, compose_paths, wrap_phase
from irsradar.errors import GenerationError, SingularModelError
from irsradar.estimator import NoiseModel, blue_estimate
from irsradar.harness import (
    LINK_MODES,
    MODE_LABELS,
    POWER_RANGE,
    SWEEP_MODES,
    Scenario,
    _draw_block,
    _dopplers,
    _estimate_mode,
    _path_models,
    _project,
    _sweep,
    run_trial,
    sweep_gamma,
    sweep_noise,
)
from irsradar.phaseopt import optimal_phases

from csi_draws import crandn, noise_matched_filter

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
    # each message names the failing field, in the CLI's wording
    for key in ("n", "k", "m", "trials"):
        with pytest.raises(ValueError, match=f"^{key} must be positive$"):
            Scenario(**{key: 0})
    with pytest.raises(ValueError, match="k must not exceed n"):
        Scenario(k=60, n=50)
    with pytest.raises(ValueError, match="sigma2"):
        Scenario(sigma2=0.0)
    with pytest.raises(ValueError, match="gamma"):
        Scenario(gamma=-1.0)
    for bad in (-1, 2**64, 2**70):
        with pytest.raises(ValueError, match="master_seed"):
            Scenario(master_seed=bad)
    Scenario(master_seed=2**64 - 1)
    with pytest.raises(ValueError, match="link mode"):
        Scenario(link_mode="nlos_psychic")
    with pytest.raises(ValueError, match=r"^nlos_form must be one of \(.*\), got 'cubed'$"):
        Scenario(nlos_form="cubed")
    with pytest.raises(ValueError, match="doppler_range"):
        Scenario(doppler_range=(0.5, 0.5))
    with pytest.raises(ValueError, match="doppler_min_gap"):
        Scenario(k=5, doppler_min_gap=0.3)  # 5 paths cannot fit
    with pytest.raises(ValueError, match="fixed_theta"):
        Scenario(link_mode="nlos_fixed")  # no fixed phases supplied
    # powers outside the supported range under- or overflow in the engine
    for field, bad in (("gamma", 1e-320), ("gamma", 1e31), ("sigma2", 1e-320), ("sigma2", 1e31)):
        with pytest.raises(ValueError, match=rf"{field} must .*\[1e-30, 1e\+30\]"):
            Scenario(**{field: bad})
    for edge in POWER_RANGE:
        Scenario(gamma=edge, sigma2=edge)


def test_scenario_counts_must_be_integers():
    # a fractional count or seed would build a Gram for 20.5 pulses, reseed
    # a run silently, or fail deep inside the draw
    for key, bad in (("n", 20.5), ("k", 2.5), ("m", 4.0), ("trials", 8.5),
                     ("master_seed", 1.5), ("master_seed", "1")):
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            Scenario(**{**SMALL, key: bad})
    s = Scenario(**{**SMALL, "n": np.int64(20), "k": np.int32(3), "master_seed": np.uint64(7)})
    assert run_trial(s, 0) == run_trial(Scenario(**SMALL, master_seed=7), 0)


def test_scenario_rejects_nonfinite_and_blocked_los():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma"):
            Scenario(gamma=bad)
        with pytest.raises(ValueError, match="sigma2"):
            Scenario(sigma2=bad)
    with pytest.raises(ValueError, match="los_only"):
        Scenario(link_mode="los_only", gamma=0.0)
    Scenario(link_mode="nlos_optimal", gamma=0.0)  # blocked LoS, reflected paths only


def test_non_real_inputs_are_named():
    # numpy orders complex numbers lexicographically, so a complex gamma
    # passed the power rule and the direct link then dropped its imaginary
    # part with a ComplexWarning; a complex sigma2 raised a bare TypeError
    # from float(); fixed_theta's complex entries warned and were cast, and
    # its strings were parsed silently, as were a sweep's string values
    theta = np.zeros((3, 4))
    cases = [
        ("gamma", dict(gamma=1 + 1j, link_mode="los_only")),
        ("gamma", dict(gamma=np.complex128(1e-2))),
        ("gamma", dict(gamma="1e-2")),
        ("sigma2", dict(sigma2=1e-2 + 1j)),
        ("sigma2", dict(sigma2="1e-2")),
        ("sigma2", dict(sigma2=None)),
        ("fixed_theta", dict(fixed_theta=theta + 1j)),
        ("fixed_theta", dict(fixed_theta=[[1j, 0, 0, 0], *theta[1:]])),
        ("fixed_theta", dict(fixed_theta=[["0"] * 4] * 3)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, fields in cases:
            message = f"^{name} (must be a real number, got |entries must be real numbers$)"
            with pytest.raises(ValueError, match=message):
                Scenario(**SMALL, **fields)
        for axis in ("gamma", "sigma2"):
            for values in ([1e-2, 1e-2 + 1j], np.array([1e-2 + 0j]), ["1e-2"]):
                with pytest.raises(ValueError, match=f"^{axis} values must be real numbers$"):
                    _sweep(Scenario(**SMALL), axis, values, SWEEP_MODES)
        # a float32 gamma rounded the direct link's normalization to float32
        los = dict(SMALL, link_mode="los_only")
        assert run_trial(Scenario(**los, gamma=np.float32(0.5), sigma2=1), 0) == \
            run_trial(Scenario(**los, gamma=0.5, sigma2=1.0), 0)


def _first_point_error(tpl, axis, values, modes):
    """The message of the first (point, mode) Scenario that raises, as built point by point."""
    for value in values:
        for mode in modes:
            try:
                replace(tpl, link_mode=mode, **{axis: float(value)})
            except ValueError as exc:
                return str(exc)
    return None


@pytest.mark.parametrize("axis, values, modes", [
    ("gamma", (0.1, 0.0, 1e40), SWEEP_MODES),  # the los mode's rule comes first
    ("gamma", (0.1, 1e40, 0.0), SWEEP_MODES),
    ("gamma", (0.1, 0.0, 1e40), ("nlos_random", "nlos_optimal")),  # 0 is legal there
    ("gamma", (0.1, 0.2, np.nan), ("nlos_optimal", "los_only")),
    ("sigma2", (1e-2, 1e-3, 0.0, np.inf), SWEEP_MODES),
    ("sigma2", (1e-2, np.nan), ("los_only",)),
])
def test_sweeps_raise_the_first_bad_points_error(axis, values, modes, monkeypatch):
    # the swept values are checked as one array, before any trial runs, and
    # raise what building each point's Scenario in turn would
    def no_trials(*args):
        raise AssertionError("a trial was evaluated")

    monkeypatch.setattr(harness, "_evaluate_block", no_trials)
    tpl = Scenario(**SMALL)
    want = _first_point_error(tpl, axis, values, modes)
    assert want is not None and _first_point_error(tpl, axis, values[:1], modes) is None
    with pytest.raises(ValueError) as exc:
        _sweep(tpl, axis, values, modes)
    assert str(exc.value) == want


def test_doppler_inputs_must_be_finite():
    # a nan gap made both separation comparisons False and switched the check off
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="doppler_min_gap"):
            Scenario(doppler_min_gap=bad)
        for rng in ((-bad, 0.5), (-0.5, bad), (bad, bad)):
            with pytest.raises(ValueError, match="doppler_range"):
                Scenario(doppler_range=rng)


def test_overflowing_doppler_range_is_named():
    # a finite range whose span, or the draw's rounding margin on it,
    # overflows used to be blamed on doppler_min_gap, or at k = 1 to be
    # accepted and exclude every trial
    for rng in ((-1e308, 1e308), (-8.9e307, 8.9e307), (np.float64(-1e308), np.float64(1e308))):
        for k in (1, 5):
            with pytest.raises(ValueError, match="^doppler_range"):
                Scenario(k=k, doppler_range=rng)
    # a range wider than one cycle is rejected whatever its size
    with pytest.raises(ValueError, match="^doppler_range"):
        Scenario(k=1, n=1, doppler_range=(-1e300, 1e300))


def test_doppler_range_spans_at_most_one_cycle():
    # the steering vectors and the closed-form Gram see nu only modulo one
    # cycle, so on a wider range the separation floor would not separate
    # the paths, and the records would alias without an error
    for rng in ((-50.0, 50.0), (-0.5, 0.5 + 1e-9), (0.0, 2.0)):
        with pytest.raises(ValueError, match="^doppler_range must span at most one cycle"):
            Scenario(doppler_range=rng)
    for rng in ((-0.5, 0.5), (0.0, 1.0), (3.0, 4.0), (0.1, 0.4)):
        run_trial(Scenario(n=20, k=3, m=4, doppler_range=rng), 0)


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


def test_fixed_phases_on_replayed_panels_must_not_cancel():
    # with fixed_theta and fixed_panels the nlos_fixed coefficients are the
    # same in every trial, so a panel whose fixed composition is 0, or far
    # below POWER_RANGE, would be degenerate, or its Gram refused, in every
    # trial; Scenario names it instead
    live = IrsPanel(g=[1, 2], h=[1, 1])
    cancelling = IrsPanel(g=[1, 1], h=[1, -1])  # conj(g) h sums to 0 at theta = 0
    zeros = np.zeros((2, 2))
    with pytest.raises(ValueError, match=r"^fixed_panels \[1\] have fixed path power .* of 0, "
                                         r"outside \[1e-30, 1e\+30\]$"):
        Scenario(n=20, k=2, m=2, fixed_panels=(live, cancelling), fixed_theta=zeros)
    with pytest.raises(ValueError, match=r"^fixed_panels \[0, 1\] have fixed path power"):
        Scenario(n=20, k=2, m=2, fixed_panels=(cancelling,) * 2, fixed_theta=zeros)
    # e^{j pi / 2} rounds, so these phases leave a residue of about 1e-16
    with pytest.raises(ValueError, match=r"^fixed_panels \[0\] have fixed path power"):
        Scenario(n=20, k=2, m=2, fixed_panels=(IrsPanel(g=[1, 1j], h=[1, 1]), live),
                 fixed_theta=[[0.0, np.pi / 2], [0.0, 0.0]])
    # other phases, or no fixed phases, leave the same panels legal
    for theta in ([[0.0, 0.0], [0.0, np.pi]], None):
        s = Scenario(n=20, k=2, m=2, trials=3, fixed_panels=(live, cancelling), fixed_theta=theta)
        for mode in ("nlos_random", "nlos_optimal") + (("nlos_fixed",) if theta else ()):
            rec = run_trial(replace(s, link_mode=mode), 0)
            assert np.all(np.isfinite([rec.nmse, rec.mse, rec.crb_trace]))


_LATTICE = st.sampled_from((1, -1, 1j, -1j, 2))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(), k=st.integers(1, 3), m=st.integers(1, 4), form=st.sampled_from(NLOS_FORMS))
def test_replayed_panels_with_fixed_phases_give_finite_records(data, k, m, form):
    # g and h on a small lattice and phases of 0 or pi / 2 make exact
    # cancellations, and near ones, common: a Scenario either refuses the
    # panels by name or gives finite records in every mode it admits
    rows = st.lists(st.lists(_LATTICE, min_size=m, max_size=m), min_size=k, max_size=k)
    g, h = data.draw(rows), data.draw(rows)
    theta = data.draw(st.lists(st.lists(st.sampled_from((0.0, np.pi / 2)), min_size=m,
                                        max_size=m), min_size=k, max_size=k))
    panels = tuple(IrsPanel(g=gi, h=hi) for gi, hi in zip(g, h))
    try:
        s = Scenario(n=16, k=k, m=m, trials=2, fixed_panels=panels, fixed_theta=theta,
                     nlos_form=form)
    except ValueError as exc:
        assert str(exc).startswith("fixed_panels ")
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in LINK_MODES:
            for t in range(s.trials):
                rec = run_trial(replace(s, link_mode=mode), t)
                assert np.all(np.isfinite([rec.nmse, rec.mse, rec.crb_trace])), mode


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


def test_an_unresolvable_doppler_range_is_refused_at_construction(monkeypatch):
    # a range on which k paths spread evenly, taken as their best-conditioned
    # placement, have a steering Gram the condition screen refuses is
    # refused by name before any draw; built without the check, such a
    # scenario keeps no row of its sweep, which ran every block and failed
    # only at the end
    base = dict(n=50, k=5, m=10, trials=200)
    for width in (1e-6, 1e-3):
        fields = dict(base, doppler_range=(0.0, width), doppler_min_gap=width / 10)
        with pytest.raises(ValueError, match=r"^doppler_range .* (condition number|not positive)"):
            Scenario(**fields)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_check_doppler_span", lambda *args: None)
            s = Scenario(**fields)
        rows = np.arange(s.trials)
        _, cause, _ = harness._evaluate_block(s, SWEEP_MODES, 0, rows, np.full(rows.size, s.gamma),
                                              np.full(rows.size, s.sigma2))
        assert not np.any(cause == estimator.CLEARED)
        with pytest.raises(GenerationError, match="lost almost all trials"):
            sweep_gamma(s, [s.gamma])
    for width in (1e-2, 3e-2):
        Scenario(**base, doppler_range=(0.0, width), doppler_min_gap=width / 10)
    # the golden exclusions case, whose paths may coincide, stays accepted
    Scenario(n=10, k=10, m=2, trials=24, master_seed=1, doppler_min_gap=0)


def test_run_trial_deterministic():
    s = Scenario(**SMALL, master_seed=7)
    assert run_trial(s, 3) == run_trial(s, 3)
    assert run_trial(s, 3) != run_trial(s, 4)


def test_run_trial_gives_the_sweep_bits_at_one_path_and_element():
    # at k = m = 1 a row's conj(g) h phasor is a one-element array, which
    # numpy's complex multiply rounds differently from the same element in
    # a longer one; run_trial, a block of one row, still gives the bits the
    # sweep records for the trial
    words = _philox_words(3, 0, 2, 0, 1000)
    stacked = harness._unit_phasors(words)
    for i in range(words.size):
        assert harness._unit_phasors(words[i:i + 1])[0] == stacked[i]
    s = Scenario(n=8, k=1, m=1, trials=40, master_seed=3)
    res = sweep_gamma(s, [0.1])
    expect, _ = _rows_by_run_trial(s, "gamma", [0.1])
    for lab in res.modes:
        for j, field in enumerate(("nmse", "mse", "crb_trace")):
            np.testing.assert_array_equal(res.records[lab][field], expect[lab][j], err_msg=lab)


def test_paired_modes_share_draws():
    # everything random is identical across link modes at the same keys
    base = dict(**SMALL, master_seed=11, gamma=0.3)
    drawn = [
        _draw_block(Scenario(link_mode=m, **base), 2, [5])
        for m in ("los_only", "nlos_random", "nlos_optimal")
    ]
    b0 = drawn[0]
    keys = ["u", "z", "alpha", "h_los", "alpha_los"]
    assert sorted(b0) == sorted(keys + ["drawn", "csi"])
    for b in drawn[1:]:
        for key in keys:
            np.testing.assert_array_equal(b[key], b0[key])
        assert b["csi"].keys() == b0["csi"].keys()  # composed csi per reflected mode
        for mode in b0["csi"]:
            np.testing.assert_array_equal(b["csi"][mode], b0["csi"][mode])


def test_doppler_draws_respect_gap_and_range():
    s = Scenario(n=25, k=4, m=2, trials=1, doppler_range=(0.1, 0.4), doppler_min_gap=0.02)
    span = 0.3
    block = _draw_block(s, 0, range(300))
    assert block["drawn"].size == 300
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
    assert block["drawn"].size == 2000
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

    def log_stderr(nmse):
        logs = np.log(nmse[~np.isnan(nmse)])
        return np.std(logs, ddof=1) / np.sqrt(logs.size)

    for lab in lo.modes:
        for res in (lo, hi):  # the reported stderr is the records' sample stderr
            nm = res.records[lab]["nmse"][0]
            se = np.nanstd(nm, ddof=1) / np.sqrt(np.count_nonzero(~np.isnan(nm)))
            assert res.stderr_nmse[lab][0] == pytest.approx(se, rel=1e-12)
        # log(nmse) has a finite variance in every mode, so its stderr
        # shrinks as 1/sqrt(trials) if the trials are independent draws
        ratio = log_stderr(lo.records[lab]["nmse"][0]) / log_stderr(hi.records[lab]["nmse"][0])
        assert 1.4 < ratio < 2.9, lab  # expect about 2 at 4x the trials
    # the nmse itself has a finite variance only where no path's gain can
    # come near zero.  A random-phase composition can: its density there is
    # bounded away from 0, so P(nmse > x) falls off only as x^-2 and the
    # sample stderr of nlos_random follows its largest draw instead
    for lab in ("los", "nlos_optimal"):
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


def test_exclusions_build_no_exceptions(monkeypatch):
    # refusals travel as arrays: the golden exclusions case refuses trials,
    # yet its sweep constructs no exception
    def refuse(self, *args):
        raise AssertionError(f"a {type(self).__name__} was constructed")

    for cls in (SingularModelError, GenerationError):
        monkeypatch.setattr(cls, "__init__", refuse)
    s = Scenario(n=10, k=10, m=2, trials=24, master_seed=1, doppler_min_gap=0)
    res = _sweep(s, "gamma", (1e-3, 0.3, 30.0), SWEEP_MODES)
    assert res.excluded.sum() > 0


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
    # the aligned sum sum_m |c_m|, which composing at the optimal phases reaches
    expect = np.sum(np.abs(np.conj(g) * h), axis=1).astype(complex)
    aligned = compose_paths(g, h, wrap_phase(optimal_phases(g, h)), np.ones((3, 4)), s.nlos_form)
    np.testing.assert_allclose(expect, aligned, rtol=1e-14, atol=0)
    block = _draw_block(s, 0, range(3))
    for t in range(3):
        # the optimal composition is a function of the panels alone
        np.testing.assert_array_equal(block["csi"]["nlos_optimal"][t], expect)
    a0, a1 = block["alpha"][:2]
    assert np.max(np.abs(a0 - a1)) > 1e-3  # reflectivities still vary


def test_fixed_policy_with_optimal_thetas_matches_optimal_mode():
    rng = np.random.default_rng(8)
    for panels in (random_panels(rng),  # unit gains, and gains beta below 1
                   tuple(replace(p, beta=rng.uniform(0.2, 1.0, 4)) for p in random_panels(rng))):
        thetas = tuple(optimal_phases(p.g, p.h) for p in panels)
        common = dict(n=20, k=3, m=4, trials=1, gamma=0.1, fixed_panels=panels)
        opt = run_trial(Scenario(link_mode="nlos_optimal", **common), 0)
        fix = run_trial(
            Scenario(link_mode="nlos_fixed", fixed_theta=thetas, **common),
            0,
        )
        # the optimal mode sums beta |c| where the fixed one composes the
        # phases, so the two meet up to the rounding of the composition
        for field in ("nmse", "mse", "crb_trace"):
            assert getattr(fix, field) == pytest.approx(getattr(opt, field), rel=1e-12)


def test_fixed_policy_must_match_k_and_m():
    zeros = np.zeros(4)
    with pytest.raises(ValueError, match=r"fixed_theta has 2 theta vectors.*k=3 of m=4"):
        Scenario(n=20, k=3, m=4, fixed_theta=(zeros,) * 2)
    with pytest.raises(ValueError, match=r"fixed_theta .*length 5.*k=3 of m=4"):
        Scenario(n=20, k=3, m=4, fixed_theta=(np.zeros(5),) * 3)
    for mode in ("los_only", "nlos_optimal", "nlos_fixed"):
        run_trial(Scenario(n=20, k=3, m=4, link_mode=mode, fixed_theta=(zeros,) * 3), 0)


def test_scenarios_with_array_fields_compare_by_value():
    rng = np.random.default_rng(17)
    theta = rng.uniform(0.0, 6.0, (3, 4))
    panels = random_panels(rng)
    cases = {  # field: (value, an equal copy, a different value)
        "fixed_theta": (tuple(theta), tuple(theta.copy()), tuple(theta + 0.5)),
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


def _rows_by_run_trial(tpl, axis, values):
    """Each (point, trial)'s records from run_trial, and each point's exclusions by cause.

    A row is nan in every mode where run_trial raises in any mode, and is
    counted under the error of the first mode that raises: not drawn,
    ILL_CONDITIONED or NOT_POSITIVE_DEFINITE.
    """
    expect = {MODE_LABELS[m]: np.full((3, len(values), tpl.trials), np.nan) for m in SWEEP_MODES}
    by_cause = np.zeros((len(values), 3), dtype=int)
    not_pd = str(estimator._refusal(estimator.NOT_POSITIVE_DEFINITE, np.nan))
    for i, value in enumerate(values):
        for t in range(tpl.trials):
            recs = {}
            try:
                for mode in SWEEP_MODES:
                    point = replace(tpl, link_mode=mode, **{axis: value})
                    recs[MODE_LABELS[mode]] = run_trial(point, t, axis_index=i)
            except GenerationError:
                by_cause[i, 0] += 1
            except SingularModelError as exc:
                by_cause[i, 2 if str(exc) == not_pd else 1] += 1
            else:
                for lab, rec in recs.items():
                    expect[lab][:, i, t] = (rec.nmse, rec.mse, rec.crb_trace)
    return expect, by_cause


STRADDLE_CASES = {
    "white": dict(n=20, k=3, m=4, master_seed=6),
    "fixed_panels": dict(n=20, k=3, m=4, master_seed=6,
                         fixed_panels=random_panels(np.random.default_rng(5))),
    # gap 0 refuses rows 4, 7, 9 and 27 of the 30; a block of 7 holds rows
    # 7 and 9 and the next point's first rows
    "exclusions": dict(n=10, k=10, m=2, master_seed=4, doppler_min_gap=0),
}


@pytest.mark.parametrize("step", [1, 7, None])  # None: one block of every row
@pytest.mark.parametrize("case", sorted(STRADDLE_CASES))
def test_blocks_that_straddle_points_match_run_trial(case, step, monkeypatch):
    # a block may hold the rows of several points; each row still takes its
    # own point's gamma, sigma2 and Philox key
    tpl = Scenario(trials=10, **STRADDLE_CASES[case])
    axes = [("gamma", sweep_gamma, (1e-3, 0.3, 30.0)), ("sigma2", sweep_noise, (1e-3, 1e-2, 1e-1))]
    for axis, sweep, values in axes:
        rows = len(values) * tpl.trials
        monkeypatch.setattr(harness, "_block_trials", lambda scenario: step or rows)
        res = sweep(tpl, values)
        expect, by_cause = _rows_by_run_trial(tpl, axis, values)
        for lab in res.modes:
            for j, field in enumerate(("nmse", "mse", "crb_trace")):
                np.testing.assert_array_equal(res.records[lab][field], expect[lab][j])
        np.testing.assert_array_equal(res.excluded_by_cause, by_cause)
        if case == "exclusions":
            assert by_cause.sum() == 4


def test_exclusions_are_counted_by_cause(monkeypatch):
    # the golden exclusions case: each point's counts by cause sum to its
    # excluded count and are the errors run_trial raises for its trials
    s = Scenario(n=10, k=10, m=2, trials=24, master_seed=1, doppler_min_gap=0)
    gammas = (1e-3, 0.3, 30.0)
    res = _sweep(s, "gamma", gammas, SWEEP_MODES)
    _, by_cause = _rows_by_run_trial(s, "gamma", gammas)
    np.testing.assert_array_equal(res.excluded_by_cause, by_cause)
    np.testing.assert_array_equal(res.excluded_by_cause.sum(axis=1), res.excluded)
    assert by_cause.tolist() == [[0, 0, 0], [0, 0, 0], [0, 3, 0]]
    # a row whose scene is degenerate is not drawn
    real = harness._compose_modes
    monkeypatch.setattr(harness, "_compose_modes",
                        lambda *args: {mode: 0 * c for mode, c in real(*args).items()})
    axis = np.array([0, 0, 1])
    records, cause, _ = harness._evaluate_block(s, SWEEP_MODES, axis, np.array([22, 23, 0]),
                                                np.take(gammas, axis), np.full(3, s.sigma2))
    assert np.all(np.isnan(records))
    assert cause.tolist() == [harness.UNDRAWN] * 3


def test_block_condition_numbers_are_run_trials():
    # the golden exclusions case: each refused row's condition number, from
    # the first mode that refused it, is the one run_trial's message reports
    s = Scenario(n=10, k=10, m=2, trials=24, master_seed=1, doppler_min_gap=0)
    refused = 0
    for i, gamma in enumerate((1e-3, 0.3, 30.0)):
        powers = np.full(s.trials, gamma), np.full(s.trials, s.sigma2)
        _, cause, cond = harness._evaluate_block(s, SWEEP_MODES, i, range(s.trials), *powers)
        assert np.all(np.isnan(cond[cause == estimator.CLEARED]))
        for t in np.flatnonzero(cause != estimator.CLEARED):
            messages = []
            for mode in SWEEP_MODES:
                try:
                    run_trial(replace(s, link_mode=mode, gamma=gamma), t, i)
                except SingularModelError as exc:
                    messages.append(str(exc))
            assert messages[0] == str(estimator._refusal(cause[t], cond[t]))
            assert f"{cond[t]:.3e}" in messages[0]
            refused += 1
    assert refused == 3


def test_a_sweep_builds_no_scenario_beyond_its_template(monkeypatch):
    # the modes travel as names: no Scenario is built per mode or per point
    built = []
    real = Scenario.__post_init__

    def counting(self):
        built.append(self.link_mode)
        real(self)

    tpl = Scenario(**SMALL, fixed_theta=np.zeros((3, 4)))
    monkeypatch.setattr(Scenario, "__post_init__", counting)
    sweep_gamma(tpl, [1e-2, 1.0])
    sweep_noise(tpl, [1e-2, 1.0])
    _sweep(tpl, "gamma", [1e-2, 1.0], (*SWEEP_MODES, "nlos_fixed"))
    assert built == []


def test_k_equal_to_n_needs_no_eigh_root(monkeypatch):
    # k + 1 paths in n pulses make every full steering Gram singular, and
    # with no Doppler gap many have no Cholesky factor; each group of paths
    # draws its noise from its own factor, so no eigh root is taken, and a
    # row is excluded only where a mode's own Gram is refused
    def refuse(*args, **kwargs):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    s = Scenario(n=10, k=10, m=2, trials=40, master_seed=1, doppler_min_gap=0)
    gammas = (1e-2, 1.0)
    res = sweep_gamma(s, gammas)
    expect, by_cause = _rows_by_run_trial(s, "gamma", gammas)
    for lab in res.modes:
        for j, field in enumerate(("nmse", "mse", "crb_trace")):
            np.testing.assert_array_equal(res.records[lab][field], expect[lab][j])
    np.testing.assert_array_equal(res.excluded_by_cause, by_cause)
    assert res.excluded_by_cause.tolist() == [[0, 0, 0], [0, 1, 0]]


def test_sweep_blocks_span_points(monkeypatch):
    # rows run point-major across points, so a sweep makes ceil(P T / step)
    # blocks, not P ceil(T / step)
    sizes = []
    real = harness._evaluate_block

    def counting(*args):
        sizes.append(len(args[3]))
        return real(*args)

    monkeypatch.setattr(harness, "_evaluate_block", counting)
    sweep_gamma(Scenario(trials=60), np.logspace(-5, 2, 21))  # the benchmark's shape
    assert sizes == [284] * 4 + [1260 - 4 * 284]
    sizes.clear()
    sweep_noise(Scenario(n=256, k=32, m=64, trials=12), np.logspace(-3, 0, 3))
    assert sizes == [9] * 4


@pytest.mark.parametrize("modes", [SWEEP_MODES, (*SWEEP_MODES, "nlos_fixed")],
                         ids=["three_modes", "four_modes"])
def test_each_group_of_paths_is_factored_once_per_block(modes, monkeypatch):
    # every mode on a group of paths reads the group's one factor of Q: the
    # direct link's 1 x 1 block and the reflected k x k block are each
    # factored once per block, whatever the number of modes, and these are
    # the block's only Cholesky factorizations (the full Q is not factored);
    # no blue_gram runs, and no mode Gram D^H Q D is formed for a trial the
    # trace bound clears, which is every trial at the default shape.  Each
    # group's steering Gram is its own Dirichlet kernel, over 1 and k paths:
    # no pair across the two groups is formed
    factored, formed = [], []  # per block: the size of each factored Q; rows formed
    cholesky = []  # per block: the size of each np.linalg.cholesky call
    kernels = []  # per block: the path count of each _dirichlet_gram call
    real_block, real_factor = harness._evaluate_block, estimator._factor_inverse
    real_gram, real_cholesky = estimator._scaled_gram, np.linalg.cholesky
    real_kernel = harness._dirichlet_gram

    def block(*args):
        factored.append([])
        cholesky.append([])
        kernels.append([])
        return real_block(*args)

    def kernel(u, n):
        kernels[-1].append(u.shape[-1])
        return real_kernel(u, n)

    def factor(m):
        factored[-1].append(m.shape[-1])
        return real_factor(m)

    def counted_cholesky(m):
        cholesky[-1].append(m.shape[-1])
        return real_cholesky(m)

    def blue_gram(*args):
        raise AssertionError("the sweep ran blue_gram")

    def gram(q, d):
        formed.append(len(q))
        return real_gram(q, d)

    monkeypatch.setattr(harness, "_evaluate_block", block)
    monkeypatch.setattr(estimator, "_factor_inverse", factor)
    monkeypatch.setattr(estimator, "blue_gram", blue_gram)
    monkeypatch.setattr(estimator, "_scaled_gram", gram)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(harness, "_dirichlet_gram", kernel)
    monkeypatch.setattr(harness, "_block_trials", lambda scenario: 40)
    thetas = np.random.default_rng(3).uniform(0.0, 6.0, (5, 10))
    res = _sweep(Scenario(trials=30, fixed_theta=thetas), "gamma", (1e-3, 0.3, 30.0), modes)
    assert res.excluded.sum() == 0
    assert factored == [[1, 5]] * 3  # 90 rows in blocks of 40
    assert cholesky == [[1, 5]] * 3
    assert kernels == [[1, 5]] * 3
    assert formed == []


def test_block_trials_follow_the_largest_array():
    # the Gram stage sets a block's rows at large N and k, and the k x M
    # panel draws set its panel sub-blocks' rows at large M
    assert harness._block_trials(Scenario(n=256, k=32, m=64)) >= 3
    assert harness._block_trials(Scenario()) >= 60  # a default sweep point is one block
    assert harness._panel_rows(Scenario(m=2000)) <= 4
    assert harness._panel_rows(Scenario(m=20000)) == 1


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
    # one axis point's sweep, which evaluates its trials block by block
    return lambda: _sweep(replace(tpl, trials=trials), "gamma", [tpl.gamma], SWEEP_MODES)


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


def _philox_words(seed, axis_index, stream, t, count):
    # a fresh generator at the documented counter of trial t's range
    width = -(-count // 4)
    bitgen = np.random.Philox(key=np.array([seed, axis_index], np.uint64),
                              counter=np.array([t * width, stream, 0, 0], np.uint64))
    return bitgen.random_raw(4 * width)[:count]


def _unit_uniforms(words):
    return (words >> np.uint64(11)).astype(float) / 2.0**53


def test_block_words_sit_at_their_counters():
    # the Doppler, channel and noise words of trial t are those of a fresh
    # Philox at the documented counters
    n, k, m = 20, 3, 4
    s = Scenario(n=n, k=k, m=m, master_seed=2**64 - 5)
    block = _draw_block(s, 7, range(40, 49))
    assert block["drawn"].tolist() == list(range(9))
    for i in (0, 4, 8):  # the block's start, middle and end
        t = 40 + i
        doppler = _unit_uniforms(_philox_words(s.master_seed, 7, 1, t, 2 * k + 1))
        np.testing.assert_array_equal(block["u"][i], _dopplers(doppler[None], -0.5, 0.5, k,
                                                               s.min_gap_cycles)[0])
        u = _unit_uniforms(_philox_words(s.master_seed, 7, 3, t, 2 * (k + 1))).reshape(k + 1, 2)
        noise = np.sqrt(-np.log1p(-u[:, 0])) * np.exp(1j * (2.0 * np.pi * u[:, 1]))
        # the draw turns by tables, within a few eps of the direct exponential
        np.testing.assert_allclose(block["z"][i], noise, rtol=0, atol=1e-14)
        # the channel: h_los, alpha and alpha_los from word pairs, then
        # each element's |c| = sqrt(E1 E2) from the first two words of a
        # triple, which nlos_optimal sums
        words = _unit_uniforms(_philox_words(s.master_seed, 7, 2, t, 2 * (k + 2) + 3 * k * m))
        pairs = words[: 2 * (k + 2)].reshape(-1, 2)
        normals = np.sqrt(-np.log1p(-pairs[:, 0])) * np.exp(2j * np.pi * pairs[:, 1])
        got = np.concatenate([block["h_los"][i:i + 1], block["alpha"][i],
                              block["alpha_los"][i:i + 1]])
        np.testing.assert_allclose(got, normals, rtol=0, atol=1e-14)
        triples = words[2 * (k + 2):].reshape(k, m, 3)
        gains = np.sqrt(np.log1p(-triples[..., 0]) * np.log1p(-triples[..., 1]))
        np.testing.assert_allclose(block["csi"]["nlos_optimal"][i], gains.sum(axis=1),
                                   rtol=1e-14)


def test_random_phases_compose_with_replayed_gains():
    # nlos_random turns each element by the phasor of its phase word and
    # weights it by the replayed panel's gain beta
    rng = np.random.default_rng(12)
    panels = tuple(replace(p, beta=rng.uniform(0.2, 1.0, 4)) for p in random_panels(rng))
    for form in ("complex", "magnitude_squared"):
        s = Scenario(n=20, k=3, m=4, fixed_panels=panels, nlos_form=form, master_seed=9)
        block = _draw_block(s, 2, range(5, 9))
        g, h, beta = (np.stack([getattr(p, f) for p in panels]) for f in ("g", "h", "beta"))
        for i, t in enumerate(range(5, 9)):
            theta = 2.0 * np.pi * _unit_uniforms(_philox_words(s.master_seed, 2, 4, t, 12))
            expect = compose_paths(g, h, theta.reshape(3, 4), beta, form)
            np.testing.assert_allclose(block["csi"]["nlos_random"][i], expect, rtol=1e-13)


def test_draw_block_takes_trials_in_any_order():
    # each run of consecutive trials is one range; any list gives each
    # trial its own draw
    s = Scenario(**SMALL, master_seed=9)
    order = [9, 2, 3, 4, 0, 17, 16]
    block = _draw_block(s, 1, order)
    assert block["drawn"].tolist() == list(range(len(order)))
    for i, t in enumerate(order):
        single = _draw_block(s, 1, [t])
        for key in ("u", "z", "alpha", "h_los", "alpha_los"):
            np.testing.assert_array_equal(block[key][i], single[key][0])
        for mode in single["csi"]:
            np.testing.assert_array_equal(block["csi"][mode][i], single["csi"][mode][0])


DRAW_CASES = {
    "plain": dict(n=20, k=3, m=4),
    "fixed_panels": dict(n=20, k=3, m=4, fixed_panels=random_panels(np.random.default_rng(5))),
    "fixed_policy": dict(n=20, k=3, m=4, link_mode="nlos_fixed",
                         fixed_theta=np.linspace(-7.0, 7.0, 12).reshape(3, 4)),
    "magnitude_squared": dict(n=20, k=3, m=4, nlos_form="magnitude_squared"),
    # five paths whose separation floor takes most of the circle
    "tight_doppler_gap": dict(n=20, k=5, m=2, doppler_min_gap=0.155),
    # drawn with every composed coefficient patched to zero
    "degenerate_scene": dict(n=20, k=3, m=4, fixed_panels=random_panels(np.random.default_rng(6)),
                             nlos_form="magnitude_squared"),
    # the large benchmark's shape, where the rule's blocks hold several
    # trials and the last one fewer
    "large_n_and_k": dict(n=256, k=32, m=64, trials=12),
}


@pytest.mark.parametrize("block_trials", [None, 1, 7])
@pytest.mark.parametrize("case", sorted(DRAW_CASES))
def test_draw_block_matches_blocks_of_one(case, block_trials, monkeypatch):
    s = Scenario(**{"trials": 20, "master_seed": 4, **DRAW_CASES[case]})
    if case == "degenerate_scene":
        real = harness._compose_modes
        monkeypatch.setattr(harness, "_compose_modes",
                            lambda *args: {mode: 0 * c for mode, c in real(*args).items()})
    step = block_trials or harness._block_trials(s)
    if case == "large_n_and_k" and block_trials is None:
        assert 1 < step < s.trials
    got = {}  # each drawn trial's block and position in it
    for lo in range(0, s.trials, step):
        block = _draw_block(s, 3, range(lo, min(lo + step, s.trials)))
        for i, j in enumerate(block["drawn"].tolist()):
            got[lo + j] = block, i
    for t in range(s.trials):
        single = _draw_block(s, 3, [t])
        assert (t in got) == (single["drawn"].size == 1)
        if t not in got:
            continue
        block, i = got[t]
        assert block.keys() == single.keys()
        for key in ("u", "alpha", "z"):
            np.testing.assert_array_equal(block[key][i], single[key][0])
        for key in ("h_los", "alpha_los"):
            assert block[key].shape == (len(block["drawn"]),) and block[key].dtype == complex
            assert block[key][i] == single[key][0]
        assert block["csi"].keys() == single["csi"].keys()
        for mode in single["csi"]:
            np.testing.assert_array_equal(block["csi"][mode][i], single["csi"][mode][0])
    excluded = s.trials - len(got)
    if case == "degenerate_scene":
        assert excluded == s.trials
        with pytest.raises(GenerationError, match="^scene is degenerate$"):
            run_trial(s, 0, 3)
    else:
        assert excluded == 0


@pytest.mark.parametrize("panel_rows", [1, 2, 3, None])  # None: the whole block at once
@pytest.mark.parametrize("case", ["plain", "fixed_panels", "fixed_policy"])
def test_panel_sub_blocks_change_no_bit(case, panel_rows, monkeypatch):
    # the draw's panel stage runs in near-equal sub-blocks of _panel_rows
    # rows, each reading its own runs from the block's one Philox, and the
    # degeneracy rule runs once over the whole block: the draw and every
    # record are the bits of the panel stage in one piece, here a block of
    # 20 rows across two points with sub-blocks that end inside a run
    s = Scenario(**{"trials": 10, "master_seed": 4, **DRAW_CASES[case]})
    axis, trials = np.divmod(np.arange(2 * s.trials), s.trials)
    assert harness._panel_rows(s) >= axis.size
    modes = SWEEP_MODES + (("nlos_fixed",) if s.fixed_theta is not None else ())
    gammas = (1e-3, 0.3)
    whole = _draw_block(s, axis, trials)
    records = _sweep(s, "gamma", gammas, modes).records
    sizes = []  # the rows of each sub-block's nlos_random, per row for either panel kind
    real = harness._compose_modes

    def compose(*args):
        composed = real(*args)
        sizes.append(len(composed["nlos_random"]))
        return composed

    monkeypatch.setattr(harness, "_compose_modes", compose)
    monkeypatch.setattr(harness, "_panel_rows", lambda scenario: panel_rows or axis.size)
    block = _draw_block(s, axis, trials)
    assert sizes == {1: [1] * 20, 2: [2] * 10, 3: [2, 3, 3, 3, 3, 3, 3], None: [20]}[panel_rows]
    assert block.keys() == whole.keys() and block["csi"].keys() == whole["csi"].keys()
    for key in ("drawn", "u", "z", "h_los", "alpha", "alpha_los"):
        np.testing.assert_array_equal(block[key], whole[key])
    for mode, coef in whole["csi"].items():
        np.testing.assert_array_equal(block["csi"][mode], coef)
    for step in (7, 2 * s.trials):  # blocks that end inside a point, and one of every row
        monkeypatch.setattr(harness, "_block_trials", lambda scenario: step)
        got = _sweep(s, "gamma", gammas, modes).records
        for lab, fields in records.items():
            for field, value in fields.items():
                np.testing.assert_array_equal(got[lab][field], value)


@pytest.mark.parametrize("n, k", [(20, 3), (50, 5), (256, 32)])
def test_estimate_mode_matches_blue_on_rebuilt_models(n, k):
    # the K-space estimate against blue_estimate on A = P(nu) Diag(c)
    # rebuilt per trial from the block's draws, with the direct exponential
    # (white noise draws no code, and its model does not depend on one, so
    # x = 1).  No noise vector is drawn: the matched filter is
    # A^H R^-1 A alpha + Diag(c)^H v with v = L z on the mode's group of
    # paths, Q_g = L L^H, whose estimate is blue_estimate's covariance times it
    m, T, gamma = 4, 6, 0.3
    thetas = np.random.default_rng(k).uniform(0.0, 6.0, (k, m))
    s = Scenario(n=n, k=k, m=m, gamma=gamma, sigma2=0.05, trials=T, master_seed=8,
                 fixed_theta=thetas)
    block = _draw_block(s, 1, range(T))
    models = _path_models(block, s.n, s.sigma2)
    v = {group: noise_matched_filter(models[group][0], block["z"][:, paths])
         for group, paths in harness._PATH_GROUPS.items()}
    rows = np.arange(block["drawn"].size)
    assert rows.size == T
    noise = NoiseModel.scaled_identity(0.05, n)
    pulses = np.arange(n)[:, None]
    for mode in LINK_MODES:
        records, cause, _ = _estimate_mode(mode, block, models, gamma)
        np.testing.assert_array_equal(cause, estimator.CLEARED)
        group = "direct" if mode == "los_only" else "reflected"
        paths = harness._PATH_GROUPS[group]
        for t in rows:
            if mode == "los_only":
                truth = np.array([block["alpha_los"][t]])
                norm = abs(block["alpha_los"][t] * block["h_los"][t]) / np.sqrt(gamma)
                coef = np.array([block["h_los"][t]]) / norm
            else:
                truth = block["alpha"][t]
                norm = abs(truth @ block["csi"][mode][t])
                coef = block["csi"][mode][t] / norm
            steer = np.exp(2j * np.pi * pulses * block["u"][t, paths][None, :])
            A = steer @ np.diag(coef)
            ref = blue_estimate(A, noise, A @ truth)
            b = np.linalg.solve(ref.covariance, truth) + coef.conj() * v[group][t]
            nmse = np.linalg.norm(truth - ref.covariance @ b) / np.linalg.norm(truth)
            np.testing.assert_allclose(records[0, t], nmse, rtol=1e-8, err_msg=mode)
            np.testing.assert_allclose(records[1, t], ref.mse / norm**2, rtol=1e-10, err_msg=mode)
            np.testing.assert_allclose(records[2, t], ref.mse, rtol=1e-10, err_msg=mode)


def test_whitened_noise_is_chi_square():
    # the noise part of a mode's matched filter, D^H v with v = L_g z on
    # its group of paths, Q_g = L_g L_g^H, is CN(0, G) with
    # G = D^H Q_g D = L L^H, so ||L^-1 D^H v||^2 ~ Gamma(K, 1) whatever the
    # scene (Kay 1993, ch. 6); its mean over T trials is K within sqrt(K/T)
    s = Scenario(gamma=0.3, trials=400)
    for axis_index in range(3):
        block = _draw_block(s, axis_index, range(s.trials))
        models = _path_models(block, s.n, s.sigma2)
        for mode in SWEEP_MODES:
            if mode == "los_only":
                h_los, alpha_los = np.array(block["h_los"]), np.array(block["alpha_los"])
                d = (h_los * np.sqrt(s.gamma) / np.abs(alpha_los * h_los))[:, None]
                group = "direct"
            else:
                raw = block["csi"][mode]
                d = raw / np.abs(_project(block["alpha"], raw))[:, None]
                group = "reflected"
            qp = models[group][0]
            vp = noise_matched_filter(qp, block["z"][:, harness._PATH_GROUPS[group]])
            gram = estimator._hermitian(d.conj()[:, :, None] * qp * d[:, None, :])
            b = d.conj() * vp
            _, _, cause, _, chol_inv = estimator.blue_gram(gram, b)
            ok = cause == estimator.CLEARED
            white = (chol_inv[ok] @ b[ok][..., None])[..., 0]
            stat = np.sum(np.abs(white) ** 2, axis=1)
            K, T = d.shape[1], stat.size
            assert T >= 0.95 * s.trials
            assert abs(stat.mean() - K) <= 5.0 * np.sqrt(K / T), (axis_index, mode)


def _gram(steer, sigma2):
    return steer.conj().swapaxes(-1, -2) @ steer / sigma2


def _exact_phase_steering(u, n):
    """exp(2 pi j i u) for i < n, with each phase i u reduced mod 1 before rounding.

    u = hi + lo splits exactly with hi a float32, so i hi and i lo are
    exact for n <= 512 and frac(i hi) + i lo rounds once; the phases are
    then within a few eps however large i u is.
    """
    hi = u.astype(np.float32).astype(float)
    pulses = np.arange(n)[:, None]
    whole = pulses * hi[..., None, :]
    phase = (whole - np.floor(whole)) + pulses * (u - hi)[..., None, :]
    return np.exp(2j * np.pi * phase)


@pytest.mark.parametrize("n, k", [(50, 5), (256, 32)])
def test_closed_form_gram_matches_explicit_steering_gram(n, k):
    # the Dirichlet kernel against S^H S / sigma2, on random Dopplers and on
    # rows that put each special pair among ordinary paths: coincident paths
    # (d = 0), paths half a cycle apart either way, nearly coincident paths
    # (the draw with no gap), and paths on either side of the wrap, one of
    # them a whole cycle apart (d = 1, which reduces to 0)
    from irsradar.model import steering_columns

    sigma2 = 0.3
    rng = np.random.default_rng(n)
    pairs = [(0.1, 0.1), (0.1, 0.6), (0.1, -0.4), (0.1, 0.1 + 1e-12), (0.2, 0.2 - 3e-15),
             (-0.5, 0.5), (0.4999999, -0.4999999), (-0.5 + 1e-13, 0.5 - 1e-13)]
    u = rng.uniform(-0.5, 0.5, (8 + len(pairs), k + 1))
    for row, pair in zip(u[8:], pairs):
        row[[0, k]] = pair
        row[1] = pair[0]  # and a third path on the first
    got = harness._dirichlet_gram(u, n) / sigma2
    # sin(pi d) = 0 on coincident paths is guarded: warnings are errors here
    exact = _gram(_exact_phase_steering(u, n), sigma2)
    assert np.max(np.abs(got - exact)) <= 1e-13 * n / sigma2
    # model.steering_columns rounds each phase i u itself, by up to a few
    # N eps near a half cycle at N = 256; beyond that rounding the two agree
    steer = _gram(steering_columns(np.ones(n, dtype=complex), 2.0 * np.pi * u), sigma2)
    random_rows = slice(0, 8)
    assert np.max(np.abs(got - steer)[random_rows]) <= 1e-13 * n / sigma2
    assert np.max(np.abs(got - steer)) <= np.max(np.abs(steer - exact)) + 1e-13 * n / sigma2
    np.testing.assert_array_equal(got, got.conj().swapaxes(-1, -2))  # exactly Hermitian
    np.testing.assert_array_equal(got[:, np.arange(k + 1), np.arange(k + 1)], n / sigma2)
    np.testing.assert_array_equal(got[8:, 0, 1], n / sigma2)  # coincident paths
    for t in range(len(u)):  # each trial's Gram is its own, whatever the stack
        np.testing.assert_array_equal(harness._dirichlet_gram(u[t:t + 1], n)[0] / sigma2, got[t])


@pytest.mark.parametrize("n, k", [(50, 5), (256, 32), (10, 10)])
def test_each_group_gets_its_block_of_the_steering_gram(n, k):
    # each group of paths' Q_g is bit-equal to its diagonal block of the
    # full (k + 1) x (k + 1) steering Gram, the Dirichlet kernel of all
    # paths over sigma2 (one sigma2 or one per row), the direct link's
    # n / sigma2 whatever its Doppler; its factor is the group's own.
    # Besides random Dopplers, a row puts the direct path on a reflected one
    # (a cross-group pair at d = 0) and one puts two reflected paths together
    T, sigma2 = 8, 0.3
    rng = np.random.default_rng(n + k)
    u = rng.uniform(-0.5, 0.5, (T, k + 1))
    u[1, 0] = u[1, 1]
    u[2, k] = u[2, 1]
    block = {"u": u, "z": crandn(rng, T, k + 1)}
    per_row = rng.uniform(0.1, 1.0, T)
    for power, scale in ((sigma2, sigma2), (per_row, per_row[:, None, None])):
        full = harness._dirichlet_gram(u, n) / scale
        models = harness._path_models(block, n, power)
        assert models.keys() == harness._PATH_GROUPS.keys()
        for group, paths in harness._PATH_GROUPS.items():
            q, factor = models[group]
            np.testing.assert_array_equal(q, full[:, paths, paths], err_msg=group)
            want = estimator._path_factor(full[:, paths, paths], block["z"][:, paths])
            for got, ref in zip(factor, want):
                np.testing.assert_array_equal(got, ref, err_msg=group)
        np.testing.assert_array_equal(models["direct"][0], np.full((T, 1, 1), n + 0j) / scale)


def test_a_block_builds_one_philox(monkeypatch):
    # each run of rows sets its point's key with the counter on the block's
    # one generator, so a block builds one Philox however many points it
    # reads
    built = []
    real_philox, real_block = harness.Philox, harness._evaluate_block

    def philox(*args, **kwargs):
        built.append(1)
        return real_philox(*args, **kwargs)

    monkeypatch.setattr(harness, "Philox", philox)
    axis, trials = np.repeat(np.arange(5), 3), np.tile([4, 5, 6], 5)  # five points
    assert _draw_block(Scenario(**SMALL), axis, trials)["drawn"].size == 15
    assert len(built) == 1
    built.clear()
    real_compose = harness._compose_modes
    with monkeypatch.context() as patch:  # every row degenerate
        patch.setattr(harness, "_compose_modes",
                      lambda *args: {mode: 0 * c for mode, c in real_compose(*args).items()})
        assert _draw_block(Scenario(**SMALL), axis, trials)["drawn"].size == 0
    assert len(built) == 1
    built.clear()
    blocks = []

    def block(*args):
        blocks.append(1)
        return real_block(*args)

    monkeypatch.setattr(harness, "_evaluate_block", block)
    monkeypatch.setattr(harness, "_block_trials", lambda scenario: 7)
    sweep_gamma(Scenario(**SMALL), [1e-2, 1.0, 30.0])  # 24 rows in blocks of 7
    assert len(built) == len(blocks) == 4


def test_only_replayed_panels_read_the_phase_stream(monkeypatch):
    # a random panel's c_m already has a uniform phase, so nlos_random
    # weights it by 1 and its block reads no phase words; a replayed
    # panel's c is fixed, so its block turns it by the phase stream
    streams = []
    real = harness._stream_words

    def recording(source, runs, stream, count):
        streams.append(stream)
        return real(source, runs, stream, count)

    monkeypatch.setattr(harness, "_stream_words", recording)
    _draw_block(Scenario(**SMALL), 0, range(8))
    assert set(streams) == {"doppler", "noise", "channel"}
    streams.clear()
    _draw_block(Scenario(**SMALL, fixed_panels=random_panels(np.random.default_rng(3))),
                0, range(8))
    assert set(streams) == {"doppler", "noise", "channel", "phase"}


@pytest.mark.parametrize("step", [7, None])  # None: one block of every row
def test_a_block_where_only_some_rows_are_degenerate(step, monkeypatch):
    # a row where some estimate would divide by exactly zero is excluded
    # alone, under UNDRAWN, and is not redrawn: two rows read alpha^T c = 0
    # and two a single zero coefficient of nlos_random, whose alpha^T c is
    # not zero.  Every other row keeps the bits it has without the
    # patches, in the draw and in the sweep's records
    tpl = Scenario(**SMALL, master_seed=11)
    values = (1e-2, 1.0, 30.0)
    zero_sum, zero_entry = [(0, 1), (2, 0)], [(0, 2), (1, 7)]  # (point, trial)
    rows = len(values) * tpl.trials
    step = step or rows
    axis, trials = np.divmod(np.arange(rows), tpl.trials)
    monkeypatch.setattr(harness, "_block_trials", lambda scenario: step)
    plain = sweep_gamma(tpl, values)
    singles = {(p, t): _draw_block(tpl, p, [t]) for p, t in zip(axis, trials)}
    # each chosen row is marked by its first alpha entry and its first
    # conj(g) h product, the channel stream's first triple after the pairs
    alpha_marks = np.array([singles[row]["alpha"][0, 0] for row in zero_sum])
    pairs = 2 * (tpl.k + 2)
    channel = [_philox_words(tpl.master_seed, p, 2, t, pairs + 3 * tpl.k * tpl.m)
               for p, t in zero_entry]
    product_marks = np.array([harness._path_products(w[None, pairs:])[0, 0] for w in channel])
    real_project, real_compose = harness._project, harness._compose_modes

    def project(alpha, c):
        out = real_project(alpha, c)
        out[np.isin(alpha[:, 0], alpha_marks)] = 0
        return out

    def compose(scenario, c, beta, phase_words):
        composed = real_compose(scenario, c, beta, phase_words)
        rand = composed["nlos_random"].copy()
        rand[np.isin(c[:, 0, 0], product_marks), 1] = 0
        composed["nlos_random"] = rand
        return composed

    monkeypatch.setattr(harness, "_project", project)
    monkeypatch.setattr(harness, "_compose_modes", compose)
    chosen = {*zero_sum, *zero_entry}
    for lo in range(0, rows, step):
        block = _draw_block(tpl, axis[lo:lo + step], trials[lo:lo + step])
        kept = [(p, t) for p, t in zip(axis[lo:lo + step], trials[lo:lo + step])
                if (p, t) not in chosen]
        assert block["drawn"].size == len(kept)
        for i, row in enumerate(kept):
            single = singles[row]
            for key in ("u", "z", "alpha", "h_los", "alpha_los"):
                np.testing.assert_array_equal(block[key][i], single[key][0])
            for mode in single["csi"]:
                np.testing.assert_array_equal(block["csi"][mode][i], single["csi"][mode][0])
    for p, t in chosen:
        assert _draw_block(tpl, p, [t])["drawn"].size == 0
        with pytest.raises(GenerationError, match="^scene is degenerate$"):
            run_trial(tpl, t, p)
    res = sweep_gamma(tpl, values)
    expect, by_cause = _rows_by_run_trial(tpl, "gamma", values)
    dropped = np.zeros((len(values), tpl.trials), dtype=bool)
    dropped[tuple(zip(*chosen))] = True
    for lab in res.modes:
        for j, field in enumerate(("nmse", "mse", "crb_trace")):
            np.testing.assert_array_equal(res.records[lab][field], expect[lab][j])
            np.testing.assert_array_equal(np.isnan(res.records[lab][field]), dropped)
            np.testing.assert_array_equal(res.records[lab][field][~dropped],
                                          plain.records[lab][field][~dropped])
    assert by_cause.tolist() == [[2, 0, 0], [1, 0, 0], [1, 0, 0]]
    np.testing.assert_array_equal(res.excluded_by_cause, by_cause)


def test_run_trial_factors_only_its_group(monkeypatch):
    # a trial estimates one group of paths, so only that group's Q is
    # formed and factored: the direct link's 1 x 1 or the reflected k x k
    sizes = []
    real = estimator._factor_inverse

    def factor(m):
        sizes.append(m.shape[-1])
        return real(m)

    monkeypatch.setattr(estimator, "_factor_inverse", factor)
    for mode, size in (("los_only", 1), ("nlos_random", 3), ("nlos_optimal", 3)):
        run_trial(Scenario(**SMALL, link_mode=mode), 2, 1)
        assert sizes == [size]
        sizes.clear()

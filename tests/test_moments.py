"""Sweep moments against those of an earlier engine, within sampling error.

A change that redraws every random number moves each record, so the
records and output hashes cannot show it kept the model.  The moments
can: tests/data/moments_fixture.npz holds, for each (case, point, mode),
the mean and standard error of nmse, the means of crb_trace and mse and
the included count, recorded on the engine before the draw was rebuilt
on counter-based streams.  Each new mean of nmse must lie within 4
combined standard errors of the recorded one.  The fixture is never
re-recorded to make the test pass: `PYTHONPATH=src python
tests/test_moments.py --rewrite-fixture` exists only to record it on an
engine whose draws are trusted, before a change that replaces them.
"""
import argparse
from pathlib import Path

import numpy as np
import pytest
from test_golden import GAMMAS, RECORD_BASE, _fixed_policy, _noise_cov, _replay_panels

from irsradar.harness import SWEEP_MODES, Scenario, _sweep

MOMENTS_FIXTURE = Path(__file__).parent / "data" / "moments_fixture.npz"

# the trials of each record-case shape; RECORD_BASE itself runs 24
CASE_TRIALS = 300

def _cases():
    """name: (template, axis name, axis values, modes, workers).

    The first two are the CLI's default sweep-gamma and sweep-noise; the
    next seven are the record cases of test_golden at CASE_TRIALS trials,
    kept here as they were when the fixture was recorded.  The last three,
    added later with --add-cases, are the large benchmark's sweep-noise
    shape, a full noise_cov at N = 64, and freeze_waveform under a full
    noise_cov, where the frozen code reaches Q (with white noise the
    freeze_waveform case draws no code, so it computes what workers_2
    does).
    """
    base = dict(RECORD_BASE, trials=CASE_TRIALS)
    return {
        "sweep_gamma": (Scenario(), "gamma", np.geomspace(1e-5, 1e5, 21), SWEEP_MODES, 1),
        "sweep_noise": (Scenario(), "sigma2", np.geomspace(1e-5, 1.0, 21), SWEEP_MODES, 1),
        "noise_cov": (Scenario(**base, noise_cov=_noise_cov(20)), "gamma", GAMMAS,
                      SWEEP_MODES, 1),
        "nlos_fixed": (Scenario(**base, fixed_theta=_fixed_policy()), "gamma", GAMMAS,
                       ("los_only", "nlos_fixed", "nlos_optimal"), 1),
        "magnitude_squared": (Scenario(**base, nlos_form="magnitude_squared"), "gamma", GAMMAS,
                              SWEEP_MODES, 1),
        "freeze_waveform": (Scenario(**base, freeze_waveform=True), "gamma", GAMMAS,
                            SWEEP_MODES, 1),
        "fixed_panels": (Scenario(**base, fixed_panels=_replay_panels()), "gamma", GAMMAS,
                         SWEEP_MODES, 1),
        "workers_2": (Scenario(**base), "gamma", GAMMAS, SWEEP_MODES, 2),
        "exclusions": (Scenario(n=20, k=5, m=2, trials=CASE_TRIALS, master_seed=1,
                                doppler_min_gap=0.155), "gamma", GAMMAS, SWEEP_MODES, 1),
        "sweep_noise_large": (Scenario(n=256, k=32, m=64, gamma=1e-2, trials=CASE_TRIALS),
                              "sigma2", np.geomspace(1e-5, 1.0, 3), SWEEP_MODES, 1),
        "noise_cov_large": (Scenario(n=64, k=8, m=16, trials=CASE_TRIALS, master_seed=6,
                                     noise_cov=_noise_cov(64)), "gamma", GAMMAS, SWEEP_MODES, 1),
        "freeze_waveform_cov": (Scenario(**base, freeze_waveform=True, noise_cov=_noise_cov(20)),
                                "gamma", GAMMAS, SWEEP_MODES, 1),
    }


def case_moments(case):
    """The case's moments, keyed "<case>.<mode label>.<moment>", each over its points."""
    template, axis, values, modes, workers = _cases()[case]
    res = _sweep(template, axis, values, modes, workers)
    out = {}
    for lab in res.modes:
        out[f"{case}.{lab}.nmse_mean"] = res.mean_nmse[lab]
        out[f"{case}.{lab}.nmse_stderr"] = res.stderr_nmse[lab]
        out[f"{case}.{lab}.crb_trace_mean"] = res.mean_crb_trace[lab]
        out[f"{case}.{lab}.mse_mean"] = np.nanmean(res.records[lab]["mse"], axis=1)
        out[f"{case}.{lab}.included"] = res.included
    return out


def nmse_z_scores(got, ref):
    """|new mean - recorded mean| / combined stderr of nmse, per key and point."""
    out = {}
    for key in sorted(k for k in got if k.endswith(".nmse_mean")):
        stem = key[: -len("mean")]
        se = np.hypot(got[stem + "stderr"], ref[stem + "stderr"])
        out[key] = np.abs(got[key] - ref[key]) / se
    return out


@pytest.mark.parametrize("case", sorted(_cases()))
def test_nmse_means_match_fixture(case):
    got = case_moments(case)
    with np.load(MOMENTS_FIXTURE) as ref:
        assert sorted(k for k in ref.files if k.startswith(f"{case}.")) == sorted(got)
        for key, z in nmse_z_scores(got, ref).items():
            assert np.all(z <= 4.0), f"{key}: |z| up to {z.max():.2f}"


def record_moments(argv=None):
    """Print each case's worst nmse z-score; with --rewrite-fixture, rewrite the fixture.

    --add-cases records only the named cases and merges them into the
    fixture, leaving every array already in it as it is.
    """
    parser = argparse.ArgumentParser(description=record_moments.__doc__)
    parser.add_argument("--rewrite-fixture", action="store_true",
                        help=f"overwrite {MOMENTS_FIXTURE.name} with this engine's moments")
    parser.add_argument("--add-cases", nargs="+", choices=sorted(_cases()), metavar="CASE",
                        help=f"add these cases, not yet in {MOMENTS_FIXTURE.name}, to it")
    args = parser.parse_args(argv)
    if args.add_cases:
        with np.load(MOMENTS_FIXTURE) as ref:
            arrays = {key: ref[key] for key in ref.files}
        for case in args.add_cases:
            if any(key.startswith(f"{case}.") for key in arrays):
                parser.error(f"{case} is already in {MOMENTS_FIXTURE.name}")
            arrays.update(case_moments(case))
        np.savez_compressed(MOMENTS_FIXTURE, **arrays)
        print(f"added {', '.join(args.add_cases)} to {MOMENTS_FIXTURE}")
        return
    arrays = {}
    for case in sorted(_cases()):
        arrays.update(case_moments(case))
    if args.rewrite_fixture:
        MOMENTS_FIXTURE.parent.mkdir(exist_ok=True)
        np.savez_compressed(MOMENTS_FIXTURE, **arrays)
        print(f"wrote {MOMENTS_FIXTURE}")
        return
    with np.load(MOMENTS_FIXTURE) as ref:
        for key, z in nmse_z_scores(arrays, ref).items():
            print(f"{key} max |z| {z.max():.2f}")


if __name__ == "__main__":
    record_moments()

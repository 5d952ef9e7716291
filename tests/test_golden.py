"""Golden bytes: small fixed runs must reproduce pinned output hashes.

The sha256 of every CSV and SVG below was recorded before the per-trial
engine was reduced to one Gram factorization per trial-mode; refactors of
the engine must keep every byte.  The per-trial record hashes cover sweep
paths the CLI cases do not reach (or reach only through rounded means).
They were re-recorded twice, each time after the records had been
checked against the fixture: when the BLUE's Cholesky factorization moved
from scipy's per-item LAPACK calls to numpy's stacked ones, and when the
estimate moved to K-space with a steering phase table.  Each moved the
records' last bits by under 1e-12 relative and no CLI byte;
test_records_match_fixture holds the records to those of the engine
before the first, tests/data/records_fixture.npz, within 1e-9 relative
and with the same exclusions.  The hashes hold for the reference platform (x86-64,
Python 3.11, numpy 2.4 on its bundled OpenBLAS); a different BLAS or CPU
may round the last bits differently.
"""
import argparse
import hashlib
from pathlib import Path

import numpy as np
import pytest

from irsradar.channel import IrsPanel, csi_draw_size, split_csi
from irsradar.cli import main
from irsradar.harness import SWEEP_MODES, Scenario, _sweep

SMALL = ["--n", "20", "--k", "3", "--m", "4", "--trials", "30", "--seed", "3"]

CASES = {
    "sweep_gamma_plot": (
        ["sweep-gamma", *SMALL, "--axis-min", "1e-3", "--axis-max", "1e1",
         "--axis-points", "4", "--plot"],
        {
            "sweep_gamma.csv": "f6d7fd1d0c228df6e9eb1a35f3ec5af38e2086af53a7c3d2a7c7a7317e3ceda1",
            "sweep_gamma.svg": "bb09ae7cfe9c4d4bcb4f435211e64aebbb6a5f97c04ffff4dbddb3eb09413a46",
        },
    ),
    "sweep_noise": (
        ["sweep-noise", *SMALL, "--gamma", "0.01", "--axis-min", "1e-4",
         "--axis-max", "1e-1", "--axis-points", "3"],
        {"sweep_noise.csv": "34c431b529ab0127e5208a888e04c8369f2d1b384f776a44b02426d2ae7ae5c4"},
    ),
    "crb_plot": (
        ["crb", *SMALL, "--axis-min", "1e-2", "--axis-max", "1e2",
         "--axis-points", "3", "--plot"],
        {
            "crb.csv": "466ef3aae9c13a317d303d2d396b02e31cb222f726cf05e644d7fd4c4dbbc8bd",
            "crb.svg": "184e533c54396839bbe414171ef6c75ad52f87a241e04915d7a7ac9c1622e02d",
        },
    ),
    "single": (
        ["single", *SMALL, "--gamma", "0.1"],
        {"single.csv": "e3e577b6bb478c90e600996703859cf1ebafaafa7ca21867bcce219311ff7a99"},
    ),
    "single_optimal": (
        ["single", *SMALL, "--gamma", "0.1", "--policy", "optimal"],
        {"single.csv": "99a5e098ace91cb5f7f41a98271a7f56db7588bafe23f2d46df2a5e77111c233"},
    ),
    "single_random": (
        ["single", *SMALL, "--gamma", "0.1", "--policy", "random"],
        {"single.csv": "ec56923f419eb469def6069040240b7986cd68cfc091ee8b4dfae44f597c5f60"},
    ),
    "single_fixed": (
        ["single", *SMALL, "--gamma", "0.1", "--policy", "fixed"],
        {"single.csv": "b35abddb6026363d60bb2a2270fb724281e80f1f76f870a31a7b38a2cc8411e6"},
    ),
    "single_blocked_los": (
        ["single", *SMALL, "--gamma", "0", "--policy", "optimal"],
        {"single.csv": "72e6d3e3000f8749798777e585f605f23a5fac7206b112e29a7c846d6678b40c"},
    ),
    "single_csi_replay": (
        ["single", *SMALL, "--gamma", "0.1", "--csi", "{csi}"],
        {"single.csv": "18e7644c0caaa938877786dcba2307d23629ca8df4a485d62c0e3e9c0f8cfec5"},
    ),
    "certify_m2": (
        ["certify", "--trials", "6", "--m", "2", "--axis-points", "90", "--seed", "4"],
        {"certify.csv": "cfab38093b5b5bc3d9ee78f3e8c5218042f82622dd3e35123315ab5f24877447"},
    ),
    "certify_m3": (
        ["certify", "--trials", "6", "--m", "3", "--axis-points", "90", "--seed", "4"],
        {"certify.csv": "849e0b3dc1b15a811fc6da636bdbf182e7552a51d2d6c0ba03fb75cd39efdbb9"},
    ),
}


def _write_csi(path):
    rng = np.random.default_rng(5)
    lines = ["# replay panels"]
    for v in rng.standard_normal(3 * 2 * 4 * 2).reshape(-1, 2):
        lines.append(f"{v[0]:.6f},{v[1]:.6f}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pinned_hashes(case, tmp_path):
    argv, expected = CASES[case]
    csi = tmp_path / "panels.csi"
    _write_csi(csi)
    out = tmp_path / "out"
    argv = [a.replace("{csi}", str(csi)) for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }
    assert got == expected


RECORD_BASE = dict(n=20, k=3, m=4, trials=24, master_seed=6)
GAMMAS = (1e-3, 0.3, 30.0)


def _noise_cov(n):
    rng = np.random.default_rng(12)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.02 * np.eye(n) + 1e-3 * (B @ B.conj().T)


def _fixed_policy():
    rng = np.random.default_rng(13)
    return tuple(rng.uniform(0.0, 6.0, (3, 4)))


def _replay_panels():
    z = np.random.default_rng(14).standard_normal((1, csi_draw_size(4, 3)))
    _, g, h, _, _ = split_csi(z, 4, 3)
    return tuple(IrsPanel(g=g[0, k], h=h[0, k]) for k in range(3))


RECORD_CASES = {
    "noise_cov": (
        lambda: (Scenario(**RECORD_BASE, noise_cov=_noise_cov(20)), SWEEP_MODES, 1),
        "2c68f78d04668fd173f9cdf18158c74709de325b65f31412c0e8d34bb631592f",
    ),
    "nlos_fixed": (
        lambda: (Scenario(**RECORD_BASE, fixed_theta=_fixed_policy()),
                 ("los_only", "nlos_fixed", "nlos_optimal"), 1),
        "bf9fd0d1c0ecfb03a1dfd943195c196b493695064a872b34a4116cc65ca573ec",
    ),
    "magnitude_squared": (
        lambda: (Scenario(**RECORD_BASE, nlos_form="magnitude_squared"), SWEEP_MODES, 1),
        "352d07b5273cdf9654d13e5d45c5c833e2ff16a929009463a8f408497cf7156c",
    ),
    "freeze_waveform": (
        lambda: (Scenario(**RECORD_BASE, freeze_waveform=True), SWEEP_MODES, 1),
        "7ef603264b5d9bdae5911ce15da2b60dd3f8a3a07aabc85e66adc9b6e09654cc",
    ),
    "fixed_panels": (
        lambda: (Scenario(**RECORD_BASE, fixed_panels=_replay_panels()), SWEEP_MODES, 1),
        "2d0303ccba04b3b58249143b32adc80a3986d9f18803fb9295e64a7aa84d05f2",
    ),
    "workers_2": (
        lambda: (Scenario(**RECORD_BASE), SWEEP_MODES, 2),
        "17b241a64866db5fa8c81bb6c59844789257e65d97fcc2774ed12c9f2e1698e7",
    ),
    "exclusions": (
        lambda: (Scenario(n=20, k=5, m=2, trials=24, master_seed=1, doppler_min_gap=0.155),
                 SWEEP_MODES, 1),
        "4934641fa91c1acb11e2026831e5e7064621a0a733f63835d48a28c10473cba6",
    ),
}


FIELDS = ("nmse", "mse", "crb_trace")

# the per-trial records of every RECORD_CASES sweep, kept so that a change
# which moves the last bits on purpose is checked against the engine
# before it.  `PYTHONPATH=src python tests/test_golden.py` prints the
# digests to pin; only `--rewrite-fixture` rewrites the fixture, which is
# done on the engine before such a change, never in the middle of one
RECORD_FIXTURE = Path(__file__).parent / "data" / "records_fixture.npz"


def _case_records(case):
    build, _ = RECORD_CASES[case]
    template, modes, workers = build()
    res = _sweep(template, "gamma", GAMMAS, modes, workers)
    return res, {f"{case}.{lab}.{f}": res.records[lab][f] for lab in res.modes for f in FIELDS}


def _records_digest(res):
    digest = hashlib.sha256()
    for lab in res.modes:
        for field in FIELDS:
            arr = res.records[lab][field]
            digest.update(f"{lab}.{field}{arr.shape}".encode())
            digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_records_match_pinned_hashes(case):
    res, _ = _case_records(case)
    assert _records_digest(res) == RECORD_CASES[case][1]


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_records_match_fixture(case):
    # the same trials excluded (nan) and every kept record within 1e-9
    _, records = _case_records(case)
    with np.load(RECORD_FIXTURE) as ref:
        assert sorted(k for k in ref.files if k.startswith(f"{case}.")) == sorted(records)
        for key, got in records.items():
            np.testing.assert_allclose(got, ref[key], rtol=1e-9, atol=0, err_msg=key)


def record_digests(argv=None):
    """Print each record case's digest; with --rewrite-fixture, also rewrite the fixture."""
    parser = argparse.ArgumentParser(description=record_digests.__doc__)
    parser.add_argument("--rewrite-fixture", action="store_true",
                        help=f"overwrite {RECORD_FIXTURE.name} with this engine's records")
    args = parser.parse_args(argv)
    arrays = {}
    for case in sorted(RECORD_CASES):
        res, records = _case_records(case)
        arrays.update(records)
        print(f"{case} {_records_digest(res)}")
    if args.rewrite_fixture:
        RECORD_FIXTURE.parent.mkdir(exist_ok=True)
        np.savez_compressed(RECORD_FIXTURE, **arrays)
        print(f"wrote {RECORD_FIXTURE}")


if __name__ == "__main__":
    record_digests()

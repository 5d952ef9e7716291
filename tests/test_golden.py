"""Golden bytes: small fixed runs must reproduce pinned output hashes.

The sha256 of every CSV and SVG below pins the CLI's bytes; refactors of
the engine must keep every one.  The per-trial record hashes cover sweep
paths the CLI cases do not reach (or reach only through rounded means).
Twice the records' last bits moved on purpose, by under 1e-12 relative
and no CLI byte, and the record hashes were re-recorded after the
records had been checked against the fixture.  Then the draw moved to
counter-based Philox streams with exact Doppler spacings, which redrew
every random number: all sweep pins, the record hashes and
tests/data/records_fixture.npz were recorded again on that draw, after
test_moments had checked its sweep moments against the engine before
it.  test_records_match_fixture holds the records to the fixture within
1e-9 relative and with the same exclusions.  The certify pins never
moved.  The hashes hold for the reference platform (x86-64, Python 3.11,
numpy 2.4 on its bundled OpenBLAS); a different BLAS or CPU may round
the last bits differently.
"""
import argparse
import hashlib
from pathlib import Path

import numpy as np
import pytest

from irsradar.channel import IrsPanel
from irsradar.cli import main
from irsradar.harness import SWEEP_MODES, Scenario, _sweep

from csi_draws import csi_draw_size, split_csi

SMALL = ["--n", "20", "--k", "3", "--m", "4", "--trials", "30", "--seed", "3"]

CASES = {
    "sweep_gamma_plot": (
        ["sweep-gamma", *SMALL, "--axis-min", "1e-3", "--axis-max", "1e1",
         "--axis-points", "4", "--plot"],
        {
            "sweep_gamma.csv": "3ff398309c549a2ea3670c80595a0123aeb166999f6d95a297ef3e2f6b85b718",
            "sweep_gamma.svg": "96f40443e5daf758c9ab458013f7aeca5e646972f29aafa476692fbc75d8f53e",
        },
    ),
    "sweep_noise": (
        ["sweep-noise", *SMALL, "--gamma", "0.01", "--axis-min", "1e-4",
         "--axis-max", "1e-1", "--axis-points", "3"],
        {"sweep_noise.csv": "5c99109955585a0412bbec39a9d7d7825c09b56342ca913d92d05ae5e61fc2a5"},
    ),
    "crb_plot": (
        ["crb", *SMALL, "--axis-min", "1e-2", "--axis-max", "1e2",
         "--axis-points", "3", "--plot"],
        {
            "crb.csv": "a0f8b09189fbbd5d60a9288c458cbad4eefb9cd25eb6bf36c6cc99cf6b9a957c",
            "crb.svg": "9aa602d56107938445d98aa48e88c02a0278747b1c45ba74223abc5d0bd1e140",
        },
    ),
    "single": (
        ["single", *SMALL, "--gamma", "0.1"],
        {"single.csv": "e6a269921c99b56aa1026c34b2c900bcaf2d0db674dcadef5bb73aab2d259980"},
    ),
    "single_optimal": (
        ["single", *SMALL, "--gamma", "0.1", "--policy", "optimal"],
        {"single.csv": "47595c4108deeccd2f73c55dece67ea3e0e2cc3888925b6a8d7d501640f0f823"},
    ),
    "single_random": (
        ["single", *SMALL, "--gamma", "0.1", "--policy", "random"],
        {"single.csv": "b2a5560b92e77f88378e897c266078b88b8f85693e95dc788c814607df57eaa5"},
    ),
    "single_fixed": (
        ["single", *SMALL, "--gamma", "0.1", "--policy", "fixed"],
        {"single.csv": "4d48d6b74ea70a0391a2482a82abbde43356d118e2ae7ea103c197d8012dd0a9"},
    ),
    "single_blocked_los": (
        ["single", *SMALL, "--gamma", "0", "--policy", "optimal"],
        {"single.csv": "e2d9e1eb80b120b7e1438fafa0ab60f55465cd0ff6a6f1a0aaa79853b83ecee5"},
    ),
    "single_csi_replay": (
        ["single", *SMALL, "--gamma", "0.1", "--csi", "{csi}"],
        {"single.csv": "2d7f63786f733169375ab364435cc2c239f01855a324416ba73ec7faac1378aa"},
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
        "1a448f5384cc96eac329ceb565c5ab58ecfe2acd4afd57c63e96be4e3820fb34",
    ),
    "nlos_fixed": (
        lambda: (Scenario(**RECORD_BASE, fixed_theta=_fixed_policy()),
                 ("los_only", "nlos_fixed", "nlos_optimal"), 1),
        "ab48ec90618ef4a8f96ec1ab205c6aacb93ceed18ef7516150d05e324fe08620",
    ),
    "magnitude_squared": (
        lambda: (Scenario(**RECORD_BASE, nlos_form="magnitude_squared"), SWEEP_MODES, 1),
        "cfad958d4c6ad5b76cbbe4a659e1c713694e0f9e846c5ab4d49c8953699ab43a",
    ),
    "freeze_waveform": (
        lambda: (Scenario(**RECORD_BASE, freeze_waveform=True), SWEEP_MODES, 1),
        "92336757392f021a4a368a2aa6c66203006a90dd115ff70b61d2fe683535dede",
    ),
    "fixed_panels": (
        lambda: (Scenario(**RECORD_BASE, fixed_panels=_replay_panels()), SWEEP_MODES, 1),
        "0d46a498f9264fbf1001fc8c367dc3286eeaab338469f63d2f3d30ad6c5bbfd4",
    ),
    "workers_2": (
        lambda: (Scenario(**RECORD_BASE), SWEEP_MODES, 2),
        "c9777ffbf648407bda902db692f8bf9c395da38aef24ebfa17838b6bb33d6d81",
    ),
    "exclusions": (
        lambda: (Scenario(n=10, k=10, m=2, trials=24, master_seed=1, doppler_min_gap=0),
                 SWEEP_MODES, 1),
        "2689fb26853d9f1703a99105ff4aec5d30b8a04c5a5ba0c108ced0ce3be8857c",
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

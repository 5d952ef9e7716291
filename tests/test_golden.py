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
1e-9 relative and with the same exclusions.  The record hashes and the
fixture were recorded once more when every link mode's BLUE came to be
read off one factor per group of paths, after the moments and every CLI
pin had passed unchanged and the records had been checked against the
fixture before it: the records moved by at most 3.4e-13 relative, except
in the exclusions case, whose ill-conditioned Grams moved records by
under cond(G) eps.  The certify pins moved
once, when the windowed grid enumeration gave way to the interval
reduction alone: that kernel evaluates one rotation of the optimal grid
node where the enumeration kept whichever rounded highest, which moved
the last printed digit of the gap in 3 of their 12 rows.  The hashes
hold for the reference platform (x86-64, Python 3.11, numpy 2.4 on its
bundled OpenBLAS); a different BLAS or CPU may round the last bits
differently.
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
            "sweep_gamma.csv": "64e19288eb85ba3f85716921fde1ee618f808b81cd8df2109867ecf3535df048",
            "sweep_gamma.svg": "0c698f71c9e19c2abbe60a383b0c976b1bf13cf0cc0e005e1beba1f4ee6e83bb",
        },
    ),
    "sweep_noise": (
        ["sweep-noise", *SMALL, "--gamma", "0.01", "--axis-min", "1e-4",
         "--axis-max", "1e-1", "--axis-points", "3"],
        {"sweep_noise.csv": "9dd3dbf6155a217268f12f7c3a2bbecd75b0b032f40729e28bae0e77bee0b3ab"},
    ),
    "crb_plot": (
        ["crb", *SMALL, "--axis-min", "1e-2", "--axis-max", "1e2",
         "--axis-points", "3", "--plot"],
        {
            "crb.csv": "22e8481174407b534b7877a0d131d4d9ee881460a34e2e0ebace3cfb10860acc",
            "crb.svg": "9a0910a35916be07d765653849f1321ec9a513302750361782097d0c29e07ea9",
        },
    ),
    "single": (
        ["single", *SMALL, "--gamma", "0.1"],
        {"single.csv": "f34d400a52ec4c165b15d96475c788a74085a95401aa698523206086d9aae402"},
    ),
    "single_optimal": (
        ["single", *SMALL, "--gamma", "0.1", "--policy", "optimal"],
        {"single.csv": "8c708991ac077748116646b49caa403db671a5ff24cf91ebf8574eacfe603a01"},
    ),
    "single_random": (
        ["single", *SMALL, "--gamma", "0.1", "--policy", "random"],
        {"single.csv": "33c3449015296c889af6bbaf9bf6cb2f3069c6591117ca97d4cf525e8709dfc4"},
    ),
    "single_fixed": (
        ["single", *SMALL, "--gamma", "0.1", "--policy", "fixed"],
        {"single.csv": "6188e76f513d9e19df6ece0b58e416145829909d1f6a029021c5b58aa71c9b21"},
    ),
    "single_blocked_los": (
        ["single", *SMALL, "--gamma", "0", "--policy", "optimal"],
        {"single.csv": "f840dd051ae0d3adf45e321aed8f7690c89b3e1f5c004ed45bba5ac5fbbc155e"},
    ),
    "single_csi_replay": (
        ["single", *SMALL, "--gamma", "0.1", "--csi", "{csi}"],
        {"single.csv": "34f47f3acebfd63e812dac92d4c954923f75760a807e6ca0e5e4bc943851bc1e"},
    ),
    "certify_m2": (
        ["certify", "--trials", "6", "--m", "2", "--axis-points", "90", "--seed", "4"],
        {"certify.csv": "31a3102179541df70470e994505317a22d1f6f67ade1ae534f5c15cbb6b87121"},
    ),
    "certify_m3": (
        ["certify", "--trials", "6", "--m", "3", "--axis-points", "90", "--seed", "4"],
        {"certify.csv": "06275ae3f1a1012c8545db077ebba66c9ea12ca5b2f50de49a40327d5b245923"},
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
        "b47b39bc671abf81c9afcb020c32d3ab52698122fde1c60406db04c6c7ced947",
    ),
    "nlos_fixed": (
        lambda: (Scenario(**RECORD_BASE, fixed_theta=_fixed_policy()),
                 ("los_only", "nlos_fixed", "nlos_optimal"), 1),
        "03d879ff3b1250b3e45b0489a14b07eada80c044ff80441de3ec1882eefca6a9",
    ),
    "magnitude_squared": (
        lambda: (Scenario(**RECORD_BASE, nlos_form="magnitude_squared"), SWEEP_MODES, 1),
        "c6d0df0f52671f90e7b80ddb0bcefb1e6e8b79e269feb4eb6bee2f36c0bf4200",
    ),
    # the code is drawn only under noise_cov, so freezing it is tested there
    "freeze_waveform": (
        lambda: (Scenario(**RECORD_BASE, freeze_waveform=True, noise_cov=_noise_cov(20)),
                 SWEEP_MODES, 1),
        "7705316be28c63e9e03c8321493157e6e06bc0e53987412605d6ed01daf2ffe8",
    ),
    "fixed_panels": (
        lambda: (Scenario(**RECORD_BASE, fixed_panels=_replay_panels()), SWEEP_MODES, 1),
        "b72804a9bbf264d6010290589b81021811097b0abbc629ed4013ef59f8f23a65",
    ),
    "workers_2": (
        lambda: (Scenario(**RECORD_BASE), SWEEP_MODES, 2),
        "56220be402e223863a2b58dbd286dfc6469149bdff02d947e959d9ddefe58ab2",
    ),
    "exclusions": (
        lambda: (Scenario(n=10, k=10, m=2, trials=24, master_seed=1, doppler_min_gap=0),
                 SWEEP_MODES, 1),
        "809b68d34a34239b38c1cea53c91eb650db271b81aa80904315f0e19acf2fdd5",
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

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
under cond(G) eps.  Then each group of paths came to draw its noise from
its own factor, v_g = L_g z_g, in place of v = F z from a factor of the
full steering Gram.  Before any pin moved, test_moments passed
unchanged and the records were checked against the fixture of the
engine before: every mse and crb_trace and
every exclusion bit-equal, and the direct link's nmse within 4.8e-16
relative, except in the exclusions rows whose full Q had no Cholesky
factor.  Only the reflected modes' nmse was redrawn, with the same law,
so the record hashes, the fixture and the sweep and single pins were
recorded again; crb.svg, certify.csv and every CSV's los rows and
mean_crb_trace and trials columns kept their bytes.  The certify pins moved
once, when the windowed grid enumeration gave way to the interval
reduction alone: that kernel evaluates one rotation of the optimal grid
node where the enumeration kept whichever rounded highest, which moved
the last printed digit of the gap in 3 of their 12 rows.  Last, nlos_random
stopped reading the phase stream under random panels: each element's c =
conj(g) h already has a uniform phase independent of |c| and of every
other draw, so sum_m conj(c_m) has the law the random phases gave it,
jointly with nlos_optimal's sum_m |c_m|.  test_moments passed unchanged
before any pin moved, and against the fixture of the engine before only
nlos_random's records moved, except in the exclusions case, where the set
of rows some mode refuses changed and so moved every mode's exclusions
(the rows kept on both engines kept the bits of los and nlos_optimal);
fixed_panels and nlos_fixed kept every bit.  Five record hashes, the
fixture and the sweep_gamma_plot, sweep_noise, crb_plot, single and
single_random pins were recorded again; the certify, single_optimal,
single_fixed, single_blocked_los and single_csi_replay pins kept their
bytes.  The hashes
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
            "sweep_gamma.csv": "3b6dacb4a3ffab950be6652c35be04f394a9acbbdd5faa2f60d4a0ceb73d2eed",
            "sweep_gamma.svg": "16ce5a99d1a3ccc3f1c908f0e7f55996b2380a93ad626b8a0afa3980138dfe85",
        },
    ),
    "sweep_noise": (
        ["sweep-noise", *SMALL, "--gamma", "0.01", "--axis-min", "1e-4",
         "--axis-max", "1e-1", "--axis-points", "3"],
        {"sweep_noise.csv": "c3bd260f29cfea9d6e5fcb82a3b6eb9d72af0897979cc2d11f9cfcda458010c6"},
    ),
    "crb_plot": (
        ["crb", *SMALL, "--axis-min", "1e-2", "--axis-max", "1e2",
         "--axis-points", "3", "--plot"],
        {
            "crb.csv": "03d09144487a25ddb97b0eaafce5952bacb7a5cee63c0bd6348b8c7aba9a9071",
            "crb.svg": "47d17450cc08d49773c27d1805fec33f07b250c8c3c6804e423e8ee4ac0bb8db",
        },
    ),
    "single": (
        ["single", *SMALL, "--gamma", "0.1"],
        {"single.csv": "09f82d68b4a417a3f82d8e6d10411a412695a3db00f6c3aa6fdeff518695159d"},
    ),
    "single_optimal": (
        ["single", *SMALL, "--gamma", "0.1", "--policy", "optimal"],
        {"single.csv": "b66cbafbd10f4675f8b2a7a2b11d890def5e78bea6dfc3c20dc8fe66f9556aa6"},
    ),
    "single_random": (
        ["single", *SMALL, "--gamma", "0.1", "--policy", "random"],
        {"single.csv": "ed9b430de73652e7e14b4fac1a7fd6c2c7eb5470dbd3eaa1d9521ebc8204b416"},
    ),
    "single_fixed": (
        ["single", *SMALL, "--gamma", "0.1", "--policy", "fixed"],
        {"single.csv": "fbbaf7c0d1334ff275605fd512ec950cd687585945744bbccc79e349a54ed9a6"},
    ),
    "single_blocked_los": (
        ["single", *SMALL, "--gamma", "0", "--policy", "optimal"],
        {"single.csv": "99635d80a4e65c4552001417ca2b76a95e3290f6b104f06a9af4ac6d600b52cc"},
    ),
    "single_csi_replay": (
        ["single", *SMALL, "--gamma", "0.1", "--csi", "{csi}"],
        {"single.csv": "d354b3c1f7611562edd05790fb49ddf1c134281d79ec8d281a1308e789838b55"},
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
        "b6c96259b82cd62999da28ed501f7d50ae9c11d6c292b4d8cc67c232bada876a",
    ),
    "nlos_fixed": (
        lambda: (Scenario(**RECORD_BASE, fixed_theta=_fixed_policy()),
                 ("los_only", "nlos_fixed", "nlos_optimal"), 1),
        "cce7a4d05afa002cfa776a992416bab91c5d345dfd2e3fe8506e92e172120d25",
    ),
    "magnitude_squared": (
        lambda: (Scenario(**RECORD_BASE, nlos_form="magnitude_squared"), SWEEP_MODES, 1),
        "f375fe46eb3d29a5aab3aad42cbc62708f8e70b42d05f9a01d9a294f52681ce8",
    ),
    # the code is drawn only under noise_cov, so freezing it is tested there
    "freeze_waveform": (
        lambda: (Scenario(**RECORD_BASE, freeze_waveform=True, noise_cov=_noise_cov(20)),
                 SWEEP_MODES, 1),
        "bd9074512b632bb691edab8a8ca52c3158481c33f157475e8c34964ae87f007d",
    ),
    "fixed_panels": (
        lambda: (Scenario(**RECORD_BASE, fixed_panels=_replay_panels()), SWEEP_MODES, 1),
        "cf88c4b1f0b792c1f94bd744d6b90e10cac53126c03cc88c64bf59a76331294e",
    ),
    "workers_2": (
        lambda: (Scenario(**RECORD_BASE), SWEEP_MODES, 2),
        "2ed0806cfaefd08b75aa9448db84911476be0eabe90f190464e14ac375e2b28d",
    ),
    "exclusions": (
        lambda: (Scenario(n=10, k=10, m=2, trials=24, master_seed=1, doppler_min_gap=0),
                 SWEEP_MODES, 1),
        "fcf06144ee7f54a8fd9ffad30f79746545a6bd1f57adc5069f909f437d9ec4c2",
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

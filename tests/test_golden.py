"""Golden bytes: small fixed CLI runs must reproduce pinned output hashes.

The sha256 of every CSV and SVG below was recorded before the per-trial
engine was reduced to one Gram factorization per trial-mode; refactors of
the engine must keep every byte.  The hashes hold for the reference
platform (x86-64, Python 3.11, numpy 2.4, scipy 1.17, OpenBLAS); a
different BLAS or CPU may round the last bits differently.
"""
import hashlib

import numpy as np
import pytest

from irsradar.cli import main

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

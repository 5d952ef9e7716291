"""CLI front end: config resolution, CSV/SVG emission, exit codes."""
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from irsradar.cli import (
    CSV_HEADER,
    _axis_values,
    _log_spaced,
    emit_csv,
    emit_plot,
    main,
    parse_config,
    read_csv,
)
from irsradar.errors import UsageError
from irsradar.harness import SweepResult

SMALL_ARGS = ["--n", "20", "--k", "3", "--m", "4", "--trials", "30"]


def _mk_result(axis, modes, values, included=None):
    axis = np.asarray(axis, dtype=float)
    included = np.full(axis.size, 9) if included is None else np.asarray(included)
    return SweepResult(
        axis_name="gamma",
        axis_values=axis,
        modes=tuple(modes),
        mean_nmse={m: np.asarray(v, dtype=float) for m, v in values.items()},
        stderr_nmse={m: 0.1 * np.asarray(v, dtype=float) for m, v in values.items()},
        mean_crb_trace={m: 0.5 * np.asarray(v, dtype=float) for m, v in values.items()},
        trials_used=int(included.max()),
        included=included,
        excluded=included * 0,
        records={},
    )


def test_sweep_gamma_defaults():
    cfg = parse_config(["sweep-gamma"])
    assert (cfg.n, cfg.k, cfg.m, cfg.trials, cfg.seed) == (50, 5, 10, 1000, 0)
    assert cfg.nlos_form == "complex"
    axis = _axis_values(cfg)
    assert axis.size == 21
    assert axis[0] == pytest.approx(1e-5)
    assert axis[-1] == pytest.approx(1e5)
    assert _log_spaced(axis)


def test_precedence_flags_over_config_over_defaults(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 20\ntrials = 40  # inline comment\nplot = false\n")
    cfg = parse_config(["sweep-noise", "--config", str(cfgfile), "--n", "25"])
    assert cfg.n == 25  # flag wins
    assert cfg.trials == 40  # config wins over default
    assert cfg.k == 5  # default survives
    assert cfg.axis_max == pytest.approx(1.0)  # noise sweep default range


def test_config_file_rejections(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 3\n")
    with pytest.raises(UsageError, match="mystery"):
        parse_config(["sweep-gamma", "--config", str(bad)])
    bad.write_text("trials = soon\n")
    with pytest.raises(UsageError, match="trials"):
        parse_config(["sweep-gamma", "--config", str(bad)])
    bad.write_text("plot = maybe\n")
    with pytest.raises(UsageError, match="plot"):
        parse_config(["sweep-gamma", "--config", str(bad)])
    bad.write_text("just-a-token\n")
    with pytest.raises(UsageError, match="key = value"):
        parse_config(["sweep-gamma", "--config", str(bad)])


def test_conflicting_flags_rejected(tmp_path):
    with pytest.raises(UsageError, match="gamma"):
        parse_config(["sweep-gamma", "--gamma", "0.5"])
    with pytest.raises(UsageError, match="sigma2"):
        parse_config(["sweep-noise", "--sigma2", "0.5"])
    with pytest.raises(UsageError, match="policy"):
        parse_config(["crb", "--policy", "random"])
    with pytest.raises(UsageError, match="axis_min"):
        parse_config(["single", "--axis-min", "1e-3"])
    with pytest.raises(UsageError, match="plot"):
        parse_config(["single", "--plot"])
    with pytest.raises(UsageError, match="k conflicts"):
        parse_config(["certify", "--k", "3"])
    # the config file is an explicit source too, not silently ignored
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("gamma = 0.5\n")
    with pytest.raises(UsageError, match="gamma"):
        parse_config(["sweep-gamma", "--config", str(cfgfile)])


def test_value_validation():
    with pytest.raises(UsageError, match="trials"):
        parse_config(["sweep-gamma", "--trials", "0"])
    with pytest.raises(UsageError, match="seed"):
        parse_config(["sweep-gamma", "--seed", "-1"])
    with pytest.raises(UsageError, match="axis_min"):
        parse_config(["sweep-gamma", "--axis-min", "10", "--axis-max", "1"])
    with pytest.raises(UsageError, match="positive"):
        parse_config(["sweep-gamma", "--axis-min", "-1", "--axis-max", "1"])
    with pytest.raises(UsageError, match="axis_points"):
        parse_config(["sweep-gamma", "--axis-points", "1"])
    with pytest.raises(UsageError, match="axis_max must be finite"):
        parse_config(["sweep-gamma", "--axis-max", "inf"])
    with pytest.raises(UsageError, match="axis_min must be finite"):
        parse_config(["sweep-noise", "--axis-scale", "linear", "--axis-min=-inf"])
    with pytest.raises(SystemExit):
        parse_config([])  # subcommand is required
    with pytest.raises(SystemExit):
        parse_config(["sweep-gamma", "--axis-scale", "cubic"])


def test_csv_golden(tmp_path):
    res = _mk_result(
        [1.0, 0.1],
        ("los", "nlos_optimal"),
        {"los": [0.125, 0.5], "nlos_optimal": [0.0625, 0.25]},
        included=[9, 7],
    )
    path = tmp_path / "out.csv"
    emit_csv(res, str(path))
    expected = (
        "axis,mode,mean_nmse,stderr_nmse,mean_crb_trace,trials\n"
        "1.000000000e-01,los,5.000000000e-01,5.000000000e-02,2.500000000e-01,7\n"
        "1.000000000e-01,nlos_optimal,2.500000000e-01,2.500000000e-02,1.250000000e-01,7\n"
        "1.000000000e+00,los,1.250000000e-01,1.250000000e-02,6.250000000e-02,9\n"
        "1.000000000e+00,nlos_optimal,6.250000000e-02,6.250000000e-03,3.125000000e-02,9\n"
    )
    assert path.read_bytes().decode() == expected


def test_csv_round_trip_zero_loss(tmp_path):
    rng = np.random.default_rng(3)
    vals = {m: rng.uniform(1e-7, 1e3, 4) for m in ("los", "nlos_optimal", "nlos_random")}
    res = _mk_result(np.logspace(-2, 1, 4), vals.keys(), vals)
    path = tmp_path / "out.csv"
    emit_csv(res, str(path))
    rows = read_csv(str(path))
    assert len(rows) == 12
    # re-emitting the parsed numbers reproduces the bytes: nothing was lost
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r['axis']:.9e},{r['mode']},{r['mean_nmse']:.9e},"
            f"{r['stderr_nmse']:.9e},{r['mean_crb_trace']:.9e},{r['trials']}"
        )
    assert path.read_text() == "\n".join(lines) + "\n"


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(str(path))


def test_log_spacing_detection():
    assert _log_spaced(np.logspace(-3, 2, 11))
    assert not _log_spaced(np.linspace(1.0, 5.0, 11))
    assert not _log_spaced(np.array([-1.0, 1.0, 10.0]))
    assert _log_spaced(np.array([1e-2, 1e3]))  # two points a decade apart read as log


def test_plot_single_point_advises_csv(tmp_path):
    res = _mk_result([0.5], ("los",), {"los": [0.1]})
    with pytest.raises(UsageError, match="CSV"):
        emit_plot(res, str(tmp_path / "p.svg"))


def test_plot_well_formed_and_complete(tmp_path):
    vals = {
        "los": np.array([1.0, 0.1, 0.01, 0.001]),
        "nlos_optimal": np.array([0.02, 0.02, 0.02, 0.02]),
        "nlos_random": np.array([0.05, 0.04, 0.05, 0.04]),
    }
    res = _mk_result(np.logspace(-2, 1, 4), vals.keys(), vals)
    path = tmp_path / "p.svg"
    emit_plot(res, str(path))
    root = ET.parse(str(path)).getroot()
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    polylines = root.findall("s:polyline", ns)
    assert len(polylines) == 3
    texts = [t.text for t in root.findall("s:text", ns)]
    for entry in ("LoS", "NLoS-optimal", "NLoS-random"):
        assert entry in texts
    assert "gamma" in texts and "mean_nmse" in texts


def test_plot_flat_values_still_valid(tmp_path):
    res = _mk_result([1.0, 2.0, 3.0], ("los",), {"los": [0.5, 0.5, 0.5]})
    path = tmp_path / "flat.svg"
    emit_plot(res, str(path))
    root = ET.parse(str(path)).getroot()
    ns = {"s": "http://www.w3.org/2000/svg"}
    assert len(root.findall("s:polyline", ns)) == 1


def test_cli_single_three_modes(tmp_path, capsys):
    code = main(["single", *SMALL_ARGS, "--gamma", "0.1", "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(str(tmp_path / "single.csv"))
    assert [r["mode"] for r in rows] == ["los", "nlos_optimal", "nlos_random"]
    assert all(r["axis"] == pytest.approx(0.1) for r in rows)


def test_cli_single_selected_policy(tmp_path):
    code = main(["single", *SMALL_ARGS, "--policy", "fixed", "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(str(tmp_path / "single.csv"))
    assert [r["mode"] for r in rows] == ["nlos_fixed"]
    assert rows[0]["trials"] == 30


def test_cli_rerun_is_byte_identical(tmp_path):
    args = [
        "sweep-gamma",
        *SMALL_ARGS,
        "--seed",
        "3",
        "--axis-min",
        "1e-3",
        "--axis-max",
        "1e1",
        "--axis-points",
        "4",
        "--plot",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "sweep_gamma.csv").read_bytes() == (b / "sweep_gamma.csv").read_bytes()
    assert (a / "sweep_gamma.svg").read_bytes() == (b / "sweep_gamma.svg").read_bytes()


def test_cli_crb_plots_the_bound(tmp_path):
    code = main(
        [
            "crb",
            *SMALL_ARGS,
            "--axis-min",
            "1e-2",
            "--axis-max",
            "1e2",
            "--axis-points",
            "3",
            "--plot",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    svg = (tmp_path / "crb.svg").read_text()
    assert "mean_crb_trace" in svg
    assert read_csv(str(tmp_path / "crb.csv"))  # same schema as the sweeps


def test_cli_noise_sweep_runs(tmp_path):
    code = main(
        [
            "sweep-noise",
            *SMALL_ARGS,
            "--gamma",
            "0.01",
            "--axis-min",
            "1e-4",
            "--axis-max",
            "1e-1",
            "--axis-points",
            "3",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_csv(str(tmp_path / "sweep_noise.csv"))
    assert len(rows) == 9


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["sweep-gamma", "--gamma", "0.5"]) == 2
    assert "conflicts" in capsys.readouterr().err
    # one trial cannot produce a spread estimate; rejected before any trial runs
    assert main(["single", "--n", "20", "--k", "3", "--m", "4", "--trials", "1",
                 "--policy", "optimal", "--out", str(tmp_path)]) == 2
    assert "trials" in capsys.readouterr().err
    assert main(["single", "--csi", str(tmp_path / "missing.csi"),
                 "--out", str(tmp_path)]) == 4
    # bad values fail before the first trial, naming the input
    for argv, name in (
        (["sweep-noise", "--gamma", "0"], "gamma"),
        (["single", "--gamma", "nan"], "gamma"),
        (["sweep-gamma", "--sigma2", "inf"], "sigma2"),
        (["sweep-gamma", "--axis-max", "inf"], "axis_max"),
    ):
        assert main([*argv, *SMALL_ARGS, "--out", str(tmp_path)]) == 2
        assert name in capsys.readouterr().err


def test_cli_csi_replay(tmp_path):
    rng = np.random.default_rng(5)
    lines = ["# replay panels"]
    for v in rng.standard_normal(3 * 2 * 4 * 2).reshape(-1, 2):
        lines.append(f"{v[0]:.6f},{v[1]:.6f}")
    csi = tmp_path / "panels.csi"
    csi.write_text("\n".join(lines) + "\n")
    ok = tmp_path / "ok"
    code = main(["single", *SMALL_ARGS, "--csi", str(csi), "--out", str(ok)])
    assert code == 0
    assert (ok / "single.csv").exists()
    # wrong k: the entry count no longer matches and parsing must fail
    assert main(["single", "--n", "20", "--k", "4", "--m", "4", "--trials", "5",
                 "--csi", str(csi), "--out", str(tmp_path)]) == 2


def test_cli_rejects_nonfinite_csi_before_any_trial(tmp_path, capsys):
    csi = tmp_path / "nan.csi"
    csi.write_text("nan,0\n" + "1,0\n" * (3 * 2 * 4 - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no trial may run and warn
        code = main(["single", "--n", "20", "--k", "3", "--m", "4", "--trials", "5",
                     "--gamma", "0.1", "--csi", str(csi), "--out", str(tmp_path)])
    assert code == 2
    assert f"{csi}:1: non-finite entry" in capsys.readouterr().err


def test_cli_rejects_dead_csi_before_any_trial(tmp_path, capsys):
    # all-zero panels used to burn the scene budget on every trial and exit 3
    csi = tmp_path / "zeros.csi"
    csi.write_text("0,0\n" * (3 * 2 * 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["single", "--n", "20", "--k", "3", "--m", "4", "--trials", "30",
                     "--gamma", "0.1", "--csi", str(csi), "--out", str(tmp_path)])
    assert code == 2
    assert "fixed_panels [0, 1, 2]" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_cli_certify(tmp_path, capsys):
    code = main(["certify", "--trials", "25", "--m", "2", "--axis-points", "180",
                 "--seed", "4", "--out", str(tmp_path)])
    assert code == 0
    assert "certified 25 panels" in capsys.readouterr().out
    text = (tmp_path / "certify.csv").read_text().splitlines()
    assert text[0] == "panel,m,grid_points,grid_max,closed_form,gap,bound"
    assert len(text) == 26
    assert main(["certify", "--m", "5"]) == 2  # beyond exhaustive reach

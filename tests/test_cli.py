"""CLI front end: config resolution, CSV/SVG emission, exit codes."""
import dataclasses
import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from irsradar import cli, harness
from irsradar.cli import (
    CSV_HEADER,
    _axis_values,
    _fmt,
    _log_spaced,
    emit_csv,
    emit_plot,
    main,
    parse_config,
)
from irsradar.errors import UsageError
from irsradar.harness import SweepResult
from irsradar.phaseopt import CertificationRecord, CertifiedPanels

SMALL_ARGS = ["--n", "20", "--k", "3", "--m", "4", "--trials", "30"]


def read_csv(path: str) -> list:
    """Read an emit_csv file back as one dict per row, numerics parsed."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 fields")
            rows.append(
                {
                    "axis": float(parts[0]),
                    "mode": parts[1],
                    "mean_nmse": float(parts[2]),
                    "stderr_nmse": float(parts[3]),
                    "mean_crb_trace": float(parts[4]),
                    "trials": int(parts[5]),
                }
            )
    return rows


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
        excluded_by_cause=np.zeros((axis.size, 3), dtype=int),
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


def test_config_key_given_twice_is_rejected(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("trials = 10\n# a comment\nn = 20\ntrials = 2000\n")
    with pytest.raises(UsageError, match=re.escape(f"{cfgfile}:4: key 'trials' repeats line 1")):
        parse_config(["sweep-gamma", "--config", str(cfgfile)])


@pytest.mark.parametrize("key, value", [
    ("axis_scale", "cubic"), ("policy", "bogus"), ("nlos_form", "cubed")])
def test_config_choice_values_are_checked_when_read(tmp_path, key, value):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"n = 20\n{key} = {value}\n")
    with pytest.raises(UsageError, match=re.escape(f"{cfgfile}:2: key '{key}'")):
        parse_config(["sweep-gamma", "--config", str(cfgfile)])


def _sample(f):
    """A value for run key f that differs from its default and passes validation."""
    if f.type is bool:
        return True
    if f.metadata["choices"]:
        return next(c for c in f.metadata["choices"] if c != f.default)
    if f.type is int:
        return f.default + 1
    return 0.5 if f.type is float else "elsewhere"


def test_every_run_key_is_one_flag_one_config_key_one_default(tmp_path, capsys):
    keys = dataclasses.fields(cli.RunConfig)[1:]
    with pytest.raises(SystemExit):
        parse_config(["-h"])
    help_text = " ".join(capsys.readouterr().out.split())
    defaults = parse_config(["single"])
    for f in keys:
        flag = "--" + f.name.replace("_", "-")
        assert f"{flag} " in help_text and " ".join(f.metadata["help"].split()) in help_text, f.name
        assert getattr(defaults, f.name) == f.default, f.name
        value = _sample(f)
        sub = "sweep-gamma" if f.name in cli._REJECTED["single"] else "single"
        by_flag = parse_config([sub, flag] if value is True else [sub, flag, str(value)])
        cfgfile = tmp_path / f"{f.name}.cfg"
        cfgfile.write_text(f"{f.name} = {str(value).lower() if value is True else value}\n")
        by_file = parse_config([sub, "--config", str(cfgfile)])
        assert getattr(by_flag, f.name) == getattr(by_file, f.name) == value, f.name


def test_freeze_waveform_key_is_unknown(tmp_path, capsys):
    # the CLI sets only white noise, under which no code is drawn, so a key
    # that would freeze the code could change no output byte
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("freeze_waveform = true\n")
    out = tmp_path / "out"
    assert main(["sweep-gamma", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "unknown key 'freeze_waveform'" in capsys.readouterr().err
    assert not out.exists()


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


def test_value_validation(tmp_path, capsys):
    # Scenario owns the trial count, so the rule fires in main, before --out is made
    out = tmp_path / "out"
    assert main(["sweep-gamma", "--trials", "0", "--out", str(out)]) == 2
    assert "trials" in capsys.readouterr().err
    assert not out.exists()
    for bad in ("-1", str(2**64)):
        with pytest.raises(UsageError, match="seed"):
            parse_config(["sweep-gamma", "--seed", bad])
    assert parse_config(["sweep-gamma", "--seed", str(2**64 - 1)]).seed == 2**64 - 1
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


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_info:
        parse_config(["-h"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for sub, text in cli._HELP.items():
        assert any(line.split() == [sub, *text.split()] for line in lines), sub
    assert list(cli._HELP) == list(cli.SUBCOMMANDS) == [
        "sweep-gamma", "sweep-noise", "crb", "single", "certify"]


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


@pytest.mark.parametrize("flags", [
    [*SMALL_ARGS, "--seed", "3", "--axis-min", "1e-2", "--axis-max", "1e2", "--axis-points", "3"],
    ["--trials", "50"],
], ids=["small", "defaults"])
def test_cli_crb_table_is_the_gamma_sweeps(flags, tmp_path):
    # crb is sweep-gamma with the bound plotted: the same draws, estimates
    # and table, byte for byte; only the SVG's field differs
    assert main(["crb", *flags, "--out", str(tmp_path)]) == 0
    assert main(["sweep-gamma", *flags, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "crb.csv").read_bytes() == (tmp_path / "sweep_gamma.csv").read_bytes()


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


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["sweep-gamma", "--gamma", "0.5"]) == 2
    assert "conflicts" in capsys.readouterr().err
    # one trial cannot produce a spread estimate; rejected before any trial runs
    assert main(["single", "--n", "20", "--k", "3", "--m", "4", "--trials", "1",
                 "--policy", "optimal", "--out", str(tmp_path)]) == 2
    assert "trials" in capsys.readouterr().err
    assert main(["single", "--csi", str(tmp_path / "missing.csi"),
                 "--out", str(tmp_path)]) == 4
    # bad values fail before the first trial, naming the input
    def no_trials(*args):
        raise AssertionError("a trial was evaluated")

    monkeypatch.setattr(harness, "_evaluate_block", no_trials)
    for argv, name in (
        (["sweep-noise", "--gamma", "0"], "gamma"),
        (["single", "--gamma", "nan"], "gamma"),
        (["sweep-gamma", "--sigma2", "inf"], "sigma2"),
        (["sweep-gamma", "--axis-max", "inf"], "axis_max"),
        # powers outside the supported range
        (["single", "--gamma", "1e-320"], "gamma"),
        (["sweep-gamma", "--axis-min", "1e-320"], "gamma"),
        (["single", "--sigma2", "1e-320", "--gamma", "0.1"], "sigma2"),
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


@pytest.mark.parametrize("value", ["1e-100", "1e100", "1e160"])
def test_cli_rejects_csi_outside_power_range_before_any_trial(tmp_path, capsys, value):
    # panels whose aligned power under- or overflows used to exclude or
    # spoil every trial
    csi = tmp_path / "far.csi"
    csi.write_text(f"{value},0\n" * (3 * 2 * 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["single", "--n", "20", "--k", "3", "--m", "4", "--trials", "30",
                     "--gamma", "0.1", "--csi", str(csi), "--out", str(tmp_path)])
    assert code == 2
    assert "fixed_panels [0, 1, 2]" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("cancelling", [(0,), (0, 1)])
def test_cli_rejects_a_cancelling_fixed_replay_before_any_trial(tmp_path, capsys, cancelling):
    # a panel with g = (1, 1), h = (1, -1) composes to zero at the fixed
    # policy's zero phases: one such panel used to exit 2 from inside the
    # estimate, after the draw, and two exited 3 after 100 scene attempts
    # per trial
    csi = tmp_path / "cancelling.csi"
    panels = [("1,0", "1,0", "1,0", "-1,0") if p in cancelling else ("1,0", "2,0", "1,0", "1,0")
              for p in range(2)]
    csi.write_text("\n".join(v for panel in panels for v in panel) + "\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["single", "--k", "2", "--m", "2", "--policy", "fixed", "--trials", "4",
                     "--csi", str(csi), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: fixed_panels {list(cancelling)} have fixed path power")
    assert not out.exists()
    # the same file is fine for the random and optimal policies
    for policy in ("random", "optimal"):
        assert main(["single", "--k", "2", "--m", "2", "--policy", policy, "--trials", "4",
                     "--csi", str(csi), "--out", str(out)]) == 0


def test_cli_certify(tmp_path, capsys):
    code = main(["certify", "--trials", "25", "--m", "2", "--axis-points", "180",
                 "--seed", "4", "--out", str(tmp_path)])
    assert code == 0
    assert "certified 25 panels" in capsys.readouterr().out
    text = (tmp_path / "certify.csv").read_text().splitlines()
    assert text[0] == "panel,m,grid_points,grid_max,closed_form,gap,bound"
    assert len(text) == 26
    assert main(["certify", "--m", "5"]) == 2  # beyond exhaustive reach


def test_cli_certify_rejects_large_m_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["certify", "--m", "5", "--trials", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: m must be at most 4")
    assert not out.exists()


def test_cli_certify_rejects_an_oversized_grid_before_any_output(tmp_path, capsys):
    # the node table grew linearly in the grid density: 10^7 points per
    # phase peaked at 341 MiB, and 10^9 would need about 34 GB
    out = tmp_path / "out"
    argv = ["certify", "--m", "2", "--trials", "3", "--axis-points", "1000000", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: grid density 1000000 needs a")
    assert not out.exists()


def _record_rule(gmax, closed, gap, bound):
    """Failures and worst gap as the CLI counted them, one CertificationRecord per panel."""
    failures, worst = 0, 0.0
    for row in zip(gmax, closed, gap, bound):
        rec = CertificationRecord(*row, grid_points=720)
        worst = max(worst, rec.gap)
        failures += 0 if rec.within_bound else 1
    return failures, worst


@pytest.mark.parametrize("gap", [
    [0.0, -0.0, 3e-13, 2e-3, -5e-13],  # all within: 1e-12 * closed form is the slack
    [0.0, 2e-3, np.nan, 1e-12, -0.0],  # 2e-3 + slack is over the bound
    [np.nan, np.inf, -np.inf, 1e-3, 0.0],
    [-1.0, -2.0, np.nan, np.nan, -np.inf],
])
def test_cli_certify_counts_by_the_record_rule(gap, tmp_path, capsys, monkeypatch):
    closed = np.array([1.0, 2.0, 0.5, 1.0, 3.0])
    bound = closed * (1.0 - np.cos(np.pi / 720)) + np.array([0.0, 0.0, 0.0, 2e-3, 0.0])
    gap = np.array(gap)
    cert = CertifiedPanels(closed - gap, closed, gap, bound)
    monkeypatch.setattr(cli, "certify_panels", lambda *args: cert)
    columns = [a.tolist() for a in (closed - gap, closed, gap, bound)]
    failures, worst = _record_rule(*columns)
    code = main(["certify", "--trials", "5", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    if failures:
        assert code == 3
        assert f"{failures} of 5 panels exceeded" in captured.err
    else:
        assert code == 0
        assert f"worst gap {worst:.3e}" in captured.out
    # the rows as one f-string per value wrote them, nan and inf included
    rows = [f"{i},2,720," + ",".join(_fmt(v) for v in vals) for i, vals in enumerate(zip(*columns))]
    expect = "panel,m,grid_points,grid_max,closed_form,gap,bound\n" + "".join(r + "\n" for r in rows)
    assert (tmp_path / "certify.csv").read_text() == expect


def test_cli_certify_infinite_worst_gap(tmp_path, capsys, monkeypatch):
    closed = np.full(4, 1e3)
    gap = np.array([1e-2, np.inf, 1e-10, -1e-12])
    bound = np.full(4, np.inf)  # every gap is within an infinite bound
    cert = CertifiedPanels(closed - gap, closed, gap, bound)
    assert _record_rule(*(a.tolist() for a in (closed - gap, closed, gap, bound))) == (0, np.inf)
    monkeypatch.setattr(cli, "certify_panels", lambda *args: cert)
    assert main(["certify", "--trials", "4", "--out", str(tmp_path)]) == 0
    assert "worst gap inf" in capsys.readouterr().out


def test_cli_certify_large_csi_scale(tmp_path, capsys):
    # element phases on the grid and |c| ~ 1e8: the grid maximum equals the
    # closed form up to rounding, which can put it ahead by about 1e-8
    lines = []
    for a in range(1, 60):
        g = 1e4 * np.exp(-2j * np.pi * np.array([a, 2 * a + 1, 3 * a + 7]) / 360)
        lines += [f"{v.real!r},{v.imag!r}" for v in g.tolist()] + ["10000.0,0.0"] * 3
    csi = tmp_path / "large.csi"
    csi.write_text("\n".join(lines) + "\n")
    code = main(["certify", "--csi", str(csi), "--k", "59", "--m", "3", "--axis-points", "360",
                 "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    assert "certified 59 panels" in capsys.readouterr().out


def test_log_axes_hit_their_endpoints(tmp_path):
    for argv, lo, hi in (
        (["sweep-gamma"], 1e-5, 1e5),
        (["sweep-noise"], 1e-5, 1.0),
        (["crb"], 1e-5, 1e5),
        (["sweep-gamma", "--axis-min", "3e-7", "--axis-max", "7e4"], 3e-7, 7e4),
    ):
        axis = _axis_values(parse_config(argv))
        assert (axis[0], axis[-1]) == (lo, hi)
    # the bounds of the supported sigma2 range are themselves supported
    assert main(["sweep-noise", "--n", "20", "--k", "3", "--m", "4", "--trials", "3",
                 "--gamma", "1", "--axis-points", "2", "--axis-min", "1e-30",
                 "--axis-max", "1e30", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("sub", ["sweep-gamma", "single", "certify"])
def test_seed_beyond_64_bits_exits_2_before_any_output(sub, tmp_path, capsys):
    # the streams are keyed by the seed as one unsigned 64-bit word
    out = tmp_path / "out"
    assert main([sub, "--trials", "2", "--seed", str(2**64), "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["sweep-gamma", "--n", "4", "--k", "5"], "k must not exceed n"),
    (["sweep-noise", "--gamma", "1e-40"], "gamma"),
    (["sweep-gamma", "--sigma2", "1e40"], "sigma2"),
    (["crb", "--m", "0"], "m must be positive"),
    (["certify", "--csi", "{csi}"], "non-finite entry"),
    (["sweep-gamma", "--axis-max", "1e40"], "gamma"),  # a swept value, checked by the sweep
    (["sweep-noise", "--gamma", "0"], "gamma must be positive"),  # the los mode's rule
], ids=["k_above_n", "gamma_below_range", "sigma2_above_range", "crb_m_zero", "certify_bad_csi",
        "swept_gamma_above_range", "los_needs_gamma"])
def test_rejected_inputs_exit_2_before_any_output(argv, name, tmp_path, capsys):
    # the output directory is made only once every input is accepted
    csi = tmp_path / "nan.csi"
    csi.write_text("nan,0\n")
    out = tmp_path / "out"
    argv = [a.replace("{csi}", str(csi)) for a in argv]
    assert main([*argv, "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()

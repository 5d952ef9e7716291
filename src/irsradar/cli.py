"""Command-line front end: seeded sweeps written as CSV tables and SVG plots.

Outputs are fully determined by (config, seed): file contents carry no
timestamps, machine names, or float formatting that could vary between
runs, so re-running a configuration reproduces every byte.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .channel import NLOS_FORMS, read_csi_file, split_crandn, stack_panels
from .errors import NumericalError, UsageError
from .harness import SEED_BOUND, Scenario, SweepResult, _sweep, sweep_gamma, sweep_noise
from .phaseopt import CERTIFY_MAX_ELEMENTS, certify_panels, within_bound

SUBCOMMANDS = ("sweep-gamma", "sweep-noise", "crb", "single", "certify")

CSV_HEADER = "axis,mode,mean_nmse,stderr_nmse,mean_crb_trace,trials"

_DISPLAY = {
    "los": "LoS",
    "nlos_random": "NLoS-random",
    "nlos_optimal": "NLoS-optimal",
    "nlos_fixed": "NLoS-fixed",
}

_COLORS = {
    "los": "#1f77b4",
    "nlos_random": "#d62728",
    "nlos_optimal": "#2ca02c",
    "nlos_fixed": "#9467bd",
}

_INT_KEYS = {"n", "k", "m", "trials", "seed", "axis_points"}
_FLOAT_KEYS = {"gamma", "sigma2", "axis_min", "axis_max"}
_BOOL_KEYS = {"plot", "freeze_waveform"}
_STR_KEYS = {"axis_scale", "policy", "nlos_form", "out", "csi"}
_CONFIG_KEYS = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS

_DEFAULTS = {
    "n": 50,
    "k": 5,
    "m": 10,
    "trials": 1000,
    "seed": 0,
    "gamma": 1e-2,
    "sigma2": 1e-2,
    "axis_min": None,
    "axis_max": None,
    "axis_points": 21,
    "axis_scale": "log",
    "policy": None,
    "nlos_form": "complex",
    "out": ".",
    "plot": False,
    "csi": None,
    "freeze_waveform": False,
}

_SUB_DEFAULTS = {
    "sweep-gamma": {"axis_min": 1e-5, "axis_max": 1e5},
    "crb": {"axis_min": 1e-5, "axis_max": 1e5},
    "sweep-noise": {"axis_min": 1e-5, "axis_max": 1.0},
    "single": {},
    # grid density rides the axis_points field; exhaustive search caps M
    "certify": {"axis_points": 720, "m": 2},
}

# keys whose explicit presence contradicts the subcommand
_REJECTED = {
    "sweep-gamma": {
        "gamma": "gamma is the sweep axis; set --axis-min/--axis-max instead",
        "policy": "sweeps always run all three link policies",
    },
    "crb": {
        "gamma": "gamma is the sweep axis; set --axis-min/--axis-max instead",
        "policy": "sweeps always run all three link policies",
    },
    "sweep-noise": {
        "sigma2": "sigma2 is the sweep axis; set --axis-min/--axis-max instead",
        "policy": "sweeps always run all three link policies",
    },
    "single": {
        "axis_min": "single evaluates one point; it has no axis",
        "axis_max": "single evaluates one point; it has no axis",
        "axis_points": "single evaluates one point; it has no axis",
        "axis_scale": "single evaluates one point; it has no axis",
        "plot": "a single point cannot be plotted; read the CSV output",
    },
    "certify": {
        "n": "certification involves no slow-time model",
        "gamma": "certification involves no link scenario",
        "sigma2": "certification involves no noise",
        "nlos_form": "certification checks the phase optimum only",
        "policy": "certification always compares against the optimal phases",
        "axis_min": "certify reuses --axis-points as grid density; no axis range",
        "axis_max": "certify reuses --axis-points as grid density; no axis range",
        "axis_scale": "certify reuses --axis-points as grid density; no axis range",
        "plot": "certification produces a CSV table only",
        "freeze_waveform": "certification involves no waveform",
    },
}


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation; everything a run needs."""

    subcommand: str
    n: int
    k: int
    m: int
    trials: int
    seed: int
    gamma: float
    sigma2: float
    axis_min: float
    axis_max: float
    axis_points: int
    axis_scale: str
    policy: str
    nlos_form: str
    out: str
    plot: bool
    csi: str
    freeze_waveform: bool


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, help="pulses per observation (default 50)")
    common.add_argument("--k", type=int, help="reflecting platforms (default 5)")
    common.add_argument("--m", type=int, help="elements per platform (default 10)")
    common.add_argument("--trials", type=int, help="Monte-Carlo trials per point (default 1000)")
    common.add_argument("--seed", type=int, help="master seed (default 0)")
    common.add_argument("--gamma", type=float, help="direct-to-reflected power ratio")
    common.add_argument("--sigma2", type=float, help="noise power (default 1e-2)")
    common.add_argument("--axis-min", type=float, help="sweep axis lower end")
    common.add_argument("--axis-max", type=float, help="sweep axis upper end")
    common.add_argument("--axis-points", type=int, help="sweep points (certify: grid density)")
    common.add_argument("--axis-scale", choices=("log", "linear"), help="axis spacing")
    common.add_argument(
        "--policy",
        choices=("optimal", "random", "fixed"),
        help="phase policy for 'single' (fixed means all-zero shifts)",
    )
    common.add_argument("--nlos-form", choices=NLOS_FORMS, help="reflected coefficient form")
    common.add_argument("--out", help="output directory (default .)")
    common.add_argument("--plot", action="store_true", default=None, help="also write an SVG")
    common.add_argument("--config", help="flat key = value file; flags override it")
    common.add_argument("--csi", help="replay fixed panel gains from file")

    parser = argparse.ArgumentParser(
        prog="irsradar",
        description="Monte-Carlo study of reflecting-surface-aided target estimation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("sweep-gamma", parents=[common], help="NMSE versus direct-link strength")
    sub.add_parser("sweep-noise", parents=[common], help="NMSE versus noise power")
    sub.add_parser("crb", parents=[common], help="estimation bound versus direct-link strength")
    sub.add_parser("single", parents=[common], help="one operating point, full detail")
    sub.add_parser("certify", parents=[common], help="grid-check the closed-form phase optimum")
    return parser


def _coerce(key: str, raw: str, where: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError:
        raise UsageError(f"{where}: key {key!r} needs a number, got {raw!r}") from None
    if key in _BOOL_KEYS:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise UsageError(f"{where}: key {key!r} needs true/false, got {raw!r}")
    return raw


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, raw = text.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep or not key or not raw:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _coerce(key, raw, where=f"{path}:{lineno}")
    return out


def _validate(cfg: RunConfig) -> None:
    for key in ("n", "k", "m", "trials"):
        if getattr(cfg, key) < 1:
            raise UsageError(f"{key} must be positive")
    if not 0 <= cfg.seed < SEED_BOUND:
        raise UsageError("seed must lie in [0, 2**64)")
    if cfg.gamma < 0:
        raise UsageError("gamma must be nonnegative")
    if cfg.sigma2 <= 0:
        raise UsageError("sigma2 must be positive")
    if cfg.axis_points < 2:
        raise UsageError("axis_points must be at least 2")
    if cfg.axis_scale not in ("log", "linear"):
        raise UsageError(f"axis_scale must be log or linear, got {cfg.axis_scale!r}")
    if cfg.policy not in (None, "optimal", "random", "fixed"):
        raise UsageError(f"policy must be optimal, random, or fixed, got {cfg.policy!r}")
    if cfg.nlos_form not in NLOS_FORMS:
        raise UsageError(f"nlos_form must be one of {NLOS_FORMS}, got {cfg.nlos_form!r}")
    if cfg.subcommand == "certify" and cfg.m > CERTIFY_MAX_ELEMENTS:
        raise UsageError(
            f"m must be at most {CERTIFY_MAX_ELEMENTS} for certify's exhaustive grid, got {cfg.m}"
        )
    if cfg.subcommand in ("sweep-gamma", "sweep-noise", "crb"):
        if cfg.axis_min is None or cfg.axis_max is None:
            raise UsageError("axis_min and axis_max are required")
        for key in ("axis_min", "axis_max"):
            if not np.isfinite(getattr(cfg, key)):
                raise UsageError(f"{key} must be finite")
        if not cfg.axis_min < cfg.axis_max:
            raise UsageError("axis_min must be below axis_max")
        if cfg.axis_scale == "log" and cfg.axis_min <= 0:
            raise UsageError("log axis_scale needs positive axis bounds")


def parse_config(argv=None) -> RunConfig:
    """Resolve flags over config-file values over defaults into a RunConfig."""
    ns = _build_parser().parse_args(argv)
    sub = ns.subcommand

    merged = dict(_DEFAULTS)
    merged.update(_SUB_DEFAULTS[sub])
    explicit = set()
    if ns.config is not None:
        file_values = _parse_config_file(ns.config)
        merged.update(file_values)
        explicit |= set(file_values)
    for key in _CONFIG_KEYS:
        flag = getattr(ns, key, None)  # freeze_waveform is config-file only
        if flag is not None:
            merged[key] = flag
            explicit.add(key)

    for key in sorted(explicit & set(_REJECTED[sub])):
        raise UsageError(f"{key} conflicts with {sub}: {_REJECTED[sub][key]}")
    if sub == "certify" and "k" in explicit and "csi" not in explicit:
        raise UsageError("k conflicts with certify: panel count only applies to --csi replay")

    cfg = RunConfig(subcommand=sub, **merged)
    _validate(cfg)
    return cfg


def _fmt(v: float) -> str:
    return f"{v:.9e}"


def emit_csv(result: SweepResult, path: str) -> None:
    """Write one row per (axis value, mode), sorted by axis then mode name."""
    order = np.argsort(result.axis_values, kind="stable")
    lines = [CSV_HEADER]
    for i in order:
        for lab in sorted(result.modes):
            lines.append(
                ",".join(
                    (
                        _fmt(result.axis_values[i]),
                        lab,
                        _fmt(result.mean_nmse[lab][i]),
                        _fmt(result.stderr_nmse[lab][i]),
                        _fmt(result.mean_crb_trace[lab][i]),
                        str(int(result.included[i])),
                    )
                )
            )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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


def _log_spaced(x: np.ndarray) -> bool:
    if np.any(x <= 0) or x.size < 2:
        return False
    if x.size == 2:
        return x[1] / x[0] >= 10.0
    d_log = np.diff(np.log(x))
    d_lin = np.diff(x)
    even_log = np.allclose(d_log, d_log[0], rtol=1e-6, atol=1e-12)
    even_lin = np.allclose(d_lin, d_lin[0], rtol=1e-6, atol=1e-12)
    return even_log and not even_lin


def _axis_ticks(lo: float, hi: float, log: bool) -> list:
    if log:
        k0, k1 = int(np.ceil(lo - 1e-9)), int(np.floor(hi + 1e-9))
        step = max(1, (k1 - k0) // 6 + (1 if (k1 - k0) % 6 else 0))
        return [float(k) for k in range(k0, k1 + 1, step)]
    return list(np.linspace(lo, hi, 5))


def _tick_text(t: float, log: bool) -> str:
    return f"{10.0 ** t:.0e}" if log else f"{t:.3g}"


def emit_plot(result: SweepResult, path: str, field: str = "mean_nmse") -> None:
    """Write a self-contained SVG, one polyline per mode, log axes as spaced."""
    x = np.asarray(result.axis_values, dtype=float)
    if x.size < 2:
        raise UsageError("a single-point axis cannot be plotted; use the CSV output")
    series = {"mean_nmse": result.mean_nmse, "mean_crb_trace": result.mean_crb_trace}[field]
    labels = sorted(result.modes)

    log_x = _log_spaced(x)
    xv = np.log10(x) if log_x else x
    allv = np.concatenate([np.asarray(series[lab], dtype=float) for lab in labels])
    allv = allv[np.isfinite(allv)]
    ymin, ymax = float(allv.min()), float(allv.max())
    log_y = ymin > 0 and ymax / ymin > 30.0
    ylo, yhi = (np.log10(ymin), np.log10(ymax)) if log_y else (ymin, ymax)
    if yhi - ylo < 1e-12:  # flat data still needs a drawable range
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    xlo, xhi = float(xv.min()), float(xv.max())

    x0, y0, x1, y1 = 70.0, 20.0, 610.0, 385.0  # plot box, SVG y grows downward

    def px(v):
        return x0 + (v - xlo) / (xhi - xlo) * (x1 - x0)

    def py(v):
        return y1 - (v - ylo) / (yhi - ylo) * (y1 - y0)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="440" '
        'viewBox="0 0 640 440" font-family="sans-serif" font-size="12">',
        '<rect x="0" y="0" width="640" height="440" fill="white"/>',
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        'fill="none" stroke="black"/>',
    ]
    for t in _axis_ticks(xlo, xhi, log_x):
        if not xlo - 1e-9 <= t <= xhi + 1e-9:
            continue
        p = px(t)
        parts.append(f'<line x1="{p:.2f}" y1="{y1:.2f}" x2="{p:.2f}" y2="{y1 + 5:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{p:.2f}" y="{y1 + 18:.2f}" text-anchor="middle">{_tick_text(t, log_x)}</text>'
        )
    for t in _axis_ticks(ylo, yhi, log_y):
        if not ylo - 1e-9 <= t <= yhi + 1e-9:
            continue
        p = py(t)
        parts.append(f'<line x1="{x0 - 5:.2f}" y1="{p:.2f}" x2="{x0:.2f}" y2="{p:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{p + 4:.2f}" text-anchor="end">{_tick_text(t, log_y)}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="425" text-anchor="middle">{result.axis_name}</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">{field}</text>'
    )
    for lab in labels:
        vals = np.asarray(series[lab], dtype=float)
        vv = np.log10(vals) if log_y else vals
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xv, vv))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{_COLORS[lab]}" stroke-width="1.5"/>'
        )
    for idx, lab in enumerate(labels):
        ly = y0 + 16 + 18 * idx
        parts.append(
            f'<line x1="{x1 - 150:.2f}" y1="{ly:.2f}" x2="{x1 - 122:.2f}" y2="{ly:.2f}" '
            f'stroke="{_COLORS[lab]}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{x1 - 116:.2f}" y="{ly + 4:.2f}">{_DISPLAY[lab]}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _axis_values(cfg: RunConfig) -> np.ndarray:
    if cfg.axis_scale == "log":
        # geomspace returns the bounds themselves; logspace rounds them
        return np.geomspace(cfg.axis_min, cfg.axis_max, cfg.axis_points)
    return np.linspace(cfg.axis_min, cfg.axis_max, cfg.axis_points)


def _scenario(cfg: RunConfig) -> Scenario:
    panels = read_csi_file(cfg.csi, cfg.k, cfg.m) if cfg.csi else None
    try:
        return Scenario(
            n=cfg.n,
            k=cfg.k,
            m=cfg.m,
            gamma=cfg.gamma,
            sigma2=cfg.sigma2,
            trials=cfg.trials,
            master_seed=cfg.seed,
            nlos_form=cfg.nlos_form,
            freeze_waveform=cfg.freeze_waveform,
            fixed_panels=panels,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run_single(cfg: RunConfig, template: Scenario) -> SweepResult:
    if cfg.policy is None:
        return sweep_gamma(template, [cfg.gamma])
    mode = {"optimal": "nlos_optimal", "random": "nlos_random", "fixed": "nlos_fixed"}[cfg.policy]
    if cfg.policy == "fixed":
        template = replace(template, fixed_theta=np.zeros((cfg.k, cfg.m)))
    return _sweep(template, "gamma", [cfg.gamma], (mode,))


def _run_certify(cfg: RunConfig) -> None:
    if cfg.csi:
        g, h, beta = stack_panels(read_csi_file(cfg.csi, cfg.k, cfg.m))
    else:
        # one draw for all panels; each row splits into g and h, each m complex Gaussians
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
        g, h = split_crandn(rng.standard_normal((cfg.trials, 4 * cfg.m)), cfg.m, cfg.m)
        beta = np.ones(g.shape)
    cert = certify_panels(g, h, beta, cfg.axis_points)
    P = len(cert.gap)
    # one %-format for every row; "%d" prints the float panel index exactly
    row = f"%d,{cfg.m},{cfg.axis_points},%.9e,%.9e,%.9e,%.9e\n"
    table = np.column_stack((np.arange(P), cert.grid_max, cert.closed_form, cert.gap, cert.bound))
    text = "panel,m,grid_points,grid_max,closed_form,gap,bound\n" + row * P % tuple(table.ravel().tolist())
    failures = int(np.count_nonzero(~within_bound(cert.gap, cert.closed_form, cert.bound)))
    # the largest positive gap, 0 if none; NaN gaps count as failures above
    worst = float(np.max(cert.gap, where=cert.gap > 0, initial=0.0))
    path = os.path.join(cfg.out, "certify.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    if failures:
        raise NumericalError(
            f"{failures} of {P} panels exceeded the quantization bound; see {path}"
        )
    print(f"certified {P} panels at {cfg.axis_points} points per phase; worst gap {worst:.3e}")
    print(f"wrote {path}")


def _run(cfg: RunConfig) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    if cfg.subcommand == "certify":
        _run_certify(cfg)
        return
    template = _scenario(cfg)
    if cfg.subcommand == "single":
        result = _run_single(cfg, template)
        path = os.path.join(cfg.out, "single.csv")
        emit_csv(result, path)
        print(f"wrote {path}")
        return
    axis = _axis_values(cfg)
    if cfg.subcommand == "sweep-noise":
        result, stem = sweep_noise(template, axis), "sweep_noise"
    elif cfg.subcommand == "sweep-gamma":
        result, stem = sweep_gamma(template, axis), "sweep_gamma"
    else:
        result, stem = sweep_gamma(template, axis), "crb"
    csv_path = os.path.join(cfg.out, stem + ".csv")
    emit_csv(result, csv_path)
    print(f"wrote {csv_path}")
    if cfg.plot:
        svg_path = os.path.join(cfg.out, stem + ".svg")
        field = "mean_crb_trace" if cfg.subcommand == "crb" else "mean_nmse"
        emit_plot(result, svg_path, field=field)
        print(f"wrote {svg_path}")


def main(argv=None) -> int:
    try:
        _run(parse_config(argv))
    except ValueError as exc:  # UsageError and contract violations alike
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())

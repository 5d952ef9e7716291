"""Command-line front end: seeded sweeps written as CSV tables and SVG plots.

Outputs are fully determined by (config, seed): file contents carry no
timestamps, machine names, or float formatting that could vary between
runs, so re-running a configuration reproduces every byte.
"""
import argparse
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import NLOS_FORMS, read_csi_file, split_crandn, stack_panels
from .errors import NumericalError, UsageError
from .harness import SEED_BOUND, Scenario, SweepResult, _sweep, sweep_gamma, sweep_noise
from .phaseopt import CERTIFY_MAX_ELEMENTS, _panels_per_chunk, certify_panels, within_bound

_HELP = {
    "sweep-gamma": "NMSE versus direct-link strength",
    "sweep-noise": "NMSE versus noise power",
    "crb": "estimation bound versus direct-link strength",
    "single": "one operating point, full detail",
    "certify": "grid-check the closed-form phase optimum",
}
SUBCOMMANDS = tuple(_HELP)

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

_POLICY_MODES = {"optimal": "nlos_optimal", "random": "nlos_random", "fixed": "nlos_fixed"}

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
    **{sub: {axis: f"{axis} is the sweep axis; set --axis-min/--axis-max instead",
             "policy": "sweeps always run all three link policies"}
       for sub, axis in (("sweep-gamma", "gamma"), ("crb", "gamma"), ("sweep-noise", "sigma2"))},
    "single": {
        **dict.fromkeys(("axis_min", "axis_max", "axis_points", "axis_scale"),
                        "single evaluates one point; it has no axis"),
        "plot": "a single point cannot be plotted; read the CSV output",
    },
    "certify": {
        "n": "certification involves no slow-time model",
        "gamma": "certification involves no link scenario",
        "sigma2": "certification involves no noise",
        "nlos_form": "certification checks the phase optimum only",
        "policy": "certification always compares against the optimal phases",
        **dict.fromkeys(("axis_min", "axis_max", "axis_scale"),
                        "certify reuses --axis-points as grid density; no axis range"),
        "plot": "certification produces a CSV table only",
    },
}


def _key(default, text: str, choices: tuple = ()):
    """A run key: a RunConfig field that is also a flag and a config-file key."""
    return field(default=default, metadata={"help": text, "choices": choices})


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved invocation; everything a run needs.

    Every field after subcommand is a run key, declared here only: the
    flag --axis-min and the config-file key axis_min both set axis_min.
    The field's type is the value's type and its default the default
    (before _SUB_DEFAULTS); its metadata holds the help text and any
    choices.  The parser reads the types at run time, so this module
    does without `from __future__ import annotations`.
    """

    subcommand: str
    n: int = _key(50, "pulses per observation (default 50)")
    k: int = _key(5, "reflecting platforms (default 5)")
    m: int = _key(10, "elements per platform (default 10)")
    trials: int = _key(1000, "Monte-Carlo trials per point (default 1000)")
    seed: int = _key(0, "master seed (default 0)")
    gamma: float = _key(1e-2, "direct-to-reflected power ratio")
    sigma2: float = _key(1e-2, "noise power (default 1e-2)")
    axis_min: float = _key(None, "sweep axis lower end")
    axis_max: float = _key(None, "sweep axis upper end")
    axis_points: int = _key(21, "sweep points (certify: grid density)")
    axis_scale: str = _key("log", "axis spacing", ("log", "linear"))
    policy: str = _key(None, "phase policy for 'single' (fixed means all-zero shifts)",
                       tuple(_POLICY_MODES))
    nlos_form: str = _key("complex", "reflected coefficient form", NLOS_FORMS)
    out: str = _key(".", "output directory (default .)")
    plot: bool = _key(False, "also write an SVG")
    csi: str = _key(None, "replay fixed panel gains from file")


_RUN_KEYS = {f.name: f for f in fields(RunConfig)[1:]}


def _build_parser() -> argparse.ArgumentParser:
    # one flat parser: every subcommand takes the same flags, and _REJECTED
    # owns the conflicts between a flag and a subcommand
    parser = argparse.ArgumentParser(
        prog="irsradar",
        usage="%(prog)s [-h] subcommand [flags]",
        description="Monte-Carlo study of reflecting-surface-aided target estimation.",
        epilog="subcommands:\n" + "".join(f"  {sub:<13} {text}\n" for sub, text in _HELP.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS, metavar="subcommand",
                        help="one of the subcommands listed below")
    for key, f in _RUN_KEYS.items():
        flag, text, choices = "--" + key.replace("_", "-"), f.metadata["help"], f.metadata["choices"]
        if f.type is bool:
            parser.add_argument(flag, action="store_true", default=None, help=text)
        elif choices:
            parser.add_argument(flag, choices=choices, help=text)
        else:
            parser.add_argument(flag, type=f.type, help=text)
    parser.add_argument("--config", help="flat key = value file; flags override it")
    return parser


def _coerce(key: str, raw: str, where: str):
    f = _RUN_KEYS[key]
    choices = f.metadata["choices"]
    if f.type is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise UsageError(f"{where}: key {key!r} needs true/false, got {raw!r}")
    if choices:
        if raw not in choices:
            raise UsageError(f"{where}: key {key!r} needs one of {', '.join(choices)}, got {raw!r}")
        return raw
    try:
        return f.type(raw)
    except ValueError:
        raise UsageError(f"{where}: key {key!r} needs a number, got {raw!r}") from None


def _parse_config_file(path: str) -> dict:
    out, first_line = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, raw = text.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep or not key or not raw:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            if key not in _RUN_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            if key in first_line:
                raise UsageError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
            first_line[key] = lineno
            out[key] = _coerce(key, raw, where=f"{path}:{lineno}")
    return out


def _validate(cfg: RunConfig) -> None:
    """The rules Scenario does not own, and the seed, since certify builds no Scenario."""
    if not 0 <= cfg.seed < SEED_BOUND:
        raise UsageError("seed must lie in [0, 2**64)")
    if cfg.axis_points < 2:
        raise UsageError("axis_points must be at least 2")
    if cfg.subcommand == "certify":
        for key in ("k", "m", "trials"):
            if getattr(cfg, key) < 1:
                raise UsageError(f"{key} must be positive")
        if cfg.m > CERTIFY_MAX_ELEMENTS:
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

    merged = {key: f.default for key, f in _RUN_KEYS.items()}
    merged.update(_SUB_DEFAULTS[sub])
    explicit = set()
    if ns.config is not None:
        file_values = _parse_config_file(ns.config)
        merged.update(file_values)
        explicit |= set(file_values)
    for key in _RUN_KEYS:
        flag = getattr(ns, key)
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
            fixed_panels=panels,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run_single(cfg: RunConfig, template: Scenario) -> SweepResult:
    if cfg.policy is None:
        return sweep_gamma(template, [cfg.gamma])
    mode = _POLICY_MODES[cfg.policy]
    fixed = np.zeros((cfg.k, cfg.m)) if cfg.policy == "fixed" else None
    template = replace(template, link_mode=mode, fixed_theta=fixed)
    return _sweep(template, "gamma", [cfg.gamma], (mode,))


# Exact '%.9e' from uint64 words (_sci_words, _write_certify).  Every
# field is padded to whole words with NUL bytes, which no text contains,
# and a chunk's rows are written with the NULs deleted.
_ASCII = 0x3030303030303030  # '0' in each byte
_TIE = 1e-5  # scaled mantissas this close to a rounding tie go to '%.9e'
_EXP_RANGE = 300  # the exponent table's |e|; the exact path needs |e| <= 292
_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
# entry c: _ASCII on all but the first c bytes, for a word led by c bytes of padding
_INDEX_ASCII = np.array([_ASCII >> 8 * c << 8 * c for c in range(9)], dtype=np.uint64)


def _digits8(v: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each v < 10^8, one per byte, leading digit in the low byte.

    Each step splits every lane of x in two, the quotient q in the low
    half and the remainder in the high half, as (x << w) - q (d 2^w - 1):
    first d = 10^4 with q = v // 10^4, then in both 32-bit lanes d = 100
    with q = x * 5243 >> 19 (x // 100 for x < 10^4), then in all four
    16-bit lanes d = 10 with q = x * 103 >> 10 (x // 10 for x < 100).
    The bytes are digit values; OR _ASCII to print them.
    """
    q = v // 10000
    x = v << 32
    x -= q * (10000 * 2**32 - 1)
    q = x * 5243
    q >>= 19
    q &= 0x7F0000007F
    x <<= 16
    x -= q * (100 * 2**16 - 1)
    q = x * 103
    q >>= 10
    q &= 0xF000F000F000F
    x <<= 8
    x -= q * (10 * 2**8 - 1)
    return x


def _format_tables():
    """_sci_words' lookups: word 0 by the two leading digits, "d.d" in bytes 5
    to 7, and word 2 by column and exponent, 'e', the sign and two or three
    digits in bytes 0 to 4 and the column's separator in byte 5; then each
    column's offset into the second."""
    d = np.arange(100, dtype=np.uint64)
    heads = (d // 10 | 0x30) << 40 | np.uint64(0x2E << 48) | (d % 10 | 0x30) << 56
    e = np.arange(-_EXP_RANGE, _EXP_RANGE + 1)
    a = np.abs(e).astype(np.uint64)
    h, t, u = a // 100 | 0x30, a // 10 % 10 | 0x30, a % 10 | 0x30
    tails = np.where(e < 0, np.uint64(0x2D65), np.uint64(0x2B65))
    tails |= np.where(a >= 100, h << 16 | t << 24 | u << 32, t << 16 | u << 24)
    separators = np.array([ord(c) << 40 for c in ",,,\n"], dtype=np.uint64)
    return heads, (tails | separators[:, None]).ravel(), _EXP_RANGE + e.size * np.arange(4)


def _powers_of_ten(lo: int, hi: int) -> np.ndarray:
    # int -> float and int / int are correctly rounded
    return np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in range(lo, hi + 1)])


def _sci_words(v, tables, out, low8) -> np.ndarray:
    """Lay out '%.9e' % x of each x in the (R, 4) v; return the flat indices left to '%.9e'.

    out[..., 0] gets the sign in byte 4 and "d.d" in bytes 5 to 7,
    out[..., 2] the exponent and the column's separator (_format_tables),
    and low8 the last eight digits as a number, for _digits8.

    The path is exact by construction.  Only x with 1e-290 <= |x| <= 1e290
    take it, so every power and product below is a normal float.  With
    e = floor(log10|x|) the scaled mantissa is s = |x| 10^(9-e), formed
    as one product with 10^(9-e) correctly rounded (_powers_of_ten), so
    s = s_exact (1 + d1)(1 + d2) with |d1|, |d2| <= 2^-53.  Every s that
    is used has s < 1e10 + 1/2, so |s - s_exact| <= 1.1e10 * 2.3e-16 <
    2.6e-6, well under _TIE = 1e-5.

    - For 1e9 <= s < 1e10 - 1/2, '%.9e' rounds s_exact to an integer n
      (if s_exact < 1e9 by the error above, its ten digits at e - 1
      round up to 10^10 and print the same "1.000000000" at e).  When s
      is more than _TIE from every tie k + 1/2, s and s_exact lie on
      the same side of each, so rint(s) = n.
    - A log10 that misses by one leaves s below 1e9 or from 1e10 + 1/2
      up: e moves by one and s is formed again from |x|, not by
      dividing, so the bound above holds.  An s still outside goes to
      '%.9e'.
    - For 1e10 - 1/2 + _TIE < s < 1e10 + 1/2, '%.9e' prints 1.000000000
      at e + 1: an s_exact below 10^10 rounds up to it, and one from
      10^10 up has ten digits 10^9 at e + 1.
    - nan, inf, 0, subnormals, |x| outside the range and near-ties are
      left to the caller.
    """
    heads, tails, columns = tables
    a = np.abs(v)
    exact = a >= 1e-290
    exact &= a <= 1e290
    a = np.where(exact, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    k0 = 8 - int(e.max())  # 10^k0 ... cover 9 - e with e off by one either way
    powers = _powers_of_ten(k0, 10 - int(e.min()))
    s = np.take(powers, (9 - k0) - e)
    s *= a
    rare = np.flatnonzero((s < 1e9) | (s >= 1e10 - 0.5))
    if rare.size:
        er, sr = e.flat[rare], s.flat[rare]
        er += sr >= 1e10 + 0.5
        er -= sr < 1e9
        sr = a.flat[rare] * np.take(powers, (9 - k0) - er)
        carry = sr >= 1e10 - 0.5
        exact.flat[rare[(sr < 1e9) | (sr >= 1e10 + 0.5) | (carry & (sr - (1e10 - 0.5) <= _TIE))]] = False
        sr[carry] = 1e9
        er += carry
        e.flat[rare], s.flat[rare] = er, sr
    n = np.rint(s)
    s -= n
    np.abs(s, out=s)
    exact &= s < 0.5 - _TIE
    n = n.astype(np.uint64)
    lead = n // 10**8
    np.subtract(n, lead * 10**8, out=low8)
    lead = np.take(heads, lead, mode="clip")
    np.bitwise_or(lead, np.signbit(v) * np.uint64(0x2D << 32), out=out[..., 0])
    e += columns
    np.take(tails, e, mode="clip", out=out[..., 2])
    return np.flatnonzero(~exact)


def _index_groups(index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Split each index into out's columns, eight digits each, leading group first.

    Returns the masks to OR into the groups' _digits8 words: ASCII for
    every digit from the index's first on, so the leading zeros stay
    padding and the index prints right-aligned.
    """
    words = out.shape[1]
    for j in range(words):
        scale = 10 ** (8 * (words - 1 - j))
        part = index // np.uint64(scale) if scale > 1 else index
        out[:, j] = part % np.uint64(10**8) if j else part
    pad = (8 * words - 1) - np.searchsorted(_POW10, index, side="right")  # leading padding bytes
    return np.take(_INDEX_ASCII, np.clip(pad[:, None] - np.arange(0, 8 * words, 8), 0, 8))


def _write_certify(path: str, m: int, grid_points: int, columns) -> None:
    """Write certify.csv, byte for byte the rows "%d,m,G,%.9e,%.9e,%.9e,%.9e\\n" % (p, *values).

    A chunk of phaseopt's _panels_per_chunk(m) panels at a time is
    formatted into one reused uint64 buffer, a row per panel: the panel
    index right-aligned in whole words, the constant ",m,G," and three
    words per value (_sci_words), then written with the padding deleted.
    Memory is bounded by the chunk and no Python float is made per value,
    except for the few values _sci_words leaves to '%.9e'.
    """
    P = len(columns[0])
    step = min(_panels_per_chunk(m), P)
    index_words = -(-len(str(max(P - 1, 0))) // 8)
    fixed = f",{m},{grid_points},".encode()
    first = index_words + -(-len(fixed) // 8)  # the first value's word
    buf = np.zeros((step, first + 12), dtype="<u8")
    buf.view(np.uint8)[:, 8 * index_words:8 * index_words + len(fixed)] = np.frombuffer(fixed, np.uint8)
    slots = buf[:, first:].reshape(step, 4, 3)
    # the eight-digit groups of the values, then of the index, for one _digits8
    digits = np.empty((step, 4 + index_words), dtype=np.uint64)
    tables = _format_tables()
    with open(path, "wb") as fh:
        fh.write(b"panel,m,grid_points,grid_max,closed_form,gap,bound\n")
        for lo in range(0, P, step):
            R = min(step, P - lo)
            v = np.stack([c[lo:lo + R] for c in columns], axis=1)
            d = digits[:R]
            left = _sci_words(v, tables, slots[:R], d[:, :4])
            masks = _index_groups(np.arange(lo, lo + R, dtype=np.uint64), d[:, 4:])
            d = _digits8(d)
            np.bitwise_or(d[:, :4], _ASCII, out=slots[:R, :, 1])
            np.bitwise_or(d[:, 4:], masks, out=buf[:R, :index_words])
            if left.size:
                # the text ends before the separator, byte 21 of the value's 24
                slot = slots[:R].view(np.uint8)
                for j, x in zip(left.tolist(), v.flat[left].tolist()):
                    if x == 0:  # +-0 directly
                        text = b"-0.000000000e+00" if np.signbit(x) else b"0.000000000e+00"
                    else:
                        text = b"%.9e" % x
                    slot[j // 4, j % 4, :21] = np.frombuffer(text.rjust(21, b"\0"), np.uint8)
            fh.write(buf[:R].tobytes().translate(None, b"\0"))


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
    failures = int(np.count_nonzero(~within_bound(cert.gap, cert.closed_form, cert.bound)))
    # the largest positive gap, 0 if none; NaN gaps count as failures above
    worst = float(np.max(cert.gap, where=cert.gap > 0, initial=0.0))
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "certify.csv")
    # the bytes of '%.9e' per value: an exact vectorized path, and '%.9e'
    # itself for each value that path leaves (_write_certify)
    _write_certify(path, cfg.m, cfg.axis_points,
                   (cert.grid_max, cert.closed_form, cert.gap, cert.bound))
    if failures:
        raise NumericalError(
            f"{failures} of {P} panels exceeded the quantization bound; see {path}"
        )
    print(f"certified {P} panels at {cfg.axis_points} points per phase; worst gap {worst:.3e}")
    print(f"wrote {path}")


def _run(cfg: RunConfig) -> None:
    if cfg.subcommand == "certify":
        _run_certify(cfg)
        return
    template = _scenario(cfg)
    if cfg.subcommand == "single":
        result = _run_single(cfg, template)
    elif cfg.subcommand == "sweep-noise":
        result = sweep_noise(template, _axis_values(cfg))
    else:
        result = sweep_gamma(template, _axis_values(cfg))
    # --out is made only once there is a result to write
    os.makedirs(cfg.out, exist_ok=True)
    stem = os.path.join(cfg.out, cfg.subcommand.replace("-", "_"))
    emit_csv(result, stem + ".csv")
    print(f"wrote {stem}.csv")
    if cfg.plot:  # single rejects --plot
        emit_plot(result, stem + ".svg",
                  field="mean_crb_trace" if cfg.subcommand == "crb" else "mean_nmse")
        print(f"wrote {stem}.svg")


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

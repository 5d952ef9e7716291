"""irsradar benchmark: closed-loop CLI workloads with a correctness gate.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Each workload repeats its irsradar CLI command(s) for --seconds, one
child process at a time (closed loop, one client, workers=1): the next
command starts only after the previous one exits.  The child
(perfbench/child.py) runs the package from ./src, so the checkout's own
code is measured, in the caller's unmodified environment (BLAS threads
are not pinned).  Every output is checked (see check_sweep and
check_certify) and hashed; a hash that differs from an earlier run of
the same source, command lines and seed is flagged.

--trace 0 reports the end-to-end metrics, each a median over the run's
untraced iterations (an iteration is the workload's command(s)):
  wall_s       spawn to exit of the child(ren), s
  setup_s      `import irsradar.cli` plus `parse_config(argv)` in the child, s
  items_per_s  items / time in `cli.main(argv)`; an item is one (point,
               trial, mode) estimate of a sweep or one certified panel
  peak_rss_mb  the child's peak RSS (resource.getrusage), MiB
Times are calibrated to nominal machine speed where WORKLOADS says so.
failed_frac is printed beside them and carried by the result line's
`attempted` and `failed`: excluded trials (from the CSV `trials` column)
or panels over the bound, and every item of a command that exits non-zero
or fails the gate.

--trace 1 alternates untraced and traced iterations; the traced children
wrap every public function of each layer module and the spans give the
per-layer metrics in LAYER_METRICS, plus the tracing overhead.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A fuller record (environment, argv, hashes, raw
times, diagnostics) is written to .perfbench_out/results/.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
# a run ends within this many seconds even if a child hangs
RUN_BUDGET_S = 170.0

SWEEP_HEADER = ["axis", "mode", "mean_nmse", "stderr_nmse", "mean_crb_trace", "trials"]
SWEEP_MODES = ("los", "nlos_optimal", "nlos_random")
CERTIFY_HEADER = ["panel", "m", "grid_points", "grid_max", "closed_form", "gap", "bound"]
CERTIFY_GRID = 720  # the CLI's default grid density per phase
GAP_TOL = 1e-12


def _sweep(sub, stem, points, trials, extra=(), plot=True):
    argv = [sub, *extra, "--axis-points", str(points), "--trials", str(trials)]
    return {"kind": "sweep", "argv": argv + (["--plot"] if plot else []), "stem": stem,
            "points": points, "trials": trials, "plot": plot}


def _certify(m, panels):
    return {"kind": "certify", "argv": ["certify", "--m", str(m), "--trials", str(panels)],
            "m": m, "panels": panels, "grid": CERTIFY_GRID}


_LARGE = ("--gamma", "1e-2", "--n", "256", "--k", "32", "--m", "64")
_SMALL_LARGE = ("--gamma", "1e-2", "--n", "64", "--k", "8", "--m", "16")

# "full" is what the benchmark runs, "tiny" the smoke test's size.
#
# Calibration.  On a shared host the speed of a core changes by tens of
# percent from second to second and minute to minute, so raw times of one
# run say more about the host than about the code.  While a child runs its
# command it times a short fixed interpreter loop ten times a second
# (child.SpeedSampler), and its interpreter-bound times are reported at
# nominal speed: multiplied by REFERENCE_NOMINAL_S / (median loop time).
# setup_s (imports) is always calibrated; wall_s and items_per_s only where
# "calibrate" is set.  It is off for sweep_noise_large, whose time goes to
# BLAS threads whose speed does not follow the loop.  The raw values are
# kept beside them in the results file.
WORKLOADS = {
    "sweep_gamma_default": {
        "why": "The paper's headline figure at the shipped shape; 5x5 matrices, so per-call "
               "Python overhead, object churn and the per-trial-mode factorizations dominate.",
        "calibrate": True,
        "full": [_sweep("sweep-gamma", "sweep_gamma", 21, 60)],
        "tiny": [_sweep("sweep-gamma", "sweep_gamma", 3, 30)],
    },
    "sweep_noise_large": {
        "why": "The same engine at N=256, K=32, M=64, where BLAS/LAPACK work on 32x32 Grams "
               "and 64x64 FIMs dominates and a trial's arrays reach ~130 kB.",
        "calibrate": False,
        "full": [_sweep("sweep-noise", "sweep_noise", 3, 12, _LARGE, plot=False)],
        "tiny": [_sweep("sweep-noise", "sweep_noise", 2, 10, _SMALL_LARGE, plot=False)],
    },
    "certify_grid": {
        "why": "Exhaustive phase-grid certification (direct 720^2 enumeration at M=2, exact "
               "piecewise reduction at M=3); touches only phaseopt, so sweep changes leave it flat.",
        "calibrate": True,
        "full": [_certify(2, 150), _certify(3, 3000)],
        "tiny": [_certify(2, 3), _certify(3, 10)],
    },
}

# child.reference_s's typical time on the 2-vCPU Intel Xeon host the
# benchmark was written on (1.4 to 1.9 ms there)
REFERENCE_NOMINAL_S = 0.0016

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

# per-layer metrics from the traced run:
# (name, unit, better, end-to-end metric it should move, on which workloads)
# a ".us" entry expands to its median, tail percentile value, that
# percentile's level and the sample count (see _timing_metrics)
_SWEEPS = "sweep_gamma_default, sweep_noise_large"
LAYER_METRICS = (
    ("harness.self_s", "s", "lower", "items_per_s", "sweep_gamma_default; a little sweep_noise_large"),
    ("harness.self_share", "ratio", "lower", "items_per_s", "sweep_gamma_default; a little sweep_noise_large"),
    ("model.make_random_waveform.us", "us", "lower", "items_per_s", "sweep_gamma_default"),
    ("model.build_sensing_matrix.us", "us", "lower", "items_per_s", "sweep_gamma_default"),
    ("model.build_sensing_matrix.calls_per_trial_mode", "count", "lower", "items_per_s", "sweep_gamma_default"),
    ("channel.draw_csi.calls_per_trial", "count", "lower", "failed_frac, items_per_s", _SWEEPS),
    ("channel.draw_csi.us", "us", "lower", "items_per_s", _SWEEPS + "; mostly the first"),
    ("channel.nlos_coefficient.calls_per_trial", "count", "lower", "items_per_s", _SWEEPS + "; mostly the first"),
    ("channel.nlos_coefficient.us", "us", "lower", "items_per_s", _SWEEPS + "; mostly the first"),
    ("channel.normalize_scenario.us", "us", "lower", "items_per_s", _SWEEPS + "; mostly the first"),
    ("phaseopt.apply_policy.calls_per_trial", "count", "lower", "items_per_s", _SWEEPS),
    ("phaseopt.apply_policy.us", "us", "lower", "items_per_s", _SWEEPS),
    ("phaseopt.certify_optimum.direct.us", "us", "lower", "items_per_s", "certify_grid only"),
    ("phaseopt.certify_optimum.pieces.us", "us", "lower", "items_per_s", "certify_grid only"),
    ("phaseopt.direct.grid_nodes_per_s", "1/s", "higher", "items_per_s", "certify_grid only"),
    ("phaseopt.direct.bytes_computed_per_panel", "B", "lower", "items_per_s", "certify_grid only"),
    ("estimator.blue_estimate.us", "us", "lower", "items_per_s", "sweep_noise_large most, then sweep_gamma_default"),
    ("estimator.estimator_mse.us", "us", "lower", "items_per_s", "sweep_noise_large most, then sweep_gamma_default"),
    ("estimator.gram_factorizations_per_trial_mode", "count", "lower", "items_per_s, failed_frac",
     "sweep_noise_large most, then sweep_gamma_default"),
    ("estimator.singular_frac", "ratio", "lower", "failed_frac", _SWEEPS),
    ("bounds.crb.us", "us", "lower", "items_per_s", "sweep_noise_large"),
    ("bounds.fisher_information.us", "us", "lower", "items_per_s", "sweep_noise_large"),
    ("cli.parse_config.us", "us", "lower", "setup_s, wall_s", "every workload"),
    ("cli.emit_csv.us", "us", "lower", "wall_s", _SWEEPS),
    ("cli.emit_plot.us", "us", "lower", "wall_s", "sweep_gamma_default"),
    ("trace.overhead_s", "s", "lower", "none; traced minus untraced wall_s", "every workload"),
    ("trace.overhead_share", "ratio", "lower", "none; overhead over untraced wall_s", "every workload"),
)

_TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
_GRAM_USERS = ("estimator.blue_estimate", "estimator.estimator_mse", "bounds.fisher_information")
_SWEEP_SPANS = ("harness.sweep_gamma", "harness.sweep_noise")


def per_layer_specs():
    """Every per-layer metric name with its unit and direction, expanded."""
    out = []
    for name, unit, better, _, _ in LAYER_METRICS:
        if name.endswith(".us"):
            out += [(name, "us", "lower"), (name + ".tail", "us", "lower"),
                    (name + ".tail_pct", "percent", "higher"), (name + ".n", "count", "higher")]
        else:
            out.append((name, unit, better))
    return out


# ---------------------------------------------------------------- gate

def items_attempted(cmd):
    """Items one command attempts: (point, trial, mode) estimates or panels."""
    if cmd["kind"] == "sweep":
        return cmd["points"] * cmd["trials"] * len(SWEEP_MODES)
    return cmd["panels"]


def _finite(text):
    return math.isfinite(float(text))


def check_sweep(out_dir: Path, cmd: dict):
    """Check one sweep's outputs; return (problems, items attempted, items accepted)."""
    tried = items_attempted(cmd)
    problems = []
    path = out_dir / (cmd["stem"] + ".csv")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"{path.name}: {exc}"], tried, 0
    if not rows or rows[0] != SWEEP_HEADER:
        return [f"{path.name}: bad header"], tried, 0
    rows = rows[1:]
    if len(rows) != cmd["points"] * len(SWEEP_MODES):
        problems.append(f"{path.name}: {len(rows)} rows, expected {cmd['points'] * len(SWEEP_MODES)}")
    points = {}
    accepted = 0
    for i, row in enumerate(rows, start=2):
        try:
            if len(row) != len(SWEEP_HEADER) or not all(_finite(v) for v in (row[0], *row[2:5])):
                raise ValueError
            trials = int(row[5])
        except ValueError:
            problems.append(f"{path.name}:{i}: malformed or non-finite row")
            continue
        if not 0 <= trials <= cmd["trials"]:
            problems.append(f"{path.name}:{i}: trials {trials} outside 0..{cmd['trials']}")
        accepted += trials
        points.setdefault(row[0], {})[row[1]] = (float(row[2]), trials)
    if len(points) != cmd["points"]:
        problems.append(f"{path.name}: {len(points)} axis points, expected {cmd['points']}")
    for axis, modes in points.items():
        if sorted(modes) != list(SWEEP_MODES):
            problems.append(f"{path.name}: axis {axis} has modes {sorted(modes)}")
            continue
        if len({t for _, t in modes.values()}) != 1:
            problems.append(f"{path.name}: axis {axis} trial counts differ between modes")
        if modes["nlos_optimal"][0] > modes["nlos_random"][0]:
            problems.append(f"{path.name}: axis {axis} nlos_optimal NMSE above nlos_random")
    if cmd["plot"]:
        svg = out_dir / (cmd["stem"] + ".svg")
        try:
            text = svg.read_text()
        except OSError as exc:
            problems.append(f"{svg.name}: {exc}")
        else:
            if not (text.startswith("<svg") and text.endswith("</svg>\n")):
                problems.append(f"{svg.name}: not a complete SVG document")
    return problems, tried, (0 if problems else accepted)


def check_certify(out_dir: Path, cmd: dict):
    """Check certify.csv; return (problems, panels attempted, panels within bound)."""
    tried = items_attempted(cmd)
    path = out_dir / "certify.csv"
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"{path.name}: {exc}"], tried, 0
    if not rows or rows[0] != CERTIFY_HEADER:
        return [f"{path.name}: bad header"], tried, 0
    rows = rows[1:]
    problems, over_bound = [], []
    if len(rows) != cmd["panels"]:
        problems.append(f"{path.name}: {len(rows)} rows, expected {cmd['panels']}")
    for i, row in enumerate(rows, start=2):
        try:
            if len(row) != len(CERTIFY_HEADER) or not all(_finite(v) for v in row[3:]):
                raise ValueError
            m, grid = int(row[1]), int(row[2])
            gap, bound = float(row[5]), float(row[6])
        except ValueError:
            problems.append(f"{path.name}:{i}: malformed or non-finite row")
            continue
        if (m, grid) != (cmd["m"], cmd["grid"]):
            problems.append(f"{path.name}:{i}: m={m}, grid={grid}")
        if not -GAP_TOL <= gap <= bound + GAP_TOL:
            over_bound.append(f"{path.name}:{i}: gap {gap:.3e} outside [-1e-12, bound + 1e-12]")
    # a panel over the bound fails alone; any other problem fails the command
    accepted = 0 if problems else tried - len(over_bound)
    return problems + over_bound, tried, accepted


def check_outputs(out_dir: Path, cmd: dict):
    return (check_sweep if cmd["kind"] == "sweep" else check_certify)(out_dir, cmd)


def output_hashes(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.suffix in (".csv", ".svg")}


# ---------------------------------------------------------------- environment

def source_fingerprint() -> str:
    """sha256 over the package sources; identifies 'the same code' without git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "irsradar").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env(extra=None) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


# ---------------------------------------------------------------- children

class ChildFailed(RuntimeError):
    pass


def run_child(args, report: Path, env, timeout=RUN_BUDGET_S) -> tuple:
    """Spawn one child, wait for it; return (wall seconds, report dict)."""
    if report.exists():
        report.unlink()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), "--report", str(report), *args],
                            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not report.exists():
        raise ChildFailed(f"child exited {proc.returncode}: {err.decode(errors='replace')[-500:]}")
    with open(report) as fh:
        return wall, json.load(fh)


def run_command(cmd, seed, work: Path, trace: bool, env, deadline=None):
    """Run one CLI command in a fresh output directory and gate its outputs."""
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = [*cmd["argv"], "--seed", str(seed), "--out", str(out_dir)]
    rec = {"argv": argv, "traced": trace}
    timeout = RUN_BUDGET_S if deadline is None else max(1.0, deadline - time.perf_counter())
    try:
        wall, rep = run_child((["--trace"] if trace else []) + ["--", *argv], work / "report.json",
                              env, timeout)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        rec.update(problems=[str(exc)], attempted=items_attempted(cmd), accepted=0, hashes={})
        return rec, None
    samples = rep["speed_samples"]
    # the sampler's time is not part of the command's
    rec.update(wall_s=wall - rep["sampler_s"], setup_s=rep["setup_s"], main_s=rep["main_s"],
               speed=REFERENCE_NOMINAL_S / statistics.median(samples) if samples else 1.0,
               speed_samples=samples, peak_rss_mb=rep["peak_rss_mb"], rc=rep["rc"])
    problems, attempted, accepted = check_outputs(out_dir, cmd)
    if rep["rc"] != 0:
        problems = [f"irsradar exited {rep['rc']}"] + problems
        accepted = 0
    rec.update(problems=problems, attempted=attempted, accepted=accepted, hashes=output_hashes(out_dir))
    return rec, rep.get("spans")


# ---------------------------------------------------------------- metrics

def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _timing_metrics(name, samples_us):
    """Median, highest ladder percentile with >= 10 samples beyond it, count.

    Below 20 samples no percentile qualifies: tail_pct reads 0 and the
    tail value repeats the median.
    """
    n = len(samples_us)
    s = sorted(samples_us)
    med = _median(s)
    pct, tail = 0.0, med
    for p in _TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            pct, tail = p, s[max(0, math.ceil(p / 100.0 * n) - 1)]
    return {name: med, name + ".tail": tail, name + ".tail_pct": pct, name + ".n": float(n)}


def layer_metrics(traced, untraced_walls, traced_walls):
    """Per-layer metrics from the traced commands: [(cmd, record, spans), ...]."""
    durs, counts, excs = {}, Counter(), Counter()
    trials = 0
    self_s, share = [], []
    direct_nodes, direct_ns, direct_bytes = 0, 0, 0.0
    for cmd, rec, spans in traced:
        if cmd["kind"] == "sweep":
            trials += rec["accepted"] // len(SWEEP_MODES)
        child_ns = [0] * len(spans)
        for name, t0, t1, parent, exc in spans:
            durs.setdefault(name, []).append((t1 - t0) / 1e3)
            counts[name] += 1
            excs[name, exc] += 1
            if parent >= 0:
                child_ns[parent] += t1 - t0
        sweep_ns = [(t1 - t0, t1 - t0 - child_ns[i])
                    for i, (name, t0, t1, _, _) in enumerate(spans) if name in _SWEEP_SPANS]
        if sweep_ns:
            total, own = sum(t for t, _ in sweep_ns), sum(s for _, s in sweep_ns)
            self_s.append(own / 1e9)
            share.append(own / total)
        direct = [t1 - t0 for name, t0, t1, _, _ in spans if name == "phaseopt.certify_optimum.direct"]
        if direct:
            G, M = cmd["grid"], cmd["m"]
            direct_nodes += len(direct) * G ** M
            direct_ns += sum(direct)
            # the G^m complex partial sums and the G^M moduli the enumeration writes
            direct_bytes = float(sum(16 * G ** m for m in range(2, M + 1)) + 8 * G ** M)

    def per(name, base):
        return counts[name] / base if base else 0.0

    gram_calls = sum(counts[n] for n in _GRAM_USERS)
    singular = sum(excs[n, "SingularModelError"] for n in _GRAM_USERS)
    out = {
        "harness.self_s": _median(self_s),
        "harness.self_share": _median(share),
        "model.build_sensing_matrix.calls_per_trial_mode": per("model.build_sensing_matrix", 3 * trials),
        "channel.draw_csi.calls_per_trial": per("channel.draw_csi", trials),
        "channel.nlos_coefficient.calls_per_trial": per("channel.nlos_coefficient", trials),
        "phaseopt.apply_policy.calls_per_trial": per("phaseopt.apply_policy", trials),
        "phaseopt.direct.grid_nodes_per_s": direct_nodes / (direct_ns / 1e9) if direct_ns else 0.0,
        "phaseopt.direct.bytes_computed_per_panel": direct_bytes,
        "estimator.gram_factorizations_per_trial_mode": gram_calls / (3 * trials) if trials else 0.0,
        "estimator.singular_frac": singular / gram_calls if gram_calls else 0.0,
    }
    for name, *_ in LAYER_METRICS:
        if name.endswith(".us"):
            out.update(_timing_metrics(name, durs.get(name[:-3], [])))
    base, traced_med = _median(untraced_walls), _median(traced_walls)
    out["trace.overhead_s"] = traced_med - base
    out["trace.overhead_share"] = (traced_med - base) / base if base else 0.0
    return out


# ---------------------------------------------------------------- ledger

def check_ledger(path: Path, key: str, hashes_by_cmd: list) -> list:
    """Compare output hashes with earlier runs of the same source, command lines and seed."""
    try:
        ledger = json.loads(path.read_text())
    except (OSError, ValueError):
        ledger = {}
    problems = []
    previous = ledger.get(key)
    if previous is not None and previous != hashes_by_cmd:
        problems.append(f"output hashes differ from an earlier run of the same code and seed ({key})")
    else:
        ledger[key] = hashes_by_cmd
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return problems


# ---------------------------------------------------------------- one workload

def run_workload(name, seed, seconds, trace, size, env_info):
    spec = WORKLOADS[name]
    cmds = spec[size]
    work = OUT / f"work-{name}-{os.getpid()}"
    env = child_env()
    iterations, problems = [], []
    traced, untraced_walls, traced_walls = [], [], []
    first_hashes = None
    t_start = time.perf_counter()
    deadline = t_start + RUN_BUDGET_S - 10.0
    try:
        # a traced run needs one untraced and one traced iteration at least
        while len(iterations) < 1 + trace or time.perf_counter() - t_start < seconds:
            traced_iter = trace and len(iterations) % 2 == 1
            recs = []
            for cmd in cmds:
                rec, spans = run_command(cmd, seed, work, traced_iter, env, deadline)
                recs.append(rec)
                problems += rec["problems"]
                if spans is not None:
                    traced.append((cmd, rec, spans))
            hashes = [r["hashes"] for r in recs]
            if first_hashes is None:
                first_hashes = hashes
            elif hashes != first_hashes:
                problems.append(f"iteration {len(iterations)}: outputs differ from iteration 0")
            iterations.append(recs)
            if all("wall_s" in r for r in recs):
                (traced_walls if traced_iter else untraced_walls).append(sum(r["wall_s"] for r in recs))
        measured_s = time.perf_counter() - t_start
        diagnostics = {}
        if name == "sweep_noise_large" and not trace:
            diagnostics["single_thread"] = single_thread_baseline(cmds, seed, work, first_hashes,
                                                                  deadline)
            problems += diagnostics["single_thread"].pop("problems")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    source = source_fingerprint()
    argv = hashlib.sha256(json.dumps([c["argv"] for c in cmds]).encode()).hexdigest()
    key = f"{source}:{argv}:{seed}"
    problems += check_ledger(OUT / "hashes.json", key, first_hashes)

    attempted = sum(r["attempted"] for recs in iterations for r in recs)
    accepted = sum(r["accepted"] for recs in iterations for r in recs)
    plain = [recs for recs in iterations
             if not recs[0]["traced"] and all("wall_s" in r for r in recs)]
    e2e = end_to_end(plain, spec["calibrate"])
    e2e["peak_rss_mb"] = _median([max(r["peak_rss_mb"] for r in recs) for recs in plain])
    result = {
        "workload": name, "why": spec["why"], "calibrated": spec["calibrate"],
        "seed": seed, "size": size, "trace": trace,
        "seconds": seconds, "measured_s": measured_s, "iterations": len(iterations),
        "correct": not problems, "problems": problems[:50],
        "attempted": attempted, "failed": attempted - accepted,
        "failed_frac": (attempted - accepted) / attempted if attempted else 1.0,
        "argv": [["irsradar", *c["argv"], "--seed", str(seed), "--out", "<dir>"] for c in cmds],
        "end_to_end": e2e, "uncalibrated": end_to_end(plain, False, setup=False),
        "diagnostics": diagnostics,
        "source_sha256": source, "git_commit": git_commit(),
        "environment": env_info, "hashes": first_hashes,
        "samples": [[{k: r.get(k) for k in ("wall_s", "setup_s", "main_s", "speed", "speed_samples",
                                            "peak_rss_mb", "accepted", "traced")} for r in recs]
                    for recs in iterations],
    }
    if trace:
        result["per_layer"] = layer_metrics(traced, untraced_walls, traced_walls)
    return result


def end_to_end(iterations, calibrate, setup=True):
    """Medians over iterations of the children's times.

    Each child's times are multiplied by its relative speed (nominal over
    median loop time, see WORKLOADS) when `calibrate`; setup_s also when
    `setup`.
    """
    def total(recs, key, on):
        return sum(r[key] * (r["speed"] if on else 1.0) for r in recs)
    return {
        "wall_s": _median([total(recs, "wall_s", calibrate) for recs in iterations]),
        "setup_s": _median([total(recs, "setup_s", setup) for recs in iterations]),
        "items_per_s": _median([sum(r["accepted"] for r in recs) / total(recs, "main_s", calibrate)
                                for recs in iterations]),
    }


def single_thread_baseline(cmds, seed, work, default_hashes, deadline):
    """Diagnostic only: the same command once with every BLAS pool at one thread."""
    env = child_env({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    recs = [run_command(cmd, seed, work, False, env, deadline)[0] for cmd in cmds]
    out = {"problems": [p for r in recs for p in r["problems"]]}
    if not out["problems"]:
        main_s = sum(r["main_s"] for r in recs)
        out.update(wall_s=sum(r["wall_s"] for r in recs),
                   items_per_s=sum(r["accepted"] for r in recs) / main_s,
                   same_bytes_as_default=[r["hashes"] for r in recs] == default_hashes)
    return out


# ---------------------------------------------------------------- reporting

def environment() -> dict:
    report = OUT / f"probe-{os.getpid()}.json"
    try:
        _, probe = run_child(["--probe"], report, child_env())
    finally:
        if report.exists():
            report.unlink()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {**probe, "nproc": nproc, "cpu": cpu_model(), "platform": platform.platform(),
            "blas_env": {k: os.environ[k] for k in sorted(os.environ)
                         if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def print_report(res):
    print(f"workload {res['workload']} (seed {res['seed']}, size {res['size']}, "
          f"trace {res['trace']}): {res['iterations']} iterations in {res['measured_s']:.1f} s, "
          f"{'correct' if res['correct'] else 'INCORRECT'}")
    for argv in res["argv"]:
        print("  argv: " + " ".join(argv))
    for p in res["problems"][:10]:
        print(f"  problem: {p}")
    n = sum(1 for it in res["samples"] if not it[0]["traced"])
    for name, unit, _ in END_TO_END:
        raw = res["uncalibrated"].get(name)
        value = res["end_to_end"][name]
        note = f" (uncalibrated {raw:.6g})" if raw is not None and raw != value else ""
        print(f"  {name:<12} {value:>14.6g} {unit:<6} median of {n}{note}")
    print(f"  {'failed_frac':<12} {res['failed_frac']:>14.6g} {'ratio':<6} "
          f"{res['failed']} of {res['attempted']} items")
    st = res["diagnostics"].get("single_thread")
    if st and "wall_s" in st:
        print(f"  diagnostic, BLAS at one thread: wall_s {st['wall_s']:.4g} s, items_per_s "
              f"{st['items_per_s']:.4g} 1/s, same bytes as default: {st['same_bytes_as_default']}")
    if "per_layer" in res:
        moves = {name: (e2e, wl) for name, _, _, e2e, wl in LAYER_METRICS}
        for name, unit, _ in per_layer_specs():
            where = moves.get(name)
            note = f"  -> {where[0]} on {where[1]}" if where else ""
            print(f"  {name:<50} {res['per_layer'][name]:>14.6g} {unit:<7}{note}")


def _terminate(signum, frame):
    # unwinds through run_child's finally, which kills and reaps the child
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is the smoke test's size")
    ns = ap.parse_args(argv)
    if ns.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "irsradar" / "cli.py").is_file():
        print(f"error: no irsradar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = ns.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    env_info = environment()
    print(f"environment: python {env_info['python']}, numpy {env_info['numpy']}, "
          f"scipy {env_info['scipy']}, nproc {env_info['nproc']}, cpu {env_info['cpu']}")
    for b in env_info["blas"]:
        print(f"  blas: {b.get('package')} {b.get('library')} threads={b.get('threads')} "
              f"{b.get('config', '')}")
    print(f"irsradar source sha256 {source_fingerprint()[:16]}, commit {git_commit()}")

    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    results = []
    for name in names:
        res = run_workload(name, ns.seed, seconds, bool(ns.trace), ns.size, env_info)
        print_report(res)
        path = OUT / "results" / f"{name}-{ns.size}-seed{ns.seed}-trace{ns.trace}.json"
        path.write_text(json.dumps(res, indent=1))
        results.append(res)

    def metric_block(res):
        specs = per_layer_specs() if ns.trace else END_TO_END
        values = res["per_layer"] if ns.trace else res["end_to_end"]
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}

    if len(results) == 1:
        metrics = metric_block(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metric_block(r).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself.  Run from the repository root:

    python3 perfbench/smoke.py

Checks, at the tiny workload size (about half a minute in all):
1. BENCHMARK.json lists exactly the workloads and metrics run.py reports.
2. Every workload on two seeds: correct, nothing failed, every end-to-end
   metric reported and positive.
3. Each workload traced twice on one seed: every per-layer metric is
   reported, call counts per trial repeat exactly, and the sweeps do 3
   Gram factorizations per trial-mode.
4. The gate rejects deliberately corrupted outputs.
5. The hash ledger flags an output that changed for the same code and seed.
6. In a directory holding only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.
Exits 0 when every check passes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEEDS = (0, 1)
COUNT_SUFFIXES = ("calls_per_trial", "calls_per_trial_mode", "gram_factorizations_per_trial_mode")


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def result_of(*args):
    rc, lines, err = bench(*args)
    assert rc == 0, f"run.py {' '.join(args)} exited {rc}: {err[-500:]}"
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"], "\n".join(lines)
    assert res["attempted"] >= 1 and res["failed"] == 0, res
    return res


def check_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w["why"] for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_specs()
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    return spec


def check_runs(spec):
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for name in run.WORKLOADS:
        for seed in SEEDS:
            res = result_of("--workload", name, "--seed", str(seed), "--seconds", "1",
                            "--trace", "0", "--size", "tiny")
            assert list(res["metrics"]) == e2e, res["metrics"].keys()
            assert all(m["value"] > 0 for m in res["metrics"].values()), res["metrics"]
        traced = [result_of("--workload", name, "--seed", "0", "--seconds", "1",
                            "--trace", "1", "--size", "tiny")["metrics"] for _ in range(2)]
        assert list(traced[0]) == layers, traced[0].keys()
        counts = {k: [t[k]["value"] for t in traced] for k in layers if k.endswith(COUNT_SUFFIXES)}
        assert all(a == b for a, b in counts.values()), counts
        if name.startswith("sweep"):
            assert counts["estimator.gram_factorizations_per_trial_mode"] == [3.0, 3.0], counts
        print(f"ok   {name}: seeds {SEEDS} correct; traced counts repeat")


def _set(line, field, value):
    parts = line.rstrip("\n").split(",")
    parts[field] = value
    return ",".join(parts) + "\n"


def _corruptions(lines, kind, trials):
    """Deliberately broken copies of a good CSV, each of which the gate must reject."""
    head, rows = lines[0], lines[1:]
    out = {
        "a dropped row": [head] + rows[:-1],
        "a bad header": [head.replace("axis", "x", 1).replace("panel", "x", 1)] + rows,
        "a non-finite value": [head, _set(rows[0], 3, "nan")] + rows[1:],
    }
    if kind == "sweep":
        opt = next(i for i, r in enumerate(rows) if r.split(",")[1] == "nlos_optimal")
        axis = rows[opt].split(",")[0]
        rnd = next(r for r in rows if r.split(",")[:2] == [axis, "nlos_random"])
        worse = rows.copy()
        worse[opt] = _set(rows[opt], 2, f"{2 * float(rnd.split(',')[2]):.9e}")
        out["nlos_optimal above nlos_random"] = [head] + worse
        out["trials above requested"] = [head] + [_set(r, 5, str(trials + 1)) for r in rows]
    else:
        bound = float(rows[0].split(",")[6])
        out["a gap over the bound"] = [head, _set(rows[0], 5, f"{2 * bound + 1e-9:.9e}")] + rows[1:]
    return out


def check_gate(work: Path):
    env = run.child_env()
    for workload in ("sweep_gamma_default", "certify_grid"):
        cmd = run.WORKLOADS[workload]["tiny"][0]
        rec, _ = run.run_command(cmd, 0, work, False, env)
        assert not rec["problems"], rec["problems"]
        good, bad = work / "out", work / "bad"
        name = "sweep_gamma.csv" if cmd["kind"] == "sweep" else "certify.csv"
        lines = (good / name).read_text().splitlines(keepends=True)
        broken = _corruptions(lines, cmd["kind"], cmd.get("trials"))
        if cmd["kind"] == "sweep":
            broken["a truncated SVG"] = lines
        for what, text in broken.items():
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(good, bad)
            (bad / name).write_text("".join(text))
            if what == "a truncated SVG":
                svg = bad / "sweep_gamma.svg"
                svg.write_text(svg.read_text()[:-10])
            problems, attempted, accepted = run.check_outputs(bad, cmd)
            assert problems and accepted < attempted, f"{name} with {what} passed the gate"
            print(f"ok   gate rejects {name} with {what}: {problems[0]}")


def check_ledger(work: Path):
    ledger = work / "hashes.json"
    assert not run.check_ledger(ledger, "smoke", [{"a.csv": "1"}])
    assert not run.check_ledger(ledger, "smoke", [{"a.csv": "1"}])
    assert run.check_ledger(ledger, "smoke", [{"a.csv": "2"}])
    print("ok   ledger flags a changed output for the same code and seed")


def check_bare(work: Path):
    bare = work / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for p in Path(__file__).resolve().parent.glob("*.py"):
        shutil.copy(p, bare / "perfbench")
    rc, lines, _ = bench("--workload", "sweep_gamma_default", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    assert rc != 0 and not any(ln.startswith("{") for ln in lines), (rc, lines)
    print(f"ok   without the sources run.py exits {rc} and prints no result")


def main():
    if not __debug__:
        sys.exit("the smoke test checks with assert; run it without -O")
    work = run.OUT / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = check_spec()
        print("ok   BENCHMARK.json matches run.py")
        check_gate(work)
        check_ledger(work)
        check_bare(work)
        check_runs(spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

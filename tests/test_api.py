"""The package's public names, pinned so that an added or removed export shows in review."""
import ast
import inspect
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import irsradar

PUBLIC = {
    # harness
    "Scenario", "SweepResult", "TrialRecord", "run_trial", "sweep_gamma", "sweep_noise",
    # channel
    "IrsPanel", "compose_paths", "read_csi_file",
    # model
    "SensingMatrix", "Waveform", "build_sensing_matrix", "make_random_waveform",
    # estimator
    "EstimationReport", "NoiseModel", "blue_estimate", "estimator_mse",
    # bounds
    "CrbReport", "crb", "fisher_information",
    # phaseopt
    "CertificationRecord", "certify_optimum", "optimal_phases",
    # errors
    "CapabilityError", "DegeneratePathError", "GenerationError", "NumericalError",
    "SingularModelError", "UnboundedCrbError", "UnderdeterminedModelError",
    "UndefinedMetricError", "UsageError",
}


def test_public_names_are_pinned():
    exported = {
        name for name, value in vars(irsradar).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC


def _unused_imports(path: Path) -> list:
    """'file:line name' of each name a module imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # `import a.b` binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    # the package's __init__ imports to export, so it is left out
    root = Path(__file__).resolve().parent.parent
    paths = [p for p in sorted((root / "src" / "irsradar").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "tests").glob("*.py"))
    assert len(paths) > 10
    assert [line for path in paths for line in _unused_imports(path)] == []


def test_cli_import_leaves_scipy_unloaded():
    # the engine runs on numpy alone: scipy would add its start-up time and
    # memory, and calls into it would run on a second BLAS thread pool
    src = Path(irsradar.__file__).resolve().parent.parent
    code = ("import sys, irsradar.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a sweep with workers > 1 needs the process pool, so a single-process
    # run should not pay for importing it
    src = Path(irsradar.__file__).resolve().parent.parent
    code = ("import sys, irsradar.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_every_traced_layer():
    # the benchmark's traced child wraps the functions of each layer module
    # it finds in sys.modules after `import irsradar.cli`; a layer that only
    # the package's __init__ imported, once dropped there, ended a traced run
    # with "child exited 1" while the untraced run stayed correct
    root = Path(__file__).resolve().parent.parent
    tree = ast.parse((root / "perfbench" / "child.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"])
    assert sorted(layers) == ["bounds", "channel", "cli", "estimator", "harness", "model",
                              "phaseopt"]
    code = ("import json, sys, irsradar.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('irsradar.'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert [layer for layer in layers if f"irsradar.{layer}" not in loaded] == []


def test_sweeps_leave_numpy_ma_unloaded():
    # numpy's set routines (np.unique, np.setdiff1d, ...) import numpy.ma on
    # their first call, about 10 ms and 0.5 MiB that every CLI sweep would pay
    src = Path(irsradar.__file__).resolve().parent.parent
    code = ("import sys, numpy as np; from irsradar import Scenario, sweep_gamma, sweep_noise; "
            "sweep_noise(Scenario(n=20, k=3, m=4, trials=4), [1e-2, 1e-1]); "
            "sweep_gamma(Scenario(n=20, k=3, m=4, trials=4, freeze_waveform=True, "
            "noise_cov=np.eye(20)), [1e-2, 1.0]); "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_certify_run_loads_no_module_past_its_setup(tmp_path):
    # a certify run writes its CSV from numpy arrays as bytes: no numpy.ma,
    # numpy.char, numpy.strings or decimal.  Only the first argparse parser
    # adds modules after the import: locale, through gettext
    src = Path(irsradar.__file__).resolve().parent.parent
    argv = ["certify", "--m", "3", "--trials", "900", "--out", str(tmp_path)]
    code = ("import json, sys, irsradar.cli as cli; imported = set(sys.modules); "
            f"cli.parse_config({argv!r}); parsed = set(sys.modules); "
            f"assert cli.main({argv!r}) == 0; "
            "print(json.dumps([sorted(parsed - imported), sorted(set(sys.modules) - parsed)]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    by_parse, by_run = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(by_parse) <= {"locale", "_locale"}
    assert by_run == []


@pytest.mark.parametrize("argv", [
    ["sweep-gamma", "--axis-points", "3", "--trials", "4", "--plot"],
    ["certify", "--m", "2", "--trials", "3"],
], ids=["sweep-gamma", "certify"])
def test_cli_main_imports_nothing_past_parse_config(argv, tmp_path):
    # the benchmark times `cli.main` apart from the import and parse_config,
    # so a lazy import inside a run (numpy.ma through np.unique, say) would
    # land in the timed run of every CLI command
    src = Path(irsradar.__file__).resolve().parent.parent
    argv = [*argv, "--out", str(tmp_path)]
    code = ("import json, sys, irsradar.cli as cli; "
            f"cli.parse_config({argv!r}); parsed = set(sys.modules); "
            f"assert cli.main({argv!r}) == 0; "
            "print(json.dumps(sorted(set(sys.modules) - parsed)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []


def test_readme_library_example_runs():
    # the README's library example, run as a user would, so the docs cannot
    # drift from the API
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "blue_estimate(" in code and "crb(" in code
    src = Path(irsradar.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr


def test_readme_quick_start_runs(tmp_path, capsys):
    # every irsradar line of the README's quick start, through cli.main with
    # its output under tmp_path, so the commands cannot drift from the CLI
    from irsradar.cli import main

    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    block = readme.split("\n## Quick start\n", 1)[1].split("```\n", 1)[1].split("\n```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("irsradar ")]
    assert [argv[0] for argv in commands] == ["sweep-gamma", "sweep-noise", "crb", "single",
                                              "single", "certify"]
    for i, argv in enumerate(commands):
        if "--out" in argv:
            argv = argv[:argv.index("--out")] + argv[argv.index("--out") + 2:]
        out = tmp_path / str(i)
        assert main([*argv, "--out", str(out)]) == 0, (argv, capsys.readouterr().err)
        assert list(out.glob("*.csv")), argv

"""One benchmark child: time set-up, run one irsradar CLI command, report.

Usage: python3 perfbench/child.py --report FILE [--trace] -- <cli argv...>
       python3 perfbench/child.py --report FILE --probe

The child times `import irsradar.cli` plus `parse_config(argv)`, then
`cli.main(argv)`, and writes a JSON report with those times, the exit
code, the peak RSS and the host-speed samples SpeedSampler took during
the command.  With --trace it instead wraps every public function of the
package's layer modules (see Tracer) and adds the recorded spans to the
report.  With --probe it only imports the package and reports library
versions and the BLAS it runs with.
"""
import argparse
import functools
import inspect
import json
import resource
import signal
import sys
import time

# the package's layer modules; errors holds only exception classes
LAYERS = ("cli", "harness", "model", "channel", "phaseopt", "estimator", "bounds")

SAMPLE_PERIOD_S = 0.1
SAMPLE_LOOPS = 20_000


def reference_s():
    """Time a fixed interpreter-bound loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(SAMPLE_LOOPS):
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the reference loop every SAMPLE_PERIOD_S while the command runs.

    On a shared host the speed of a core changes by tens of percent from
    one second to the next.  The SIGALRM handler runs in the main thread
    between bytecodes, on the same core and during the command, so its
    samples follow the speed the command saw; run.py uses them to report
    interpreter-bound times at nominal speed.  `spent` is the handler's
    own time, which the caller takes out of the times it measures.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_s())
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Tracer:
    """Records one span per call of a wrapped function, kept in memory.

    A span is [name, start_ns, end_ns, parent_index, exception_name].
    The parent is the innermost wrapped call still running when the span
    began, so self time is a span's duration minus its direct children.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, label=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                rec[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
            rec[2] = clock()
            if label is not None:
                rec[0] = f"{name}.{label(out)}"
            return out

        return traced

    def install(self):
        """Wrap each public layer function at every place the package looks it up.

        Modules import functions by name (harness holds its own reference
        to channel.nlos_coefficient, bounds.crb calls its module-global
        fisher_information, ...), so every module attribute that is one of
        the original functions is replaced, not only the defining one.
        """
        import irsradar

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"irsradar.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                label = _certify_method if attr == "certify_optimum" else None
                wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj, label))
        modules = [irsradar] + [sys.modules[f"irsradar.{layer}"] for layer in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])


def _certify_method(record):
    return record.method


def _blas_info():
    """Name, configuration and thread count of each OpenBLAS numpy/scipy loaded."""
    import ctypes
    import glob
    import os

    import numpy
    import scipy

    out = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            info = {"package": pkg.__name__, "library": os.path.basename(path)}
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                    config = getattr(lib, f"scipy_openblas_get_config{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                info["threads"] = int(threads())
                info["config"] = config().decode()
                break
            out.append(info)
    if not out:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out.append({"package": "numpy", "library": blas.get("name"), "threads": None})
    return out


def _probe():
    import platform

    import numpy
    import scipy

    import irsradar.cli  # noqa: F401  warms the byte-code cache too

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "irsradar": irsradar.__version__,
        "blas": _blas_info(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("argv", nargs="*")
    ns = ap.parse_args()

    if ns.probe:
        report = _probe()
    else:
        # spans of a traced child would absorb the sampler's time, so a
        # traced child runs without it
        sampler = SpeedSampler()
        if not ns.trace:
            sampler.start()
        t0 = time.perf_counter()
        import irsradar.cli as cli

        cli.parse_config(ns.argv)
        setup_s = time.perf_counter() - t0 - sampler.spent
        tracer = Tracer() if ns.trace else None
        if tracer is not None:
            tracer.install()
        spent = sampler.spent
        t0 = time.perf_counter()
        rc = cli.main(ns.argv)
        main_s = time.perf_counter() - t0 - (sampler.spent - spent)
        sampler.stop()
        report = {
            "speed_samples": sampler.samples,
            "sampler_s": sampler.spent,
            "setup_s": setup_s,
            "main_s": main_s,
            "rc": rc,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "spans": tracer.spans if tracer is not None else None,
        }
    with open(ns.report, "w") as fh:
        json.dump(report, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

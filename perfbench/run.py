"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload desk-compare --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke [--trace 1]

Run from the root of a checkout; the package is imported from its ``src``
directory. The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. The environment block and, for traced runs, the traced
end-to-end figures go to stderr. ``--smoke`` runs every workload at tiny
sizes, one timed round each, with every check on.
"""

from __future__ import annotations

import os
import sys

# Set before numpy loads. One BLAS thread: with the default of one thread
# per core, BLAS threads on a small shared machine contend with each other
# and with neighbours, and train throughput varied between processes. No
# transparent huge pages for numpy's large arrays: whether the kernel can
# supply them depends on the machine's memory, not on the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import json
import platform
import resource
import shutil
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("desk-compare", "mid-train", "adapter-serve")
END_TO_END_UNITS = {"train_examples_per_s": "1/s", "eval_examples_per_s": "1/s",
                    "request_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_package():
    if not (SRC / "spafit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spafit package at {SRC / 'spafit'}; "
                 "run from the root of a checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import spafit
    if Path(spafit.__file__).resolve().parent != (SRC / "spafit").resolve():
        sys.exit(f"perfbench: imported spafit from {spafit.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "settings": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                          "NUMPY_MADVISE_HUGEPAGE")},
            "cpu_count": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0))}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 workdir: Path) -> dict:
    import probe
    import tracing
    import workloads as W

    sizes = (W.SMOKE_SIZES if smoke else W.SIZES)[name]
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    with probe.SpeedProbe(sizes.config, sizes.probe_batch, sizes.probe_s) as speed:
        if name == "adapter-serve":
            workload = W.ServeWorkload(sizes, seed, tracer, speed, workdir)
        else:
            workload = W.TrainWorkload(sizes, W.DESK_PLANS if name == "desk-compare"
                                       else W.MID_PLANS, seed, tracer, speed,
                                       compare_check=name == "desk-compare")
        if trace:
            tracer.install()
        try:
            outcome = workload.run(seconds)
            # read before the final checks, which copy the model
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            with tracer.paused():
                workload.final_checks()
            if trace:
                with tracer.tracing_memory():
                    workload.memory_pass()
        except W.CheckFailed as exc:
            print(f"perfbench: {name}: check failed: {exc}", file=sys.stderr)
            return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
        finally:
            if trace:
                tracer.uninstall()

    e2e = dict(outcome.metrics, peak_rss_mb=peak_rss_mb)
    print(json.dumps({"workload": name, "traced": trace, "end_to_end": e2e,
                      "measured": outcome.measured, "slowdown": speed.slowdown(),
                      "setup_slowdown": speed.slowdown(kind="setup"),
                      "probes": {k: len(v) for k, v in speed.samples.items()}}), file=sys.stderr)
    if trace:
        values, units = tracer.metrics(), dict(tracing.per_layer_names())
    else:
        values, units = e2e, END_TO_END_UNITS
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    return {"correct": True, "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, one timed round each")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    _import_package()
    # One CPU for the benchmark and its probe helper, which inherits it: they
    # take turns, and the probe then measures the CPU the workload runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print(json.dumps({"environment": environment()}), file=sys.stderr)

    names = WORKLOADS if args.smoke else (args.workload,)
    out_root = HERE / "_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=out_root))
    try:
        results = [run_workload(name, args.seed, 0.0 if args.smoke else args.seconds,
                                bool(args.trace), args.smoke, workdir) for name in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

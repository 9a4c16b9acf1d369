"""A fixed speed probe, run in a helper process between the benchmark's operations.

The machines this benchmark runs on are shared: the speed of the same
pure-Python loop drifts by a fifth over seconds to minutes as neighbours
come and go, and 20-second medians of the raw workload rates differed by
about as much between processes. So the benchmark times fixed work next to
its own, and reports its times at a reference speed.

The probe runs in a helper process of its own, started once per run and
called in turn: the benchmark process waits while the helper probes, so the
two never run at the same time, and the program's heap, garbage collector
and memory never touch the probe's, nor the probe's arrays the benchmark's
peak RSS. The helper's work never calls the package. It knows two probes:

- ``op``, timed after the timed operations, once per ``INTERVAL_S`` of
  their time: the benchmark's own numpy reference forward at the
  workload's dims, a loop creating closures, a GEMM with an erf, and fresh
  pages;
- ``setup``, timed after each set-up: the kinds of work set-up does, many
  small numpy random draws collected into Python lists (as task generation
  does) and large fresh arrays of normal draws (as building a model does).

The median time of the probes of one kind within ``WINDOW_S`` of an
operation, over that probe's time at the reference speed, is the host's
slowdown while the operation ran; the end-to-end figures add up operation
times divided by it. The probe is part of the benchmark's definition:
changing it changes every figure.

Run as a script, this file is the helper: it reads its dims as one JSON
line on stdin, then answers each line naming a probe with that probe's
time in seconds, until stdin closes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

INTERVAL_S = 0.12       # one op probe per interval of operations
MAX_BURST = 8           # op probes at most after one long operation
WINDOW_S = 0.5          # probes this close to an operation set its speed
MIN_PROBES = 3
SETUP_REFERENCE_S = 0.020   # the setup probe's time at the reference speed


class SpeedProbe:
    """Probes through a helper process; the op probe runs a reference
    forward of ``batch`` examples at the workload's ``config`` and takes
    ``reference_s`` at the reference speed. Close it (or use it as a
    context manager) to stop the helper."""

    def __init__(self, config, batch: int, reference_s: float):
        from spafit.model import param_shapes
        self.reference_s = {"op": reference_s, "setup": SETUP_REFERENCE_S}
        self.samples: dict[str, list[tuple[float, float]]] = {"op": [], "setup": []}
        self.worker = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                       text=True)
        dims = {"num_layers": config.num_layers, "hidden_size": config.hidden_size,
                "num_heads": config.num_heads, "vocab_size": config.vocab_size,
                "batch": batch,
                "shapes": {path: list(shape) for path, shape in param_shapes(config).items()}}
        self.worker.stdin.write(json.dumps(dims) + "\n")
        self.worker.stdin.flush()
        if self.worker.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the probe helper did not start")

    def close(self) -> None:
        if self.worker.poll() is None:
            self.worker.stdin.close()
            self.worker.wait(timeout=60)
        self.worker.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _once(self, kind: str) -> None:
        t0 = time.perf_counter()
        self.worker.stdin.write(kind + "\n")
        self.worker.stdin.flush()
        seconds = float(self.worker.stdout.readline())
        self.samples[kind].append(((t0 + time.perf_counter()) / 2, seconds))

    def maybe(self) -> None:
        """Op-probe once per INTERVAL_S passed since the last probe (at most
        MAX_BURST), so that long operations get as many probes as short ones."""
        ops = self.samples["op"]
        if not ops:
            self._once("op")
            return
        due = int((time.perf_counter() - ops[-1][0]) / INTERVAL_S)
        for _ in range(min(due, MAX_BURST)):
            self._once("op")

    def timed(self, fn, *args, **kwargs):
        """(fn's result, its (start, end) span); op-probes afterwards, untimed."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        span = (t0, time.perf_counter())
        self.maybe()
        return out, span

    def timed_setup(self, fn):
        """(fn's result, its span); one setup probe afterwards, untimed."""
        t0 = time.perf_counter()
        out = fn()
        span = (t0, time.perf_counter())
        self._once("setup")
        return out, span

    def slowdown(self, span=None, kind: str = "op") -> float:
        """Median time of the ``kind`` probes near ``span`` (of all of them
        when None) over the reference; above 1 on a slower host."""
        samples = self.samples[kind]
        if span is None:
            near = samples
        else:
            mid = (span[0] + span[1]) / 2
            near = [s for s in samples if span[0] - WINDOW_S <= s[0] <= span[1] + WINDOW_S]
            if len(near) < MIN_PROBES:
                near = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_PROBES]
        return median(seconds for _, seconds in near) / self.reference_s[kind]

    def seconds(self, span, kind: str = "op") -> float:
        """The span's duration at the reference speed."""
        return (span[1] - span[0]) / self.slowdown(span, kind)


# -- the helper process ------------------------------------------------------------


def _helper() -> None:
    from types import SimpleNamespace

    import numpy as np
    from scipy.special import erf

    import reference

    dims = json.loads(sys.stdin.readline())
    config = SimpleNamespace(**{k: dims[k] for k in ("num_layers", "hidden_size", "num_heads")})
    rng = np.random.default_rng(0)
    params = {path: rng.standard_normal(shape) * 0.02 for path, shape in dims["shapes"].items()}
    tokens = rng.integers(0, dims["vocab_size"], size=(dims["batch"], 8))
    types = np.zeros_like(tokens)
    left, right = rng.standard_normal((64, 256)), rng.standard_normal((256, 1024))

    def op():
        reference.forward(params, {}, config, tokens, types)
        nodes = []
        for i in range(2_000):
            nodes.append((lambda g, i=i: g + i, {"i": i}))
        erf(left @ right)
        np.ones(2**19)          # 4 MiB of fresh pages

    def setup():
        draws = np.random.default_rng(1)
        rows = [(draws.integers(4, 40, size=4).tolist(), int(draws.integers(2)))
                for _ in range(400)]
        x = draws.standard_normal(2**19)    # 4 MiB of fresh pages
        x[np.abs(x) > 2.0] = 0.0
        return rows

    probes = {"op": op, "setup": setup}
    for fn in probes.values():   # the first calls pay one-time costs; not timed
        fn()
        fn()
    print("ready", flush=True)
    for line in sys.stdin:
        fn = probes[line.strip()]
        t0 = time.perf_counter()
        fn()
        print(repr(time.perf_counter() - t0), flush=True)


if __name__ == "__main__":
    _helper()

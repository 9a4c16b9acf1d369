"""Per-layer tracing for the benchmark's traced runs.

``Tracer.install`` rebinds the package's public functions, in every
``spafit`` module that holds them, to timing wrappers defined here; the
package itself carries no hooks, and timed runs install nothing. The
wrappers record:

- every public ``spafit.tensor`` op in a train step: calls, forward time,
  and the time of the backward closure of the node it returned;
- graph nodes that carry a backward closure, per train step and per
  eval-mode forward batch;
- encoder layers (``model.encoder_layer_forward``), with forward and
  backward time attributed to the layer, and to its plan group under the
  stratified plan;
- the three phases of a train step (``model_forward``, ``tensor.backward``,
  ``AdamW.step``) per plan, and the scalars the optimizer updates;
- plan compile/attach/swap, container write/read and bytes written, task
  generation and encoding, ``evaluate`` and ``train_run`` calls;
- with ``memory`` on, the ``tracemalloc`` peak of each train step (forward
  start to optimizer end) and of each eval-mode forward.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict

OPS = ("add", "scale", "matmul", "transpose", "reshape", "softmax", "layer_norm",
       "gelu", "tanh", "dropout", "embedding", "first_token", "cross_entropy")
PLAN_ALIASES = ("fullft", "bitfit", "lora2", "spafit")
GROUPS = (1, 2, 3)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for op in OPS:
        names += [(f"tensor.{op}.calls", "count"), (f"tensor.{op}.fwd_ms", "ms"),
                  (f"tensor.{op}.bwd_ms", "ms")]
    names += [("tensor.nodes_per_step", "count"), ("tensor.eval_nodes_per_batch", "count"),
              ("model.layer.fwd_ms", "ms"), ("model.layer.bwd_ms", "ms"),
              ("model.eval_forward_ms", "ms")]
    for g in GROUPS:
        names += [(f"model.group{g}.fwd_ms", "ms"), (f"model.group{g}.bwd_ms", "ms")]
    for alias in PLAN_ALIASES:
        names += [(f"harness.step.{alias}.{phase}_ms", "ms")
                  for phase in ("forward", "backward", "optimizer")]
    names += [("optim.params", "count"),
              ("plan.compile_ms", "ms"), ("plan.attach_ms", "ms"), ("plan.swap_ms", "ms"),
              ("checkpoint.write_ms", "ms"), ("checkpoint.read_ms", "ms"),
              ("checkpoint.bytes", "B"),
              ("tasks.generate_ms", "ms"), ("tasks.encode_ms", "ms"),
              ("harness.evaluate_ms", "ms"), ("harness.train_run_ms", "ms"),
              ("mem.step_peak_mb", "MB"), ("mem.eval_peak_mb", "MB")]
    return names


class NullTracer:
    """Stand-in for timed runs: scopes and pauses cost nothing."""

    def scope(self, alias, plan=None):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.sum = defaultdict(float)   # accumulated ms, bytes and counts
        self.n = defaultdict(int)       # denominators (calls, steps, batches)
        self.alias = None               # plan alias set by the workload
        self.plan = None
        self.phase = None               # "train" | "eval" | None
        self.layer = None
        self.active = True
        self.memory = False
        self.mem_peak = {"step": 0, "eval": 0}
        self._mem_start = 0
        self._undo = []

    # -- scopes set by the workload ------------------------------------------

    @contextlib.contextmanager
    def scope(self, alias, plan=None):
        saved = self.alias, self.plan
        self.alias, self.plan = alias, plan
        try:
            yield
        finally:
            self.alias, self.plan = saved

    @contextlib.contextmanager
    def paused(self):
        saved = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = saved

    @contextlib.contextmanager
    def tracing_memory(self):
        """Record tracemalloc peaks instead of times while inside."""
        tracemalloc.start()
        self.memory = True
        try:
            with self.paused():
                yield
        finally:
            self.memory = False
            tracemalloc.stop()

    def _group(self, layer):
        if self.alias != "spafit" or layer is None:
            return None
        return self.plan.group_of_layer(layer + 1)

    # -- installation --------------------------------------------------------

    def _rebind(self, module, name, make):
        """Point every spafit module attribute bound to module.name at a
        wrapper of it."""
        orig = getattr(module, name)
        wrapper = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("spafit"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def install(self):
        import spafit.checkpoint as C
        import spafit.harness as H
        import spafit.model as M
        import spafit.optim as O
        import spafit.plan as P
        import spafit.tasks as K
        import spafit.tensor as T

        for op in OPS:
            self._rebind(T, op, lambda f, op=op: self._wrap_op(op, f))
        self._rebind(T, "backward", self._wrap_backward)
        self._rebind(M, "encoder_layer_forward", self._wrap_layer)
        self._rebind(M, "model_forward", self._wrap_model_forward)
        self._rebind(H, "train_run", self._wrap_train_run)
        self._rebind(H, "evaluate", self._wrap_evaluate)
        for module, name, key in ((P, "compile_plan", "plan.compile_ms"),
                                  (P, "attach_lora", "plan.attach_ms"),
                                  (P, "swap_adapter", "plan.swap_ms"),
                                  (C, "read_container", "checkpoint.read_ms"),
                                  (K, "generate_task", "tasks.generate_ms"),
                                  (K, "encode_batch", "tasks.encode_ms")):
            self._rebind(module, name, lambda f, key=key: self._wrap_timed(key, f))
        self._rebind(C, "write_container", self._wrap_write)
        step = O.AdamW.step
        O.AdamW.step = self._wrap_optimizer(step)
        self._undo.append((O.AdamW, "step", step))

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    # -- wrappers --------------------------------------------------------------

    def _add(self, key, value, count=1):
        self.sum[key] += value
        self.n[key] += count

    def _wrap_timed(self, key, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            if self.active:
                self._add(key, (time.perf_counter() - t0) * 1e3)
            return out
        return wrapper

    def _wrap_write(self, fn):
        def wrapper(path, *args, **kwargs):
            t0 = time.perf_counter()
            fn(path, *args, **kwargs)
            if self.active:
                self._add("checkpoint.write_ms", (time.perf_counter() - t0) * 1e3)
                self._add("checkpoint.bytes", os.path.getsize(path))
        return wrapper

    def _wrap_op(self, op, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = (time.perf_counter() - t0) * 1e3
            if not self.active or any(out is a for a in args):
                return out  # identity ops (eval dropout) return their input
            has_bwd = out._backward_fn is not None
            if self.phase == "eval":
                self.sum["tensor.eval_nodes"] += has_bwd
            elif self.phase == "train":
                self.sum[f"tensor.{op}.calls"] += 1
                self.sum[f"tensor.{op}.fwd_ms"] += dt
                self.sum["tensor.nodes"] += has_bwd
                if has_bwd:
                    out._backward_fn = self._timed_backward(op, out._backward_fn)
            return out
        return wrapper

    def _timed_backward(self, op, fn):
        layer = self.layer
        group = self._group(layer)

        def timed(g):
            t0 = time.perf_counter()
            fn(g)
            dt = (time.perf_counter() - t0) * 1e3
            if self.active:
                self.sum[f"tensor.{op}.bwd_ms"] += dt
                if layer is not None:
                    self.sum["model.layer.bwd_ms"] += dt
                if group is not None:
                    self.sum[f"model.group{group}.bwd_ms"] += dt
        return timed

    def _wrap_layer(self, fn):
        def wrapper(store, layer, *args, **kwargs):
            saved = self.layer
            self.layer = layer
            t0 = time.perf_counter()
            try:
                return fn(store, layer, *args, **kwargs)
            finally:
                dt = (time.perf_counter() - t0) * 1e3
                self.layer = saved
                if self.active and self.phase == "train":
                    self._add("model.layer.fwd_ms", dt)
                    self.n["model.layer.bwd_ms"] += 1
                    group = self._group(layer)
                    if group is not None:
                        self.sum[f"model.group{group}.fwd_ms"] += dt
        return wrapper

    def _wrap_model_forward(self, fn):
        def wrapper(store, token_ids, type_ids, mode="eval", *args, **kwargs):
            saved = self.phase
            self.phase = "train" if mode == "train" else "eval"
            if self.memory:
                self._mem_start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                return fn(store, token_ids, type_ids, mode, *args, **kwargs)
            finally:
                dt = (time.perf_counter() - t0) * 1e3
                self.phase = saved
                if self.memory and mode != "train":
                    self._record_peak("eval")
                if self.active and mode == "train":
                    self.sum[f"harness.step.{self.alias}.forward_ms"] += dt
                elif self.active:
                    self._add("model.eval_forward_ms", dt)
        return wrapper

    def _record_peak(self, kind):
        peak = tracemalloc.get_traced_memory()[1] - self._mem_start
        self.mem_peak[kind] = max(self.mem_peak[kind], peak)

    def _wrap_backward(self, fn):
        def wrapper(loss):
            t0 = time.perf_counter()
            fn(loss)
            if self.active:
                self.sum[f"harness.step.{self.alias}.backward_ms"] += \
                    (time.perf_counter() - t0) * 1e3
        return wrapper

    def _wrap_optimizer(self, fn):
        tracer = self

        def step(opt):
            t0 = time.perf_counter()
            fn(opt)
            dt = (time.perf_counter() - t0) * 1e3
            if tracer.memory:
                tracer._record_peak("step")
            if tracer.active:
                tracer._add(f"harness.step.{tracer.alias}.optimizer_ms", dt)
                tracer._add("optim.params", sum(p.data.size for p in opt.params.values()))
        return step

    def _wrap_train_run(self, fn):
        def wrapper(*args, **kwargs):
            saved = self.phase
            self.phase = "train"
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.phase = saved
                if self.active:
                    self._add("harness.train_run_ms", (time.perf_counter() - t0) * 1e3)
        return wrapper

    def _wrap_evaluate(self, fn):
        def wrapper(*args, **kwargs):
            saved = self.phase
            self.phase = "eval"
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.phase = saved
                if self.active:
                    self._add("harness.evaluate_ms", (time.perf_counter() - t0) * 1e3)
        return wrapper

    # -- report ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; 0 for a layer the workload never runs.

        Op, node, layer-group and step-phase figures are per train step
        (over every plan trained); per-call figures are means per call."""
        s, n = self.sum, self.n
        steps = n["optim.params"]

        def per(key, count):
            return s[key] / count if count else 0.0

        out = {}
        for op in OPS:
            for field in ("calls", "fwd_ms", "bwd_ms"):
                out[f"tensor.{op}.{field}"] = per(f"tensor.{op}.{field}", steps)
        out["tensor.nodes_per_step"] = per("tensor.nodes", steps)
        out["tensor.eval_nodes_per_batch"] = per("tensor.eval_nodes",
                                                 n["model.eval_forward_ms"])
        for key in ("model.layer.fwd_ms", "model.layer.bwd_ms", "model.eval_forward_ms"):
            out[key] = per(key, n[key])
        spafit_steps = n["harness.step.spafit.optimizer_ms"]
        for g in GROUPS:
            for field in ("fwd_ms", "bwd_ms"):
                out[f"model.group{g}.{field}"] = per(f"model.group{g}.{field}", spafit_steps)
        for alias in PLAN_ALIASES:
            alias_steps = n[f"harness.step.{alias}.optimizer_ms"]
            for phase in ("forward", "backward", "optimizer"):
                key = f"harness.step.{alias}.{phase}_ms"
                out[key] = per(key, alias_steps)
        out["optim.params"] = per("optim.params", steps)
        for key in ("plan.compile_ms", "plan.attach_ms", "plan.swap_ms",
                    "checkpoint.write_ms", "checkpoint.read_ms", "checkpoint.bytes",
                    "tasks.generate_ms", "tasks.encode_ms",
                    "harness.evaluate_ms", "harness.train_run_ms"):
            out[key] = per(key, n[key])
        out["mem.step_peak_mb"] = self.mem_peak["step"] / 2**20
        out["mem.eval_peak_mb"] = self.mem_peak["eval"] / 2**20
        return out

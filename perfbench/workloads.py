"""The benchmark's three workloads: desk-compare, mid-train, adapter-serve.

Every workload is one closed loop in one process: it sets up (a fixed
number of times, about 2 s in all, reporting the mean), runs one untimed
warm-up round, then repeats whole timed rounds of the same operations
until the run's seconds are spent. Operation times are taken at the speed
probe's reference speed (``probe.py``). Rates are all of a run's examples
over all their time; latencies are medians over requests. The package is driven only through its public functions, always
looked up on their modules so a traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median

import numpy as np

import reference
from spafit import checkpoint, harness, model, plan as plans, tasks
from spafit import tensor as T
from spafit.optim import TrainConfig

DESK = model.ModelConfig(num_layers=4, hidden_size=32, num_heads=4, ffn_size=64,
                         vocab_size=40, max_positions=16, lora_rank=8, lora_alpha=16,
                         dropout_p=0.1)
MID = model.ModelConfig(num_layers=8, hidden_size=256, num_heads=4, ffn_size=1024,
                        vocab_size=128, max_positions=16, lora_rank=8, lora_alpha=16,
                        dropout_p=0.1)
TINY_MID = replace(MID, hidden_size=16, num_heads=2, ffn_size=32, vocab_size=40)

DESK_PLANS = {"fullft": "fullft", "bitfit": "fullbitfit", "lora2": "fulllora-II",
              "spafit": "spafit:N1=1,N2=2,mode=II"}
MID_PLANS = {"fullft": "fullft", "spafit": "spafit:N1=4,N2=6,mode=II"}

LEARNING_RATE = 2e-3
BATCH = 16
LOGIT_TOL = 1e-9        # eval logits vs the plain-numpy reference
FD_TOL = 1e-6           # |autodiff - finite difference| / |gradient|


@dataclass(frozen=True)
class Sizes:
    config: model.ModelConfig
    seq_len: int
    train_size: int      # examples per train_run
    eval_size: int       # validation examples evaluated (or pooled) per plan
    eval_batch: int      # examples per eval request
    setup_reps: int
    probe_batch: int     # examples in the speed probe's reference forward
    probe_s: float       # the probe's time at the reference speed


SIZES = {
    "desk-compare": Sizes(DESK, 11, train_size=256, eval_size=512, eval_batch=64,
                          setup_reps=27, probe_batch=64, probe_s=0.015),
    "mid-train": Sizes(MID, 8, train_size=48, eval_size=32, eval_batch=32,
                       setup_reps=5, probe_batch=1, probe_s=0.021),
    "adapter-serve": Sizes(DESK, 11, train_size=1536, eval_size=256, eval_batch=32,
                           setup_reps=7, probe_batch=64, probe_s=0.015),
}
SMOKE_SIZES = {
    "desk-compare": replace(SIZES["desk-compare"], train_size=32, eval_size=64, eval_batch=32,
                            setup_reps=1, probe_batch=4),
    "mid-train": replace(SIZES["mid-train"], config=TINY_MID, train_size=16, eval_size=16,
                         eval_batch=16, setup_reps=1, probe_batch=4),
    "adapter-serve": replace(SIZES["adapter-serve"], train_size=32, eval_size=32,
                             eval_batch=16, setup_reps=1, probe_batch=4),
}


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's oracle."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]    # at the probe's reference speed
    measured: dict[str, float]   # the same figures from raw wall time


def _chunks(records, size):
    return [records[i:i + size] for i in range(0, len(records), size)]


def _train_cfg(seed: int) -> TrainConfig:
    return TrainConfig(learning_rate=LEARNING_RATE, batch_size=BATCH, epochs=1, seed=seed)


def _fresh(config, model_seed, text):
    """A base store with ``text``'s plan attached, as compare_configs makes it."""
    store = model.build_model(config, model_seed)
    plan = plans.compile_plan(plans.parse_plan_spec(text), config)
    plans.attach_lora(store, plan, seed=model_seed)
    return store, plan


def _digests(tensors: dict) -> dict[str, bytes]:
    """sha256 of each array's bytes: bit-identity checks without copies."""
    return {name: hashlib.sha256(np.ascontiguousarray(t.data)).digest()
            for name, t in tensors.items()}


def _check_training(store, plan, base, initial, result):
    """Counts agree with the closed form; frozen tensors are bit-identical
    to the base; every trainable tensor moved. ``base`` and ``initial`` are
    digests of the base arrays and of the trainables before training."""
    cfg = store.config
    count = plans.closed_form_count(plan.spec, cfg, include_head=True)
    trainables = store.trainable_parameters()
    check(plans.count_trainable(plan, cfg, include_head=True) == count
          and result.trainable_count == count
          and sum(t.data.size for t in trainables.values()) == count,
          f"{plan.spec}: trainable count differs from closed form {count}")
    frozen = {p: t for p, t in store.params.items() if p not in trainables}
    for path, digest in _digests(frozen).items():
        check(digest == base[path], f"{plan.spec}: frozen {path} changed")
    for name, digest in _digests(trainables).items():
        check(digest != initial[name], f"{plan.spec}: {name} did not move")
    check(all(math.isfinite(x) for x in result.epoch_losses), f"{plan.spec}: non-finite loss")


def _check_gradient(store, plan, spec, records, rng):
    """Autodiff gradient of one batch against a finite difference of the
    plain-numpy reference loss, on a dropout-free twin of the store."""
    cfg = replace(store.config, dropout_p=0.0)
    twin = model.build_model(cfg, 0)
    plans.attach_lora(twin, plans.compile_plan(plan.spec, cfg), seed=0)
    for path, t in store.params.items():
        twin.params[path].data = t.data.copy()
    for target, pair in store.lora.items():
        twin.lora[target].down.data = pair.down.data.copy()
        twin.lora[target].up.data = pair.up.data.copy()
    tokens, types = tasks.encode_batch(spec, records)
    labels = tasks.labels_array(spec, records)
    loss = T.cross_entropy(model.model_forward(twin, tokens, types, mode="train",
                                               rng=np.random.default_rng(0)), labels)
    T.backward(loss)
    grads = {name: t.grad for name, t in twin.trainable_parameters().items()}
    params, lora = reference.store_arrays(twin)
    check(abs(reference.cross_entropy(reference.forward(params, lora, cfg, tokens, types),
                                      labels) - float(loss.data)) <= 1e-12,
          f"{plan.spec}: loss differs from the reference loss")
    autodiff, fd = reference.directional_fd_check(params, lora, cfg, tokens, types,
                                                  labels, grads, rng)
    gnorm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    check(abs(autodiff - fd) <= FD_TOL * gnorm,
          f"{plan.spec}: directional derivative {autodiff} vs finite difference {fd}")


def _check_eval(store, plan, spec, chunks, values):
    """Eval logits match the reference within LOGIT_TOL on the first chunk;
    each reported accuracy equals the one recomputed from reference logits."""
    params, lora = reference.store_arrays(store)
    for i, (chunk, value) in enumerate(zip(chunks, values)):
        tokens, types = tasks.encode_batch(spec, chunk)
        ref = reference.forward(params, lora, store.config, tokens, types)
        if i == 0:
            got = model.model_forward(store, tokens, types, mode="eval").data
            check(np.abs(got - ref).max() <= LOGIT_TOL,
                  f"{plan.spec}: eval logits differ from the reference")
        gold = tasks.labels_array(spec, chunk)
        check(value == float(np.mean(np.argmax(ref, axis=1) == gold)),
              f"{plan.spec}: reported accuracy differs from the recomputed one")


def _timed_rounds(round_fn, seconds):
    rounds, start = [], time.perf_counter()
    while True:
        rounds.append(round_fn())
        if time.perf_counter() - start >= seconds:
            return rounds


def _setup(probe, setup_fn, reps):
    spans = []
    for _ in range(reps):
        state, span = probe.timed_setup(setup_fn)
        spans.append(span)
    return state, spans


def _figures(probe, train, evals, setup):
    """End-to-end figures from operation spans, at the probe's reference
    speed and from raw wall time.

    ``train`` and ``evals`` hold one (examples, spans) pair per round (for
    adapter-serve's training, one for all of it); every span in ``evals``
    is one request."""
    out = []
    for seconds in (probe.seconds, lambda span, kind="op": span[1] - span[0]):
        def rate(pairs):
            return (sum(n for n, _ in pairs)
                    / sum(seconds(s) for _, spans in pairs for s in spans))
        out.append({"train_examples_per_s": rate(train),
                    "eval_examples_per_s": rate(evals),
                    "request_p50_ms": median(seconds(s) for _, spans in evals
                                             for s in spans) * 1e3,
                    "setup_s": sum(seconds(s, "setup") for s in setup) / len(setup)})
    return out


# -- desk-compare and mid-train ------------------------------------------------


class TrainWorkload:
    """Train every plan from one base, then evaluate each in requests of
    ``eval_batch`` examples. A round is one train_run and the eval requests
    per plan, each on an untimed clone of the plan's freshly attached store
    from set-up, which is kept untouched. The checks that need copies of
    the model (reference logits, finite differences, compare_configs) run
    on the last round's stores, after the peak RSS is read."""

    def __init__(self, sizes: Sizes, plan_texts: dict, seed: int, tracer, probe,
                 compare_check: bool):
        self.sizes = sizes
        self.probe = probe
        self.plan_texts = plan_texts
        self.tracer = tracer
        self.compare_check = compare_check
        self.model_seed = seed
        self.train_seed = seed + 1
        self.task = tasks.TaskSpec(tasks.PAIR_CLASSIFICATION, sizes.config.vocab_size,
                                   sizes.seq_len, sizes.train_size, sizes.eval_size,
                                   seed=seed + 2)
        self.rng = np.random.default_rng(seed + 3)

    def setup(self):
        train, val = tasks.generate_task(self.task)
        tasks.encode_batch(self.task, train + val)
        stores = {}
        for alias, text in self.plan_texts.items():
            with self.tracer.scope(alias):
                stores[alias] = _fresh(self.sizes.config, self.model_seed, text)
        return train, val, stores

    def _round(self):
        out = {"train": [], "eval": [], "signature": []}
        self.last = []
        for alias, (pristine, plan) in self.pristine.items():
            with self.tracer.paused():
                store = pristine.clone()
                initial = _digests(store.trainable_parameters())
            with self.tracer.scope(alias, plan):
                result, span = self.probe.timed(harness.train_run, store, plan, self.task,
                                                self.train, self.val[:1],
                                                _train_cfg(self.train_seed))
                out["train"].append(span)
                values = []
                for chunk in self.eval_chunks:
                    (_, value), span = self.probe.timed(harness.evaluate, store, self.task,
                                                        chunk)
                    out["eval"].append(span)
                    values.append(value)
            with self.tracer.paused():
                _check_training(store, plan, self.base, initial, result)
            out["signature"].append((result.epoch_losses, values))
            self.last.append((store, plan, result, values))
        return out

    def run(self, seconds):
        (train, val, stores), setup = _setup(self.probe, self.setup, self.sizes.setup_reps)
        self.train, self.val, self.pristine = train, val, stores
        self.eval_chunks = _chunks(val, self.sizes.eval_batch)
        self.base = _digests(next(iter(stores.values()))[0].params)
        warm = self._round()
        rounds = _timed_rounds(self._round, seconds)
        for r in rounds:
            check(r["signature"] == warm["signature"], "a round's results differ from the warm-up's")
        n_plans = len(self.plan_texts)
        metrics, measured = _figures(
            self.probe, [(n_plans * len(train), r["train"]) for r in rounds],
            [(n_plans * len(val), r["eval"]) for r in rounds], setup)
        return Outcome(attempted=len(rounds) * n_plans * (1 + len(self.eval_chunks)),
                       failed=0, metrics=metrics, measured=measured)

    def final_checks(self):
        """Reference logits, metric recomputation and the finite-difference
        gradient on the last round's stores; compare_configs agreement."""
        for store, plan, _, values in self.last:
            _check_eval(store, plan, self.task, self.eval_chunks, values)
            _check_gradient(store, plan, self.task, self.train[:BATCH], self.rng)
        if self.compare_check:
            specs = [plans.parse_plan_spec(t) for t in self.plan_texts.values()]
            table = harness.compare_configs(specs, self.sizes.config, self.task,
                                            _train_cfg(self.train_seed), self.model_seed,
                                            self.train, self.val[:1])
            for got, (_, _, want, _) in zip(table.rows, self.last):
                check((got.plan_spec, got.trainable_count, got.epoch_losses, got.metric_value)
                      == (want.plan_spec, want.trainable_count, want.epoch_losses,
                          want.metric_value), f"compare_configs row {got.plan_spec} differs")
        self.last = None

    def memory_pass(self):
        for alias, text in self.plan_texts.items():
            store, plan = _fresh(self.sizes.config, self.model_seed, text)
            with self.tracer.scope(alias, plan):
                harness.train_run(store, plan, self.task, self.train[:BATCH],
                                  self.eval_chunks[0], _train_cfg(self.train_seed))


# -- adapter-serve ---------------------------------------------------------------

SERVE_BASE_SEED = 11
# alias -> (plan, task kind, task seed); fixed, so adapters never depend on --seed
SERVE_TASKS = {
    "bitfit": ("fullbitfit", tasks.PAIR_CLASSIFICATION, 101),
    "lora2": ("fulllora-II", tasks.SINGLE_CLASSIFICATION, 102),
    "spafit": ("spafit:N1=1,N2=2,mode=II", tasks.PAIR_CLASSIFICATION, 103),
}
REQUESTS_PER_TASK = 4   # per round; a round is a seeded order of these
ADAPTER_TRAIN_CHUNK = 128   # examples per train_run call while making adapters


def read_adapter_file(path) -> dict[str, np.ndarray]:
    """Tensors of a container, parsed here from the documented layout
    (magic, version byte, uint32 header length, JSON header, float64
    payloads) rather than through the package's reader."""
    raw = Path(path).read_bytes()
    (length,) = struct.unpack("<I", raw[5:9])
    header = json.loads(raw[9:9 + length])
    out, offset = {}, 9 + length
    for entry in header["tensors"]:
        n = int(np.prod(entry["shape"], dtype=np.int64))
        out[entry["name"]] = np.frombuffer(raw, "<f8", n, offset).reshape(entry["shape"]).copy()
        offset += 8 * n
    return out


class ServeWorkload:
    """One shared desk-size base serving three task adapters.

    A request names a task: swap its adapter into the serving store, encode
    a batch of that task's validation examples and run the eval-mode
    forward. Every served logit array is compared bit for bit with that of
    a fresh base carrying the adapter's tensors straight from the file; a
    request hit by the known swap fault, with that of the same store plus
    the stale tensors the fault leaves.
    """

    def __init__(self, sizes: Sizes, seed: int, tracer, probe, workdir: Path):
        self.sizes = sizes
        self.probe = probe
        self.tracer = tracer
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.specs = {
            alias: tasks.TaskSpec(kind, DESK.vocab_size, sizes.seq_len, sizes.train_size,
                                  sizes.eval_size, seed=task_seed)
            for alias, (_, kind, task_seed) in SERVE_TASKS.items()}

    def setup(self):
        """Task data, and the base written, read back and written again."""
        data = {alias: tasks.generate_task(spec) for alias, spec in self.specs.items()}
        base = model.build_model(self.sizes.config, SERVE_BASE_SEED)
        first, second = self.workdir / "base.ckpt", self.workdir / "base2.ckpt"
        checkpoint.save_checkpoint(base, first)
        store, plan = checkpoint.load_checkpoint_with_plan(first)
        checkpoint.save_checkpoint(store, second)
        check(plan is None and first.read_bytes() == second.read_bytes(),
              "checkpoint write -> read -> write is not byte-identical")
        return data, store

    def _train_adapters(self, data):
        """Train each task's plan from the base and export its adapter."""
        base_store = model.build_model(self.sizes.config, SERVE_BASE_SEED)
        base = _digests(base_store.params)
        calls = []
        self.adapters, self.owned = {}, {}
        with self.tracer.paused():  # untimed warm-up: first calls pay one-time costs
            store, plan = _fresh(self.sizes.config, SERVE_BASE_SEED, SERVE_TASKS["lora2"][0])
            train, val = data["lora2"]
            harness.train_run(store, plan, self.specs["lora2"], train[:ADAPTER_TRAIN_CHUNK],
                              val[:1], _train_cfg(SERVE_BASE_SEED))
        for alias, (text, _, _) in SERVE_TASKS.items():
            train, val = data[alias]
            store, plan = _fresh(self.sizes.config, SERVE_BASE_SEED, text)
            initial = _digests(store.trainable_parameters())
            for part in _chunks(train, ADAPTER_TRAIN_CHUNK):
                with self.tracer.scope(alias, plan):
                    result, span = self.probe.timed(harness.train_run, store, plan,
                                                    self.specs[alias], part, val[:1],
                                                    _train_cfg(SERVE_BASE_SEED))
                calls.append((len(part), span))
            with self.tracer.paused():
                _check_training(store, plan, base, initial, result)
            path = self.workdir / f"{alias}.adapter"
            plans.export_adapter(store, plan, path)
            self.adapters[alias] = path
            self.owned[alias] = read_adapter_file(path)
        return calls

    def _reference_store(self, alias, tensors):
        """A fresh base with ``alias``'s plan attached and ``tensors`` (by
        container name) set straight from adapter files."""
        ref, _ = _fresh(self.sizes.config, SERVE_BASE_SEED, SERVE_TASKS[alias][0])
        for name, arr in tensors.items():
            if name.endswith((".lora_A", ".lora_B")):
                pair = ref.lora[name.rsplit(".", 1)[0]]
                (pair.down if name.endswith(".lora_A") else pair.up).data = arr.copy()
            else:
                ref.params[name].data = arr.copy()
        return ref

    def _logits(self, store, alias, index):
        tokens, types = tasks.encode_batch(self.specs[alias], self.pool[alias][index])
        return model.model_forward(store, tokens, types, mode="eval").data.copy()

    def _references(self, data):
        """Logits of every pooled request batch on a fresh base plus the
        adapter's tensors, cross-checked against the numpy reference."""
        self.pool, self.expected, self.stale_expected = {}, {}, {}
        for alias in SERVE_TASKS:
            ref = self._reference_store(alias, self.owned[alias])
            params, lora = reference.store_arrays(ref)
            self.pool[alias] = _chunks(data[alias][1], self.sizes.eval_batch)
            self.expected[alias] = [self._logits(ref, alias, i)
                                    for i in range(len(self.pool[alias]))]
            tokens, types = tasks.encode_batch(self.specs[alias], self.pool[alias][0])
            check(np.abs(self.expected[alias][0] - reference.forward(
                      params, lora, ref.config, tokens, types)).max() <= LOGIT_TOL,
                  f"{alias}: adapter logits differ from the reference")

    def _stale_logits(self, alias, index):
        """Logits under the known swap fault: a fresh base plus the adapter's
        tensors, and every tensor the adapter does not own holding the value
        of the adapter that last wrote it. Cached per stale set."""
        stale = tuple(sorted((path, writer) for path, writer in self.last_writer.items()
                             if writer != alias and path not in self.owned[alias]))
        key = (alias, stale, index)
        if key not in self.stale_expected:
            tensors = dict(self.owned[alias])
            tensors.update({path: self.owned[writer][path] for path, writer in stale})
            self.stale_expected[key] = self._logits(self._reference_store(alias, tensors),
                                                    alias, index)
        return self.stale_expected[key]

    def _serve(self, alias, index):
        plans.swap_adapter(self.store, self.adapters[alias])
        tokens, types = tasks.encode_batch(self.specs[alias], self.pool[alias][index])
        logits = model.model_forward(self.store, tokens, types, mode="eval")
        np.argmax(logits.data, axis=1)
        return logits, len(tokens)

    def _request(self, alias, index):
        (logits, n), span = self.probe.timed(self._serve, alias, index)
        with self.tracer.paused():
            for name in self.owned[alias]:
                if not name.endswith((".lora_A", ".lora_B")):
                    self.last_writer[name] = alias
            ok = np.array_equal(logits.data, self.expected[alias][index])
            check(ok or np.array_equal(logits.data, self._stale_logits(alias, index)),
                  f"request for {alias} served logits that neither a fresh base with "
                  "its adapter nor the known swap fault gives")
        return span, ok, n

    def _round(self):
        order = [a for a in SERVE_TASKS for _ in range(REQUESTS_PER_TASK)]
        self.rng.shuffle(order)
        return [self._request(a, int(self.rng.integers(len(self.pool[a])))) for a in order]

    def run(self, seconds):
        (data, store), setup = _setup(self.probe, self.setup, self.sizes.setup_reps)
        self.store, self.data = store, data
        train_calls = self._train_adapters(data)
        with self.tracer.paused():
            self._references(data)
        self.last_writer = {}
        # warm-up: each adapter once from the clean base, bitfit last, so
        # every request here must be served exactly
        for alias in ("lora2", "spafit", "bitfit"):
            _, ok, _ = self._request(alias, 0)
            check(ok, f"{alias}: first swap from the clean base served wrong logits")
        rounds = _timed_rounds(self._round, seconds)
        metrics, measured = _figures(
            self.probe, [(sum(n for n, _ in train_calls), [s for _, s in train_calls])],
            [(sum(n for _, _, n in r), [span for span, _, _ in r]) for r in rounds], setup)
        return Outcome(attempted=sum(len(r) for r in rounds),
                       failed=sum(not ok for r in rounds for _, ok, _ in r),
                       metrics=metrics, measured=measured)

    def final_checks(self):
        """Nothing left: every request was checked as it was served."""

    def memory_pass(self):
        for alias, (text, _, _) in SERVE_TASKS.items():
            train, _ = self.data[alias]
            store, plan = _fresh(self.sizes.config, SERVE_BASE_SEED, text)
            with self.tracer.scope(alias, plan):
                harness.train_run(store, plan, self.specs[alias], train[:BATCH],
                                  self.pool[alias][0], _train_cfg(SERVE_BASE_SEED))

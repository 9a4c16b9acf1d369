"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings as they complete.
"""

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

import spafit as sp
import spafit.tensor as T
from spafit.harness import evaluate, train_run
from spafit.metrics import accuracy, f1_binary, matthews_corr, pearson_corr
from spafit.model import (
    ModelConfig,
    build_model,
    encoder_layer_forward,
    model_forward,
    total_parameter_count,
)
from spafit.optim import AdamW, TrainConfig
from spafit.plan import (
    Group3Mode,
    PlanKind,
    PlanSpec,
    attach_lora,
    closed_form_count,
    compile_plan,
    count_trainable,
    export_adapter,
    merge_lora,
    parse_plan_spec,
    swap_adapter,
)
from spafit.tasks import TaskSpec, generate_task
from spafit.tensor import Tensor

from test_gradcheck import check_gradients

BERT_LARGE = ModelConfig(num_layers=24, hidden_size=1024, num_heads=16,
                         ffn_size=4096, vocab_size=28996, max_positions=512,
                         type_vocab_size=2, lora_rank=64, lora_alpha=128)

SMOKE_MODEL = ModelConfig(num_layers=4, hidden_size=32, num_heads=4, ffn_size=64,
                          vocab_size=40, max_positions=16, lora_rank=8,
                          lora_alpha=16, dropout_p=0.1)
SMOKE_TASK = TaskSpec(kind="pair_classification", vocab_size=40, seq_len=11,
                      train_size=2000, val_size=500, seed=11)
SMOKE_PLAN = "spafit:N1=1,N2=2,mode=II"
SMOKE_LR = 2e-3


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def run_smoke(seed: int):
    train_records, val_records = generate_task(SMOKE_TASK)
    store = build_model(SMOKE_MODEL, seed=seed)
    plan = compile_plan(parse_plan_spec(SMOKE_PLAN), SMOKE_MODEL)
    attach_lora(store, plan, seed=seed)
    cfg = TrainConfig(learning_rate=SMOKE_LR, batch_size=16, epochs=10, seed=seed)
    result = train_run(store, plan, SMOKE_TASK, train_records, val_records, cfg)
    _, train_acc = evaluate(store, SMOKE_TASK, train_records)
    return store, result, train_acc


_SMOKE_CACHE: dict[int, tuple] = {}


def smoke_runs() -> dict[int, tuple]:
    if not _SMOKE_CACHE:
        _SMOKE_CACHE.update({seed: run_smoke(seed) for seed in (0, 1, 2)})
    return _SMOKE_CACHE


def test_criterion_01_count_reproduction():
    with criterion(1, "exact reference parameter counts", budget_s=1.0):
        lora_i = compile_plan(parse_plan_spec("fulllora-I"), BERT_LARGE)
        lora_ii = compile_plan(parse_plan_spec("fulllora-II"), BERT_LARGE)
        assert count_trainable(lora_i, BERT_LARGE, include_head=False) == 9_437_184
        assert count_trainable(lora_ii, BERT_LARGE, include_head=False) == 12_582_912
        assert total_parameter_count(BERT_LARGE) == 333_579_264


def test_criterion_02_count_oracle():
    with criterion(2, "closed-form counts equal brute-force enumeration "
                      "on 100 random config/spec pairs", budget_s=10.0):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            heads = int(rng.integers(1, 5))
            d = heads * int(rng.integers(2, 9))
            f = int(rng.integers(2, 40))
            layers = int(rng.integers(1, 10))
            cfg = ModelConfig(
                num_layers=layers, hidden_size=d, num_heads=heads, ffn_size=f,
                vocab_size=int(rng.integers(8, 80)),
                max_positions=int(rng.integers(4, 50)),
                type_vocab_size=int(rng.integers(1, 4)),
                num_labels=int(rng.integers(1, 6)),
                lora_rank=int(rng.integers(1, min(d, f) + 1)),
                lora_alpha=int(rng.integers(1, 65)))
            kind = int(rng.integers(0, 5))
            if kind < 4:
                spec = [PlanSpec(PlanKind.FULL_FT), PlanSpec(PlanKind.FULL_BITFIT),
                        PlanSpec(PlanKind.FULL_LORA_I),
                        PlanSpec(PlanKind.FULL_LORA_II)][kind]
            else:
                n1 = int(rng.integers(0, layers + 1))
                n2 = int(rng.integers(n1, layers + 1))
                mode = Group3Mode.FT_II if rng.integers(2) else Group3Mode.FT_I
                spec = PlanSpec(PlanKind.SPAFIT, n1, n2, mode)
            plan = compile_plan(spec, cfg)
            for include_head in (True, False):
                assert closed_form_count(spec, cfg, include_head) \
                    == count_trainable(plan, cfg, include_head), (spec, cfg)


def test_criterion_03_gradient_checks():
    with criterion(3, "analytic gradients match central finite differences",
                   budget_s=30.0):
        rng = np.random.default_rng(7)

        x = rng.standard_normal((3, 6))
        w = rng.standard_normal((3, 6))
        check_gradients(
            lambda ts: T.tensor_sum(T.mul(T.gelu(ts[0]), Tensor(w))), [x])

        gamma, beta = rng.standard_normal(6), rng.standard_normal(6)
        check_gradients(
            lambda ts: T.tensor_sum(T.mul(
                T.layer_norm(ts[0], ts[1], ts[2]), Tensor(w))),
            [x, gamma, beta])

        q = rng.standard_normal((2, 3, 4))
        k = rng.standard_normal((2, 3, 4))
        v = rng.standard_normal((2, 3, 4))
        wa = rng.standard_normal((2, 3, 4))

        def attention(ts):
            scores = T.matmul(ts[0], T.transpose(ts[1])) * 0.5
            return T.tensor_sum(T.mul(T.matmul(T.softmax(scores), ts[2]), Tensor(wa)))

        check_gradients(attention, [q, k, v])

        cfg = ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=12,
                          vocab_size=11, max_positions=8, lora_rank=2,
                          lora_alpha=4, dropout_p=0.0)
        store = build_model(cfg, seed=3)
        nudge = np.random.default_rng(77)
        for path, t in store.params.items():
            if "LayerNorm" in path:
                t.data = t.data + 0.1 * nudge.standard_normal(t.data.shape)
        xin = rng.standard_normal((2, 3, 8))
        wl = rng.standard_normal((2, 3, 8))
        layer_paths = [p for p in store.params if p.startswith("encoder.layer.0.")]
        arrays = [xin] + [store.params[p].data for p in layer_paths]

        def layer(ts):
            for path, t in zip(layer_paths, ts[1:]):
                store.params[path] = t
            out = encoder_layer_forward(store, 0, ts[0], mode="eval")
            return T.tensor_sum(T.mul(out, Tensor(wl)))

        check_gradients(layer, arrays)


def test_criterion_04_zero_init_transparency():
    with criterion(4, "attaching adapters leaves 10 random batches bit-identical",
                   budget_s=5.0):
        cfg = ModelConfig(num_layers=3, hidden_size=16, num_heads=2, ffn_size=32,
                          vocab_size=50, max_positions=16, lora_rank=4, lora_alpha=8)
        batches = []
        rng = np.random.default_rng(0)
        for _ in range(10):
            batches.append((rng.integers(0, 50, size=(4, 12)),
                            rng.integers(0, 2, size=(4, 12))))
        for text in ("fullft", "fullbitfit", "fulllora-I", "fulllora-II",
                     "spafit:N1=1,N2=2,mode=I", "spafit:N1=0,N2=1,mode=II"):
            store = build_model(cfg, seed=5)
            base = [model_forward(store, t, y, mode="eval").data.copy()
                    for t, y in batches]
            attach_lora(store, compile_plan(parse_plan_spec(text), cfg), seed=17)
            for (t, y), expected in zip(batches, base):
                got = model_forward(store, t, y, mode="eval").data
                assert np.array_equal(got, expected), text


def test_criterion_05_merge_equivalence():
    with criterion(5, "merged weights match the adapter path after 200 steps "
                      "within 1e-9", budget_s=60.0):
        cfg = ModelConfig(num_layers=2, hidden_size=16, num_heads=2, ffn_size=32,
                          vocab_size=40, max_positions=16, lora_rank=4,
                          lora_alpha=8, dropout_p=0.1)
        task = TaskSpec(kind="pair_classification", vocab_size=40, seq_len=9,
                        train_size=320, val_size=64, seed=3)
        train_records, val_records = generate_task(task)
        store = build_model(cfg, seed=0)
        plan = compile_plan(parse_plan_spec("spafit:N1=0,N2=1,mode=II"), cfg)
        attach_lora(store, plan, seed=0)
        # 320 examples / batch 16 = 20 steps per epoch; 10 epochs = 200 steps
        train_cfg = TrainConfig(learning_rate=2e-3, batch_size=16, epochs=10, seed=0)
        train_run(store, plan, task, train_records, val_records, train_cfg)

        merged = merge_lora(store)
        assert not merged.lora
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(5):
            tokens = rng.integers(0, 40, size=(8, 9))
            types = rng.integers(0, 2, size=(8, 9))
            a = model_forward(store, tokens, types, mode="eval").data
            b = model_forward(merged, tokens, types, mode="eval").data
            worst = max(worst, float(np.abs(a - b).max()))
        assert worst < 1e-9, worst
        assert any(np.abs(pair.up.data).max() > 0 for pair in store.lora.values())


def test_criterion_06_freeze_selectivity():
    with criterion(6, "stratified training moves only the statuses the plan "
                      "allows (exhaustive path scan)", budget_s=120.0):
        cfg = ModelConfig(num_layers=4, hidden_size=16, num_heads=2, ffn_size=32,
                          vocab_size=40, max_positions=16, lora_rank=4,
                          lora_alpha=8, dropout_p=0.1)
        task = TaskSpec(kind="pair_classification", vocab_size=40, seq_len=9,
                        train_size=320, val_size=64, seed=4)
        train_records, val_records = generate_task(task)
        store = build_model(cfg, seed=1)
        plan = compile_plan(parse_plan_spec("spafit:N1=2,N2=3,mode=II"), cfg)
        attach_lora(store, plan, seed=1)
        snapshot = {p: t.data.copy() for p, t in store.params.items()}
        train_cfg = TrainConfig(learning_rate=2e-3, batch_size=16, epochs=3, seed=1)
        train_run(store, plan, task, train_records, val_records, train_cfg)

        group3_bias_subs = ("intermediate.dense.bias", "output.dense.bias",
                            "output.LayerNorm.bias")
        changed_biases = 0
        for path, t in store.params.items():
            same = np.array_equal(t.data, snapshot[path])
            if path.startswith(("pooler.", "classifier.")):
                continue  # always trainable, free to move
            if path.startswith("embeddings."):
                assert same, f"embedding moved: {path}"
                continue
            layer = int(path.split(".")[2]) + 1
            sub = path.split(".", 3)[3]
            if layer <= 2:  # group 1: everything frozen
                assert same, f"group-1 parameter moved: {path}"
            elif layer <= 3:  # group 2: only bias vectors may move
                if not sub.endswith(".bias"):
                    assert same, f"group-2 non-bias moved: {path}"
                elif not same:
                    changed_biases += 1
            else:  # group 3: only the listed feed-forward biases may move
                if sub in group3_bias_subs:
                    if not same:
                        changed_biases += 1
                else:
                    assert same, f"group-3 parameter moved: {path}"
        assert changed_biases > 0
        moved_factors = sum(1 for pair in store.lora.values()
                            if np.abs(pair.up.data).max() > 0)
        assert moved_factors == len(store.lora) > 0
        for target in store.lora:
            assert int(target.split(".")[2]) + 1 == 4  # factors only in group 3


def test_criterion_07_adamw_unit():
    with criterion(7, "hand-derived scalar AdamW step", budget_s=1.0):
        w = Tensor([1.0], requires_grad=True)
        w.grad = np.array([0.5])
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.01,
                          betas=(0.9, 0.999), eps=1e-8, seed=0)
        AdamW({"w": w}, cfg).step()
        assert abs(float(w.data[0]) - 0.899000002) < 1e-12


def test_criterion_08_metric_oracles():
    with criterion(8, "metrics match brute-force oracles on 1000 random "
                      "instances within 1e-12", budget_s=10.0):
        def counts(pred, gold):
            tp = sum(p == 1 and g == 1 for p, g in zip(pred, gold))
            tn = sum(p == 0 and g == 0 for p, g in zip(pred, gold))
            fp = sum(p == 1 and g == 0 for p, g in zip(pred, gold))
            fn = sum(p == 0 and g == 1 for p, g in zip(pred, gold))
            return tp, tn, fp, fn

        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            pred = rng.integers(0, 2, size=n).tolist()
            gold = rng.integers(0, 2, size=n).tolist()
            tp, tn, fp, fn = counts(pred, gold)
            acc = sum(p == g for p, g in zip(pred, gold)) / n
            f1 = 0.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
            denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
            mcc = 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
            assert abs(accuracy(pred, gold) - acc) < 1e-12
            assert abs(f1_binary(pred, gold) - f1) < 1e-12
            assert abs(matthews_corr(pred, gold) - mcc) < 1e-12

            m = int(rng.integers(2, 30))
            xs = rng.standard_normal(m).tolist()
            ys = (rng.normal() * np.asarray(xs) + rng.standard_normal(m)).tolist()
            mx, my = sum(xs) / m, sum(ys) / m
            cov = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
            vx = sum((a - mx) ** 2 for a in xs)
            vy = sum((b - my) ** 2 for b in ys)
            assert abs(pearson_corr(xs, ys) - cov / math.sqrt(vx * vy)) < 1e-12

        # degenerate-denominator conventions
        assert f1_binary([0, 0], [0, 0]) == 0.0
        assert matthews_corr([1, 1], [1, 1]) == 0.0
        with pytest.raises(sp.InputError):
            pearson_corr([1.0, 1.0], [0.0, 1.0])


def test_criterion_09_learning_smoke():
    with criterion(9, "stratified plan reaches 0.95 train / 0.90 val accuracy "
                      "in 10 epochs (3-seed median)", budget_s=600.0):
        runs = smoke_runs()
        trains = sorted(train_acc for _, _, train_acc in runs.values())
        vals = sorted(result.metric_value for _, result, _ in runs.values())
        assert statistics.median(trains) >= 0.95, trains
        assert statistics.median(vals) >= 0.90, vals


def test_criterion_10_adapter_swap():
    with criterion(10, "adapter swap restores the first task bit-exactly",
                   budget_s=900.0):
        cfg = ModelConfig(num_layers=2, hidden_size=16, num_heads=2, ffn_size=32,
                          vocab_size=40, max_positions=16, lora_rank=4,
                          lora_alpha=8, dropout_p=0.1)
        task_a = TaskSpec(kind="pair_classification", vocab_size=40, seq_len=9,
                          train_size=320, val_size=96, seed=100)
        task_b = TaskSpec(kind="pair_classification", vocab_size=40, seq_len=9,
                          train_size=320, val_size=96, seed=200)
        train_a, val_a = generate_task(task_a)
        train_b, val_b = generate_task(task_b)

        store = build_model(cfg, seed=2)
        plan = compile_plan(parse_plan_spec("spafit:N1=0,N2=1,mode=II"), cfg)
        attach_lora(store, plan, seed=2)
        train_cfg = TrainConfig(learning_rate=2e-3, batch_size=16, epochs=3, seed=0)

        import tempfile
        from pathlib import Path
        with tempfile.TemporaryDirectory() as tmp:
            result_a = train_run(store, plan, task_a, train_a, val_a, train_cfg)
            a_file = Path(tmp) / "a.adapter"
            export_adapter(store, plan, a_file)
            a_trainables = {k: v.data.copy()
                            for k, v in store.trainable_parameters().items()}

            result_b = train_run(store, plan, task_b, train_b, val_b, train_cfg)
            b_file = Path(tmp) / "b.adapter"
            export_adapter(store, plan, b_file)

            swap_adapter(store, a_file)
            for name, tensor in store.trainable_parameters().items():
                assert np.array_equal(tensor.data, a_trainables[name]), name
            restored = evaluate(store, task_a, val_a)[1]
            assert restored == result_a.metric_value

            swap_adapter(store, b_file)
            assert evaluate(store, task_b, val_b)[1] == result_b.metric_value


def test_criterion_11_determinism():
    with criterion(11, "repeating the learning smoke bit-identically",
                   budget_s=600.0):
        for seed, (first_store, first_result, first_train) in smoke_runs().items():
            second_store, second_result, second_train = run_smoke(seed)
            assert second_result.metric_value == first_result.metric_value
            assert second_result.epoch_losses == first_result.epoch_losses
            assert second_train == first_train
            for path in first_store.params:
                assert np.array_equal(second_store.params[path].data,
                                      first_store.params[path].data), path
            for target in first_store.lora:
                assert np.array_equal(second_store.lora[target].down.data,
                                      first_store.lora[target].down.data)
                assert np.array_equal(second_store.lora[target].up.data,
                                      first_store.lora[target].up.data)

"""AdamW: the hand-derived scalar step, freeze invariance, selectivity."""

import numpy as np
import pytest

import spafit.tensor as T
from spafit.errors import OptimizerError
from spafit.model import ModelConfig, build_model, model_forward
from spafit.optim import AdamW, TrainConfig
from spafit.plan import ParamStatus, attach_lora, compile_plan, parse_plan_spec
from spafit.tensor import Tensor

CFG = ModelConfig(num_layers=4, hidden_size=8, num_heads=2, ffn_size=16,
                  vocab_size=30, max_positions=16, lora_rank=2, lora_alpha=4)


def hand_adamw_step(w, g, lr, b1, b2, eps, wd, m=0.0, v=0.0, t=1):
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    return w - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * w), m, v


class TestScalarStep:
    def test_hand_derived_first_step(self):
        w = Tensor([1.0], requires_grad=True)
        w.grad = np.array([0.5])
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.01,
                          betas=(0.9, 0.999), eps=1e-8, seed=0)
        AdamW({"w": w}, cfg).step()
        expected, _, _ = hand_adamw_step(1.0, 0.5, 0.1, 0.9, 0.999, 1e-8, 0.01)
        assert abs(expected - 0.899000002) < 1e-9
        assert abs(float(w.data[0]) - 0.899000002) < 1e-12

    def test_multi_step_matches_hand_recurrence(self):
        w = Tensor([0.7], requires_grad=True)
        cfg = TrainConfig(learning_rate=0.05, weight_decay=0.02, seed=0)
        opt = AdamW({"w": w}, cfg)
        expected, m, v = 0.7, 0.0, 0.0
        rng = np.random.default_rng(0)
        for t in range(1, 6):
            g = float(rng.standard_normal())
            w.grad = np.array([g])
            opt.step()
            expected, m, v = hand_adamw_step(expected, g, 0.05, 0.9, 0.999,
                                             1e-8, 0.02, m, v, t)
            assert abs(float(w.data[0]) - expected) < 1e-12

    def test_zero_grad_zero_decay_is_identity(self):
        w = Tensor([1.234], requires_grad=True)
        w.grad = np.zeros(1)
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.0, seed=0)
        AdamW({"w": w}, cfg).step()
        assert float(w.data[0]) == 1.234

    def test_missing_gradient_rejected(self):
        w = Tensor([1.0], requires_grad=True)
        opt = AdamW({"w": w}, TrainConfig(seed=0))
        with pytest.raises(OptimizerError, match="'w'"):
            opt.step()


def one_training_step(store, opt, rng):
    tokens = rng.integers(0, CFG.vocab_size, size=(4, 10))
    types = rng.integers(0, 2, size=(4, 10))
    labels = rng.integers(0, 2, size=4)
    loss = T.cross_entropy(model_forward(store, tokens, types, "train", rng), labels)
    opt.zero_grad()
    loss.backward()
    opt.step()


class TestFreezeInvariance:
    def test_frozen_parameters_bit_identical_after_training(self):
        store = build_model(CFG, seed=0)
        plan = compile_plan(parse_plan_spec("spafit:N1=2,N2=3,mode=II"), CFG)
        attach_lora(store, plan, seed=1)
        snapshot = {p: t.data.copy() for p, t in store.params.items()}
        opt = AdamW(store.trainable_parameters(),
                    TrainConfig(learning_rate=1e-3, seed=0))
        rng = np.random.default_rng(0)
        for _ in range(25):
            one_training_step(store, opt, rng)
        for path, status in plan.assignments.items():
            if status in (ParamStatus.FROZEN, ParamStatus.LORA_AUGMENTED):
                np.testing.assert_array_equal(store.params[path].data,
                                              snapshot[path], err_msg=path)

    def test_frozen_parameter_with_spurious_gradient_unchanged(self):
        store = build_model(CFG, seed=0)
        plan = compile_plan(parse_plan_spec("fullbitfit"), CFG)
        attach_lora(store, plan, seed=1)
        frozen = store.params["encoder.layer.0.attention.self.query.weight"]
        frozen.grad = np.ones_like(frozen.data)  # never legitimately produced
        before = frozen.data.copy()
        opt = AdamW(store.trainable_parameters(), TrainConfig(seed=0))
        for t in store.trainable_parameters().values():
            t.grad = np.zeros_like(t.data)
        opt.step()
        np.testing.assert_array_equal(frozen.data, before)


class TestSelectivity:
    def test_diffs_confined_to_plan_trainables(self):
        store = build_model(CFG, seed=0)
        plan = compile_plan(parse_plan_spec("spafit:N1=2,N2=3,mode=II"), CFG)
        attach_lora(store, plan, seed=1)
        snapshot = {p: t.data.copy() for p, t in store.params.items()}
        opt = AdamW(store.trainable_parameters(),
                    TrainConfig(learning_rate=5e-3, seed=0))
        rng = np.random.default_rng(0)
        for _ in range(40):
            one_training_step(store, opt, rng)
        moved = {p for p, t in store.params.items()
                 if not np.array_equal(t.data, snapshot[p])}
        allowed = {p for p, s in plan.assignments.items()
                   if s in (ParamStatus.TUNABLE, ParamStatus.BIAS_TUNABLE)}
        assert moved <= allowed
        assert moved  # something must actually have trained


class TestDeterminism:
    def test_same_seed_bit_identical_final_parameters(self):
        def run():
            store = build_model(CFG, seed=0)
            plan = compile_plan(parse_plan_spec("spafit:N1=1,N2=2,mode=I"), CFG)
            attach_lora(store, plan, seed=1)
            opt = AdamW(store.trainable_parameters(),
                        TrainConfig(learning_rate=1e-3, seed=0))
            rng = np.random.default_rng(7)
            for _ in range(10):
                one_training_step(store, opt, rng)
            return store

        a, b = run(), run()
        for path in a.paths():
            np.testing.assert_array_equal(a.params[path].data, b.params[path].data)
        for target in a.lora:
            np.testing.assert_array_equal(a.lora[target].up.data, b.lora[target].up.data)

"""AdamW: the hand-derived scalar step, the per-tensor oracle, bucket views,
freeze invariance, selectivity."""

import numpy as np
import pytest

import spafit.optim as optim
import spafit.tensor as T
from spafit.errors import ConfigError, OptimizerError, TaskSpecError
from spafit.model import ModelConfig, build_model, model_forward
from spafit.optim import AdamW, TrainConfig
from spafit.plan import ParamStatus, attach_lora, compile_plan, parse_plan_spec
from spafit.tasks import TaskSpec
from spafit.tensor import Tensor

from test_plan import STANDARD_PLANS

CFG = ModelConfig(num_layers=4, hidden_size=8, num_heads=2, ffn_size=16,
                  vocab_size=30, max_positions=16, lora_rank=2, lora_alpha=4)
# The README demo dims.
DESK = ModelConfig(num_layers=4, hidden_size=32, num_heads=4, ffn_size=64,
                   vocab_size=40, max_positions=16, lora_rank=8, lora_alpha=16,
                   dropout_p=0.1)


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
        opt = AdamW({"w": w}, TrainConfig(learning_rate=6e-5, seed=0))
        with pytest.raises(OptimizerError, match="'w'"):
            opt.step()


def reference_step(params, first, second, cfg, t):
    """The per-tensor AdamW loop: the oracle the bucketed step must match
    bit for bit. ``first``/``second`` map each name to its moment array."""
    b1, b2 = cfg.betas
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name, param in params.items():
        g = param.grad
        m = first[name]
        v = second[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + cfg.eps)
        param.data = param.data - cfg.learning_rate * (
            update + cfg.weight_decay * param.data)


class ReferenceAdamW:
    def __init__(self, params, cfg):
        self.params, self.cfg, self.step_count = dict(params), cfg, 0
        self.first = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.second = {name: np.zeros_like(t.data) for name, t in self.params.items()}

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def step(self):
        self.step_count += 1
        reference_step(self.params, self.first, self.second, self.cfg, self.step_count)


def train_desk(spec, optimizer_cls, steps=16, in_backward=False):
    """``steps`` seeded desk-size train-mode steps (dropout 0.1) under
    ``spec``: ``loss.backward()`` then ``step()``, or with ``in_backward``
    one ``backward_step(loss)``."""
    store = build_model(DESK, seed=0)
    attach_lora(store, compile_plan(parse_plan_spec(spec), DESK), seed=1)
    opt = optimizer_cls(store.trainable_parameters(), TrainConfig(learning_rate=2e-3, seed=0))
    rng = np.random.default_rng(3)
    losses = []
    for _ in range(steps):
        tokens = rng.integers(0, DESK.vocab_size, size=(16, 11))
        types = rng.integers(0, 2, size=(16, 11))
        labels = rng.integers(0, 2, size=16)
        loss = T.cross_entropy(model_forward(store, tokens, types, "train", rng), labels)
        opt.zero_grad()
        if in_backward:
            opt.backward_step(loss)
        else:
            loss.backward()
            opt.step()
        losses.append(float(loss.data))
    return store, opt, losses


# Block sizes: at the desk dims 32 gives every tensor a bucket of its own,
# many several blocks long; 700 gives buckets of several tensors beside
# tensors of several blocks, the last one shorter; 10**9 gives one bucket.
BLOCKS = [32, 700, 1 << 15, 10 ** 9]


def assert_bucket_layout(opt, block):
    """Every bucket of several tensors fits in one block, and ``block``
    lays out the desk buckets as ``BLOCKS`` says."""
    buckets = [(len(members), p.size) for members, p, _, _ in opt._buckets]
    assert all(n <= block for count, n in buckets if count > 1)
    assert all(s.size == min(max(n for _, n in buckets), block) for s in opt._scratch)
    if block == 32:
        assert len(buckets) == len(opt.params)
        assert any(n > block for _, n in buckets)
    if block == 700:
        assert any(count > 1 for count, _ in buckets)
        assert any(n > block and n % block for _, n in buckets)
    if block == 10 ** 9:
        assert len(buckets) == 1


class TestBucketedStep:
    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("spec", STANDARD_PLANS)
    def test_bit_identical_to_per_tensor_loop(self, monkeypatch, spec, block):
        monkeypatch.setattr(optim, "_BLOCK", block)
        opt = self._assert_matches_reference(spec)
        assert_bucket_layout(opt, block)

    @staticmethod
    def _assert_matches_reference(spec):
        ref_store, ref_opt, ref_losses = train_desk(spec, ReferenceAdamW)
        store, opt, losses = train_desk(spec, AdamW)
        assert losses == ref_losses
        for path, t in ref_store.params.items():
            assert np.array_equal(store.params[path].data, t.data), path
        for target, pair in ref_store.lora.items():
            assert np.array_equal(store.lora[target].down.data, pair.down.data), target
            assert np.array_equal(store.lora[target].up.data, pair.up.data), target
        for name in ref_opt.params:
            assert np.array_equal(opt.first[name], ref_opt.first[name]), name
            assert np.array_equal(opt.second[name], ref_opt.second[name]), name
        return opt

    @staticmethod
    def _pair():
        rng = np.random.default_rng(0)
        return {"a": Tensor(rng.standard_normal((3, 2)), requires_grad=True),
                "b": Tensor(rng.standard_normal(4), requires_grad=True)}

    @staticmethod
    def _grads(params, rng):
        for t in params.values():
            t.grad = rng.standard_normal(t.data.shape)

    def test_rebind_between_steps_raises(self):
        params = self._pair()
        opt = AdamW(params, TrainConfig(learning_rate=1e-2, seed=0))
        rng = np.random.default_rng(1)
        self._grads(params, rng)
        opt.step()
        params["b"].data = params["b"].data.copy()
        self._grads(params, rng)
        with pytest.raises(OptimizerError, match="'b'"):
            opt.step()

    def test_in_place_write_keeps_training(self):
        params, ref_params = self._pair(), self._pair()
        cfg = TrainConfig(learning_rate=1e-2, seed=0)
        opt, ref = AdamW(params, cfg), ReferenceAdamW(ref_params, cfg)
        for step in range(3):
            for ps in (params, ref_params):
                ps["a"].data[...] = 5.0 + step  # what swap_adapter does
            for ps, o in ((params, opt), (ref_params, ref)):
                self._grads(ps, np.random.default_rng(step))
                o.step()
            assert not np.any(params["a"].data == 5.0 + step)
            for name in params:
                assert np.array_equal(params[name].data, ref_params[name].data), name

    def test_same_tensor_registered_twice_rejected(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(OptimizerError, match="'a' and 'b'"):
            AdamW({"a": t, "b": t}, TrainConfig(learning_rate=6e-5, seed=0))

    def test_learning_rate_required(self):
        cfg = TrainConfig(learning_rate=None, seed=0)
        with pytest.raises(ConfigError, match="learning rate"):
            AdamW({"w": Tensor(np.ones(1), requires_grad=True)}, cfg)


class TestBackwardStep:
    """``backward_step(loss)`` updates each bucket inside the backward pass;
    values are those of ``loss.backward()`` then ``step()``."""

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("spec", STANDARD_PLANS)
    def test_bit_identical_to_backward_then_step(self, monkeypatch, spec, block):
        monkeypatch.setattr(optim, "_BLOCK", block)
        ref_store, ref_opt, ref_losses = train_desk(spec, AdamW)
        store, opt, losses = train_desk(spec, AdamW, in_backward=True)
        assert losses == ref_losses
        assert opt.step_count == ref_opt.step_count == 16
        for path, t in ref_store.params.items():
            assert np.array_equal(store.params[path].data, t.data), path
        for target, pair in ref_store.lora.items():
            assert np.array_equal(store.lora[target].down.data, pair.down.data), target
            assert np.array_equal(store.lora[target].up.data, pair.up.data), target
        for name in ref_opt.params:
            assert np.array_equal(opt.first[name], ref_opt.first[name]), name
            assert np.array_equal(opt.second[name], ref_opt.second[name]), name
        assert all(t.grad is None for t in opt.params.values())
        assert_bucket_layout(opt, block)

    @pytest.mark.parametrize("spec", ["fullft", "spafit:N1=1,N2=3,mode=II"])
    def test_buckets_move_inside_backward_and_drop_their_gradients(self, monkeypatch, spec):
        """With a bucket per tensor, every bucket is updated before the pass
        ends and the step after it updates none; no update ever sees every
        gradient held at once."""
        monkeypatch.setattr(optim, "_BLOCK", 32)
        store, loss = self._desk_step_inputs(spec)
        opt = AdamW(store.trainable_parameters(), TrainConfig(learning_rate=2e-3, seed=0))
        held, left_at_step = [], []
        update, step = AdamW._update, AdamW.step

        def watched_update(self, i):
            held.append(sum(t.grad is not None for t in self.params.values()))
            update(self, i)

        def watched_step(self):
            left_at_step.append(list(self._left))
            step(self)

        monkeypatch.setattr(AdamW, "_update", watched_update)
        monkeypatch.setattr(AdamW, "step", watched_step)
        opt.backward_step(loss)
        assert len(held) == len(opt._buckets) == len(opt.params)
        assert max(held) < len(opt.params)
        assert left_at_step == [[0] * len(opt._buckets)]
        assert all(t.grad is None and t._node._on_grad is None
                   for t in opt.params.values())

    @staticmethod
    def _desk_step_inputs(spec="fulllora-II"):
        """A desk-size store under ``spec`` and one seeded train-mode loss."""
        store = build_model(DESK, seed=0)
        attach_lora(store, compile_plan(parse_plan_spec(spec), DESK), seed=1)
        rng = np.random.default_rng(3)
        loss = T.cross_entropy(model_forward(store, rng.integers(0, 40, size=(16, 11)),
                                             rng.integers(0, 2, size=(16, 11)), "train", rng),
                               rng.integers(0, 2, size=16))
        return store, loss

    @staticmethod
    def _assert_nothing_moved(opt, before):
        assert opt.step_count == 0 and opt._left is None
        for name, t in opt.params.items():
            assert np.array_equal(t.data, before[name]), name
            assert not opt.first[name].any() and not opt.second[name].any(), name
            assert t._node._on_grad is None, name

    @pytest.mark.parametrize("block", [32, 1 << 15])
    def test_parameter_the_loss_does_not_reach_rejected_before_anything_moves(
            self, monkeypatch, block):
        monkeypatch.setattr(optim, "_BLOCK", block)
        store, loss = self._desk_step_inputs()
        params = dict(store.trainable_parameters(),
                      stray=Tensor(np.ones(3), requires_grad=True))
        opt = AdamW(params, TrainConfig(learning_rate=2e-3, seed=0))
        before = {name: t.data.copy() for name, t in params.items()}
        with pytest.raises(OptimizerError, match="does not reach .*'stray'"):
            opt.backward_step(loss)
        self._assert_nothing_moved(opt, before)

    def test_rebound_parameter_rejected_before_anything_moves(self):
        store, loss = self._desk_step_inputs()
        params = store.trainable_parameters()
        opt = AdamW(params, TrainConfig(learning_rate=2e-3, seed=0))
        name = next(reversed(params))
        params[name].data = params[name].data.copy()
        before = {n: t.data.copy() for n, t in params.items()}
        with pytest.raises(OptimizerError, match=f"{name!r} was rebound"):
            opt.backward_step(loss)
        self._assert_nothing_moved(opt, before)

    def test_loss_without_a_graph_rejected_before_anything_moves(self):
        w = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW({"w": w}, TrainConfig(learning_rate=2e-3, seed=0))
        with T.no_grad():
            loss = T.tensor_sum(T.scale(w, 2.0))
        with pytest.raises(OptimizerError, match="does not reach .*'w'"):
            opt.backward_step(loss)
        self._assert_nothing_moved(opt, {"w": np.ones(2)})


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
        opt = AdamW(store.trainable_parameters(), TrainConfig(learning_rate=6e-5, seed=0))
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
        for path in a.params:
            np.testing.assert_array_equal(a.params[path].data, b.params[path].data)
        for target in a.lora:
            np.testing.assert_array_equal(a.lora[target].up.data, b.lora[target].up.data)


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", 0.0), ("weight_decay", float("nan")),
        ("weight_decay", float("inf")), ("weight_decay", -0.1),
        ("eps", float("nan")), ("eps", 0.0), ("eps", -1.0), ("eps", float("inf")),
    ])
    def test_non_finite_or_out_of_range_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 2.5), ("batch_size", True), ("epochs", 1.5), ("epochs", "2"),
        ("epochs", False), ("seed", 0.0), ("seed", True),
    ])
    def test_non_integer_count_or_seed_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", True), ("learning_rate", "0.1"),
        pytest.param("learning_rate", 10 ** 400, id="learning_rate-past-float-range"),
        ("eps", "1e-8"), ("eps", False), ("weight_decay", None),
        ("betas", (0.9, 0.9, 0.9)), ("betas", (0.9,)), ("betas", 0.9), ("betas", ("0.9", 0.9)),
    ])
    def test_non_real_value_or_unpaired_betas_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("build, error", [
        (lambda: ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                             vocab_size=30, max_positions=16, dropout_p="0.1"), ConfigError),
        (lambda: ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                             vocab_size=30, max_positions=16, dropout_p=False), ConfigError),
        (lambda: TaskSpec(kind="pair_classification", vocab_size=40, seq_len=9,
                          train_size=8, val_size=8, seed=0, noise_std="0.1"), TaskSpecError),
    ], ids=["dropout_p-str", "dropout_p-bool", "noise_std-str"])
    def test_non_real_model_or_task_field_rejected(self, build, error):
        with pytest.raises(error, match="real number"):
            build()

    def test_numpy_integers_accepted(self):
        cfg = TrainConfig(batch_size=np.int64(4), epochs=np.int32(2), seed=np.uint8(3))
        assert (cfg.batch_size, cfg.epochs, cfg.seed) == (4, 2, 3)

    def test_real_fields_stored_as_plain_floats(self):
        cfg = TrainConfig(learning_rate=np.float32(0.5), weight_decay=0, eps=np.float64(1e-8),
                          betas=[np.float32(0.5), 0])
        assert (cfg.learning_rate, cfg.weight_decay, cfg.eps, cfg.betas) \
            == (0.5, 0.0, 1e-8, (0.5, 0.0))
        assert all(type(v) is float for v in (cfg.learning_rate, cfg.weight_decay, cfg.eps,
                                              *cfg.betas))

    def test_large_finite_learning_rate_accepted(self):
        assert TrainConfig(learning_rate=1e9).learning_rate == 1e9

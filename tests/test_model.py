"""Encoder model: parameter census, forward semantics, determinism."""

import contextlib
import dataclasses
import sys

import numpy as np
import pytest

import spafit.tensor as T
from spafit.errors import InputError, ShapeError, SpafitError
from spafit.model import (
    ModelConfig,
    _linear,
    build_model,
    encoder_layer_forward,
    model_forward,
    param_shapes,
    total_parameter_count,
)
from spafit.optim import TrainConfig
from spafit.plan import attach_lora, compile_plan, parse_plan_spec
from spafit.tensor import LAYER_NORM_EPS, Tensor

from test_plan import STANDARD_PLANS

BERT_LARGE = ModelConfig(num_layers=24, hidden_size=1024, num_heads=16,
                         ffn_size=4096, vocab_size=28996, max_positions=512,
                         type_vocab_size=2, lora_rank=64, lora_alpha=128)

TOY = ModelConfig(num_layers=4, hidden_size=8, num_heads=2, ffn_size=16,
                  vocab_size=30, max_positions=16, lora_rank=2, lora_alpha=4)


def closed_form_layer_count(d: int, f: int) -> int:
    # 3 qkv projections, attention output dense, 2 LayerNorms, 2 ffn denses
    return 3 * (d * d + d) + (d * d + d) + 2 * d + (f * d + f) + (d * f + d) + 2 * d


def closed_form_embedding_count(cfg: ModelConfig) -> int:
    d = cfg.hidden_size
    return (cfg.vocab_size + cfg.max_positions + cfg.type_vocab_size) * d + 2 * d


class TestParameterCensus:
    def test_reference_dims_total_excluding_task_head(self):
        assert total_parameter_count(BERT_LARGE) == 333_579_264

    def test_reference_dims_breakdown(self):
        d = 1024
        assert closed_form_embedding_count(BERT_LARGE) == 30_220_288
        assert closed_form_layer_count(1024, 4096) == 12_596_224
        pooler = d * d + d
        assert 30_220_288 + 24 * 12_596_224 + pooler == 333_579_264

    def test_toy_per_layer_count(self):
        per_layer = closed_form_layer_count(8, 16)
        assert per_layer == 600
        shapes = param_shapes(TOY)
        enumerated = sum(int(np.prod(s)) for p, s in shapes.items()
                         if p.startswith("encoder.layer.0."))
        assert enumerated == per_layer

    def test_store_census_matches_shape_enumeration(self):
        store = build_model(TOY, seed=0)
        shapes = param_shapes(TOY)
        assert set(store.paths()) == set(shapes)
        for path, t in store.params.items():
            assert t.data.shape == shapes[path]
        total = closed_form_embedding_count(TOY) \
            + TOY.num_layers * closed_form_layer_count(8, 16) \
            + (8 * 8 + 8)
        assert total_parameter_count(TOY) == total

    def test_expected_layer_paths_present(self):
        shapes = param_shapes(TOY)
        for sub in ("attention.self.query.weight", "attention.self.key.bias",
                    "attention.output.dense.weight", "attention.output.LayerNorm.bias",
                    "intermediate.dense.weight", "output.dense.weight",
                    "output.LayerNorm.weight"):
            assert f"encoder.layer.2.{sub}" in shapes
        assert shapes["encoder.layer.0.intermediate.dense.weight"] == (16, 8)
        assert shapes["encoder.layer.0.output.dense.weight"] == (8, 16)


class TestBuildModel:
    def test_same_seed_bit_identical(self):
        a = build_model(TOY, seed=11)
        b = build_model(TOY, seed=11)
        for path in a.paths():
            np.testing.assert_array_equal(a.params[path].data, b.params[path].data)

    def test_different_seed_differs(self):
        a = build_model(TOY, seed=11)
        b = build_model(TOY, seed=12)
        assert not np.array_equal(a.params["pooler.dense.weight"].data,
                                  b.params["pooler.dense.weight"].data)

    def test_init_conventions(self):
        store = build_model(TOY, seed=0)
        np.testing.assert_array_equal(
            store.params["embeddings.LayerNorm.weight"].data, np.ones(8))
        np.testing.assert_array_equal(
            store.params["encoder.layer.1.output.dense.bias"].data, np.zeros(8))
        w = store.params["encoder.layer.0.attention.self.query.weight"].data
        assert np.abs(w).max() <= 2 * 0.02 + 1e-12
        assert 0.01 < w.std() < 0.03

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(num_layers=1, hidden_size=10, num_heads=3, ffn_size=16,
                        vocab_size=10, max_positions=8)
        with pytest.raises(ValueError, match="lora_rank"):
            ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=4,
                        vocab_size=10, max_positions=8, lora_rank=6)

    def test_invalid_configs_raise_the_package_error(self):
        with pytest.raises(SpafitError, match="divisible"):
            ModelConfig(num_layers=1, hidden_size=30, num_heads=4, ffn_size=16,
                        vocab_size=10, max_positions=8)
        with pytest.raises(SpafitError, match="seed"):
            TrainConfig(seed=-1)


class TestEncoderLayer:
    def test_shape_preservation(self):
        store = build_model(TOY, seed=1)
        x = Tensor(np.random.default_rng(0).standard_normal((3, 5, 8)))
        out = encoder_layer_forward(store, 2, x, mode="eval")
        assert out.data.shape == (3, 5, 8)

    def test_wrong_feature_dim_rejected(self):
        store = build_model(TOY, seed=1)
        with pytest.raises(ShapeError):
            encoder_layer_forward(store, 0, Tensor(np.zeros((1, 4, 7))), mode="eval")

    def test_empty_sequence_rejected(self):
        store = build_model(TOY, seed=1)
        with pytest.raises(InputError, match="at least one position"):
            encoder_layer_forward(store, 0, Tensor(np.zeros((2, 0, 8))), mode="eval")

    @pytest.mark.parametrize("layer", [-1, 4, 5, 1.0, "0"])
    def test_layer_index_outside_the_stack_rejected(self, layer):
        store = build_model(TOY, seed=1)
        with pytest.raises(InputError, match="layer index"):
            encoder_layer_forward(store, layer, Tensor(np.zeros((2, 3, 8))), mode="eval")

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("shape", [(3, 4, 8), (2, 4, 6), (2, 2, 8), (2, 4)],
                             ids=["batch", "hidden", "positions", "rank"])
    def test_mismatched_context_rejected(self, mode, shape):
        store = build_model(TOY, seed=1)
        x = Tensor(np.zeros((2, 3, 8)))
        with pytest.raises(ShapeError, match="context"):
            encoder_layer_forward(store, 0, x, mode, np.random.default_rng(0),
                                  context=Tensor(np.zeros(shape)))

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_context_defaults_to_x(self, mode):
        store = build_model(TOY, seed=1)
        x = Tensor(np.random.default_rng(5).standard_normal((2, 4, 8)))
        a = encoder_layer_forward(store, 1, x, mode, np.random.default_rng(0)).data
        b = encoder_layer_forward(store, 1, x, mode, np.random.default_rng(0),
                                  context=x).data
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("num_layers", [0, 1, 2, 4])
    def test_model_forward_runs_every_layer_through_it(self, monkeypatch, mode,
                                                       num_layers):
        """Rebinding the name in every spafit module, as a tracer does, sees
        each layer once; the last call's ``x`` is position 0 alone and its
        ``context`` holds every position."""
        calls = []

        def recording(store, layer, x, *args, **kwargs):
            keys = kwargs.get("context", x)
            calls.append((layer, x.data.shape[1], keys.data.shape[1]))
            return encoder_layer_forward(store, layer, x, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("spafit") and module is not None:
                for attr, value in list(vars(module).items()):
                    if value is encoder_layer_forward:
                        monkeypatch.setattr(module, attr, recording)
        cfg = dataclasses.replace(TOY, num_layers=num_layers)
        tokens = np.random.default_rng(3).integers(0, cfg.vocab_size, size=(2, 5))
        model_forward(build_model(cfg, seed=0), tokens, np.zeros_like(tokens), mode,
                      np.random.default_rng(0))
        # (layer, positions of x, positions of context) per call
        want = [(layer, 5, 5) for layer in range(num_layers - 1)]
        assert calls == want + [(num_layers - 1, 1, 5)] * (num_layers > 0)

    def test_eval_mode_deterministic(self):
        store = build_model(TOY, seed=1)
        x = Tensor(np.random.default_rng(5).standard_normal((2, 4, 8)))
        a = encoder_layer_forward(store, 0, x, mode="eval").data
        b = encoder_layer_forward(store, 0, x, mode="eval").data
        np.testing.assert_array_equal(a, b)

    def test_hand_traced_single_head_forward(self):
        """Replicate the sub-layer chain in raw numpy and compare."""
        cfg = ModelConfig(num_layers=1, hidden_size=2, num_heads=1, ffn_size=3,
                          vocab_size=5, max_positions=4, lora_rank=1,
                          lora_alpha=1, dropout_p=0.0)
        store = build_model(cfg, seed=0)
        p = store.params
        prefix = "encoder.layer.0"
        wq = np.array([[1.0, 0.5], [0.0, 1.0]])
        wk = np.array([[0.5, 0.0], [1.0, 1.0]])
        wv = np.array([[1.0, 1.0], [0.0, 0.5]])
        bq, bk, bv = np.array([0.1, 0.0]), np.array([0.0, -0.1]), np.array([0.2, 0.0])
        w_attn_out = np.array([[1.0, 0.0], [0.5, 1.0]])
        b_attn_out = np.array([0.0, 0.1])
        gamma1, beta1 = np.array([1.0, 2.0]), np.array([0.1, -0.1])
        w_inter = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        b_inter = np.array([0.0, 0.1, -0.1])
        w_out = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]])
        b_out = np.array([0.05, -0.05])
        gamma2, beta2 = np.array([0.5, 1.5]), np.array([0.0, 0.2])
        assignments = {
            f"{prefix}.attention.self.query.weight": wq,
            f"{prefix}.attention.self.query.bias": bq,
            f"{prefix}.attention.self.key.weight": wk,
            f"{prefix}.attention.self.key.bias": bk,
            f"{prefix}.attention.self.value.weight": wv,
            f"{prefix}.attention.self.value.bias": bv,
            f"{prefix}.attention.output.dense.weight": w_attn_out,
            f"{prefix}.attention.output.dense.bias": b_attn_out,
            f"{prefix}.attention.output.LayerNorm.weight": gamma1,
            f"{prefix}.attention.output.LayerNorm.bias": beta1,
            f"{prefix}.intermediate.dense.weight": w_inter,
            f"{prefix}.intermediate.dense.bias": b_inter,
            f"{prefix}.output.dense.weight": w_out,
            f"{prefix}.output.dense.bias": b_out,
            f"{prefix}.output.LayerNorm.weight": gamma2,
            f"{prefix}.output.LayerNorm.bias": beta2,
        }
        for path, value in assignments.items():
            p[path].data = value.astype(np.float64)

        x = np.array([[[0.3, -0.2], [0.1, 0.4]]])

        # independent trace of the sub-layer chain (dropout off in eval mode)
        def ln(v, gamma, beta):
            mu = v.mean(axis=-1, keepdims=True)
            var = v.var(axis=-1, keepdims=True)
            return gamma * (v - mu) / np.sqrt(var + LAYER_NORM_EPS) + beta

        from scipy.special import erf
        q = x @ wq.T + bq
        k = x @ wk.T + bk
        v = x @ wv.T + bv
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        attn = probs @ v
        attn_out = attn @ w_attn_out.T + b_attn_out
        h_attn = ln(attn_out + x, gamma1, beta1)
        hidden = h_attn @ w_inter.T + b_inter
        hidden = hidden * 0.5 * (1.0 + erf(hidden / np.sqrt(2.0)))
        out = hidden @ w_out.T + b_out
        expected = ln(out + h_attn, gamma2, beta2)

        got = encoder_layer_forward(store, 0, Tensor(x), mode="eval").data
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


class TestModelForward:
    def _inputs(self, batch=3, seq=10, vocab=30, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, vocab, size=(batch, seq)), np.zeros((batch, seq), np.int64)

    def test_classification_logit_shape(self):
        store = build_model(TOY, seed=2)
        tokens, types = self._inputs()
        out = model_forward(store, tokens, types, mode="eval")
        assert out.data.shape == (3, 2)

    def test_regression_head_shape(self):
        cfg = ModelConfig(num_layers=2, hidden_size=8, num_heads=2, ffn_size=16,
                          vocab_size=30, max_positions=16, num_labels=1,
                          lora_rank=2, lora_alpha=4)
        store = build_model(cfg, seed=2)
        tokens, types = self._inputs()
        assert model_forward(store, tokens, types, mode="eval").data.shape == (3, 1)

    def test_zero_layer_stack_pools_embeddings(self):
        cfg = ModelConfig(num_layers=0, hidden_size=8, num_heads=2, ffn_size=16,
                          vocab_size=30, max_positions=16, lora_rank=2, lora_alpha=4)
        store = build_model(cfg, seed=2)
        tokens, types = self._inputs()
        assert model_forward(store, tokens, types, mode="eval").data.shape == (3, 2)

    def test_out_of_range_token_rejected(self):
        store = build_model(TOY, seed=2)
        tokens = np.full((1, 4), 30)
        with pytest.raises(InputError, match="token id"):
            model_forward(store, tokens, np.zeros((1, 4), np.int64), mode="eval")

    @pytest.mark.parametrize("tokens,types", [
        (np.zeros((0, 4), np.int64), np.zeros((0, 4), np.int64)),
        (np.zeros((2, 0), np.int64), np.zeros((2, 0), np.int64)),
        (np.zeros((2, 4)), np.zeros((2, 4), np.int64)),
        (np.zeros((2, 4), np.int64), np.zeros((2, 4))),
    ], ids=["empty-batch", "empty-seq", "float-tokens", "float-types"])
    def test_unusable_ids_rejected(self, tokens, types):
        with pytest.raises(InputError):
            model_forward(build_model(TOY, seed=2), tokens, types, mode="eval")

    def test_too_long_sequence_rejected(self):
        store = build_model(TOY, seed=2)
        tokens, types = self._inputs(seq=17)
        with pytest.raises(InputError, match="max_positions"):
            model_forward(store, tokens, types, mode="eval")

    def test_eval_purity(self):
        store = build_model(TOY, seed=2)
        tokens, types = self._inputs()
        a = model_forward(store, tokens, types, mode="eval").data
        b = model_forward(store, tokens, types, mode="eval").data
        np.testing.assert_array_equal(a, b)

    def test_train_mode_dropout_changes_output(self):
        store = build_model(TOY, seed=2)
        tokens, types = self._inputs()
        eval_out = model_forward(store, tokens, types, mode="eval").data
        train_out = model_forward(store, tokens, types, mode="train",
                                  rng=np.random.default_rng(0)).data
        assert not np.array_equal(eval_out, train_out)

    def test_gradient_reaches_every_parameter(self):
        """Under full training, each parameter gets a nonzero grad for
        at least one of three seeded batches."""
        store = build_model(TOY, seed=3)
        touched = {p: False for p in store.paths()}
        for seed in range(3):
            rng = np.random.default_rng(seed)
            tokens = rng.integers(0, 30, size=(4, 10))
            types = rng.integers(0, 2, size=(4, 10))
            logits = model_forward(store, tokens, types, mode="eval")
            loss = T.cross_entropy(logits, rng.integers(0, 2, size=4))
            loss.backward()
            for path, t in store.params.items():
                if t.grad is not None and np.abs(t.grad).max() > 0:
                    touched[path] = True
                t.grad = None
        untouched = [p for p, ok in touched.items() if not ok]
        assert not untouched, f"no gradient ever reached: {untouched}"


DESK = ModelConfig(num_layers=4, hidden_size=32, num_heads=4, ffn_size=64,
                   vocab_size=40, max_positions=16, lora_rank=8, lora_alpha=16)


def full_width_forward(store, tokens: np.ndarray, types: np.ndarray, mode: str = "eval",
                       rng: np.random.Generator | None = None) -> Tensor:
    """The forward with every layer at every position: embeddings and their
    dropout, ``encoder_layer_forward`` per layer, ``first_token``, pooler and
    head."""
    batch, seq = tokens.shape
    p = store.params
    x = T.layer_norm(T.embedding(p["embeddings.word_embeddings.weight"], tokens)
                     + T.embedding(p["embeddings.position_embeddings.weight"],
                                   np.broadcast_to(np.arange(seq), (batch, seq)))
                     + T.embedding(p["embeddings.token_type_embeddings.weight"], types),
                     p["embeddings.LayerNorm.weight"], p["embeddings.LayerNorm.bias"])
    x = T.dropout(x, store.config.dropout_p, mode, rng)
    for layer in range(store.config.num_layers):
        x = encoder_layer_forward(store, layer, x, mode, rng)
    pooled = T.tanh(_linear(store, "pooler.dense", T.first_token(x)))
    return _linear(store, "classifier", pooled)


def moved_store(spec: str, cfg: ModelConfig = DESK):
    """A store under ``spec`` with every tensor, LoRA factors included, moved
    off its init so each path shows in the logits."""
    store = attach_lora(build_model(cfg, seed=0), compile_plan(parse_plan_spec(spec), cfg),
                        seed=0)
    rng = np.random.default_rng(5)
    for t in (store.params | store.factors()).values():
        t.data += 0.05 * rng.standard_normal(t.data.shape)
    return store


class TestPooledEvalForward:
    """In eval mode the last layer computes position 0 alone. Fewer rows per
    GEMM may round differently, so the logits match the full-width forward
    within 1e-12, not bit for bit."""

    @pytest.mark.parametrize("graph", [True, False], ids=["graph", "no_grad"])
    @pytest.mark.parametrize("spec", STANDARD_PLANS)
    def test_logits_match_full_width_forward(self, spec, graph):
        store = moved_store(spec)
        rng = np.random.default_rng(1)
        for batch in (1, 2, 16, 64):
            for seq in (1, 5, 11):
                tokens = rng.integers(0, DESK.vocab_size, size=(batch, seq))
                types = rng.integers(0, DESK.type_vocab_size, size=(batch, seq))
                with T.no_grad() if not graph else contextlib.nullcontext():
                    got = model_forward(store, tokens, types, mode="eval").data
                want = full_width_forward(store, tokens, types).data
                assert got.shape == want.shape == (batch, DESK.num_labels)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                           err_msg=f"batch {batch}, seq {seq}")
                np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_last_layer_row_ops_see_one_position_in_eval_only(self, monkeypatch, mode):
        """Embedding LayerNorm, then two LayerNorms and one GELU per layer;
        the last layer's LayerNorms and GELU see position 0 alone, in train
        mode as in eval (the name predates the train-mode cut)."""
        seen = {"layer_norm": [], "gelu": []}
        for name, log in seen.items():
            def recording(x, *args, op=getattr(T, name), log=log):
                log.append(x.data.shape[1])
                return op(x, *args)
            monkeypatch.setattr(T, name, recording)
        rng = np.random.default_rng(2)
        tokens = rng.integers(0, DESK.vocab_size, size=(3, 7))
        model_forward(build_model(DESK, seed=0), tokens, np.zeros_like(tokens), mode=mode,
                      rng=np.random.default_rng(0))
        assert seen["layer_norm"] == [7] * 7 + [1] * 2
        assert seen["gelu"] == [7] * 3 + [1]


class TestPooledTrainForward:
    """In train mode too the last layer computes position 0 alone, and each
    of its dropouts draws at full width and keeps position 0. So the loss,
    every trainable gradient and the generator's state match a full-width
    train forward; the loss and gradients within roundoff, since fewer GEMM
    rows may round differently."""

    @staticmethod
    def loss_and_grads(store, forward, loss_fn):
        """Loss value, trainable gradients and the generator state after one
        seeded train-mode forward and backward; the gradients are cleared."""
        rng = np.random.default_rng(7)
        loss = loss_fn(forward(rng))
        loss.backward()
        grads = {}
        for name, t in store.trainable_parameters().items():
            grads[name], t.grad = t.grad, None
        return float(loss.data), grads, rng.bit_generator.state

    def assert_matches_full_width(self, store, tokens, types, loss_fn):
        got = self.loss_and_grads(
            store, lambda rng: model_forward(store, tokens, types, mode="train", rng=rng),
            loss_fn)
        want = self.loss_and_grads(
            store, lambda rng: full_width_forward(store, tokens, types, "train", rng), loss_fn)
        assert got[2] == want[2]
        assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0])
        assert got[1].keys() == want[1].keys()
        norm = np.sqrt(sum(float((g * g).sum()) for g in want[1].values() if g is not None))
        assert norm > 0
        for name, g in want[1].items():
            if g is None:
                assert got[1][name] is None, name
            else:
                np.testing.assert_allclose(got[1][name], g, rtol=0, atol=1e-12 * norm,
                                           err_msg=name)

    @pytest.mark.parametrize("spec", STANDARD_PLANS)
    def test_loss_gradients_and_generator_match_full_width_forward(self, spec):
        store = moved_store(spec)
        rng = np.random.default_rng(3)
        for batch in (1, 2, 16):
            for seq in (1, 5, 11):
                tokens = rng.integers(0, DESK.vocab_size, size=(batch, seq))
                types = rng.integers(0, DESK.type_vocab_size, size=(batch, seq))
                labels = rng.integers(0, DESK.num_labels, size=batch)
                self.assert_matches_full_width(
                    store, tokens, types, lambda logits: T.cross_entropy(logits, labels))

    def test_regression_loss_matches_full_width_forward(self):
        store = moved_store("spafit:N1=1,N2=3,mode=II",
                            dataclasses.replace(DESK, num_labels=1))
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, DESK.vocab_size, size=(16, 11))
        types = rng.integers(0, DESK.type_vocab_size, size=(16, 11))
        scores = rng.uniform(0.0, 5.0, size=(16, 1))
        self.assert_matches_full_width(store, tokens, types,
                                       lambda logits: T.mse_loss(logits, scores))


def reachable(loss: Tensor) -> list[Tensor]:
    """Every tensor reachable from ``loss`` through ``_parents``."""
    seen, stack, out = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(node._parents)
    return out


class TestTrainingGraph:
    @pytest.mark.parametrize("spec,closures", [
        ("fullft", 73),
        ("fullbitfit", 66),
        ("fulllora-II", 66),
        ("spafit:N1=1,N2=2,mode=II", 51),
    ])
    def test_backward_closure_count(self, desk_loss, spec, closures):
        """Pins the graph size of one desk-size training loss (the primitive
        matmul/transpose/add/scale linear layers built 172/138/231/153, and
        the 13-node primitive attention chain 120/113/113/86); the one past
        72/65/65/50 cuts the last layer's query stream to position 0)."""
        _, loss = desk_loss(spec)
        assert sum(n._backward_fn is not None for n in reachable(loss)) == closures

    def test_frozen_subgraphs_keep_no_graph(self, desk_loss):
        _, loss = desk_loss("spafit:N1=1,N2=2,mode=II")
        for node in reachable(loss):
            if not node.requires_grad:
                assert node._parents == () and node._backward_fn is None, node

    def test_linear_layers_are_one_fused_op(self, monkeypatch):
        store = attach_lora(build_model(TOY, seed=0),
                            compile_plan(parse_plan_spec("fulllora-I"), TOY), seed=0)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 8)))
        prefixes = ("pooler.dense", "encoder.layer.0.attention.self.query")
        expected = [x.data @ store.params[f"{p}.weight"].data.T for p in prefixes]
        for name in ("matmul", "transpose", "add", "scale"):
            monkeypatch.setattr(T, name, None)
        for prefix, want in zip(prefixes, expected):  # fresh biases and B are zero
            np.testing.assert_allclose(_linear(store, prefix, x).data, want, atol=1e-15)

    def test_attention_is_one_fused_op(self, monkeypatch):
        store = build_model(TOY, seed=0)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 8)), requires_grad=True)
        w = Tensor(np.random.default_rng(1).standard_normal((2, 3, 8)))
        query = store.params["encoder.layer.0.attention.self.query.weight"]
        for name in ("matmul", "transpose", "reshape", "softmax", "scale"):
            monkeypatch.setattr(T, name, None)
        out = encoder_layer_forward(store, 0, x, mode="eval")
        T.tensor_sum(T.mul(out, w)).backward()
        assert out.data.shape == (2, 3, 8)
        assert np.abs(x.grad).max() > 0 and np.abs(query.grad).max() > 0

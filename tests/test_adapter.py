"""Low-rank adapter lifecycle: attach, delta, merge, export, swap."""

import itertools

import numpy as np
import pytest

import spafit.plan as plan_module
import spafit.tensor as T
from spafit.checkpoint import read_container, save_checkpoint, write_container
from spafit.cli import main
from spafit.errors import CheckpointFormatError, CompatibilityError, PlanError
from spafit.model import LoraPair, ModelConfig, build_model, model_forward
from spafit.optim import AdamW, TrainConfig
from spafit.plan import (
    attach_lora,
    compile_plan,
    export_adapter,
    lora_delta,
    merge_lora,
    parse_plan_spec,
    swap_adapter,
)
from spafit.tensor import Tensor

CFG = ModelConfig(num_layers=2, hidden_size=8, num_heads=2, ffn_size=16,
                  vocab_size=30, max_positions=16, lora_rank=2, lora_alpha=4)


def random_batch(seed=0, batch=4, seq=10):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, CFG.vocab_size, size=(batch, seq)),
            rng.integers(0, 2, size=(batch, seq)))


def train_steps(store, steps: int, lr: float = 1e-3, seed: int = 0):
    cfg = TrainConfig(learning_rate=lr, seed=seed, epochs=1)
    opt = AdamW(store.trainable_parameters(), cfg)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        tokens = rng.integers(0, CFG.vocab_size, size=(4, 10))
        types = rng.integers(0, 2, size=(4, 10))
        labels = rng.integers(0, 2, size=4)
        logits = model_forward(store, tokens, types, mode="train", rng=rng)
        loss = T.cross_entropy(logits, labels)
        opt.zero_grad()
        loss.backward()
        opt.step()


class TestAttach:
    @pytest.mark.parametrize("text", [
        "fulllora-I", "fulllora-II", "spafit:N1=0,N2=1,mode=II",
        "spafit:N1=1,N2=1,mode=I", "fullbitfit", "fullft",
    ])
    def test_zero_init_transparency(self, text):
        store = build_model(CFG, seed=1)
        tokens, types = random_batch()
        base = model_forward(store, tokens, types, mode="eval").data.copy()
        plan = compile_plan(parse_plan_spec(text), CFG)
        attach_lora(store, plan, seed=99)
        after = model_forward(store, tokens, types, mode="eval").data
        np.testing.assert_array_equal(base, after)

    def test_scaling_factor(self):
        cfg = ModelConfig(num_layers=1, hidden_size=256, num_heads=4, ffn_size=256,
                          vocab_size=30, max_positions=8, lora_rank=64, lora_alpha=128)
        store = build_model(cfg, seed=0)
        plan = compile_plan(parse_plan_spec("fulllora-I"), cfg)
        attach_lora(store, plan, seed=0)
        pair = store.lora["encoder.layer.0.attention.self.query.weight"]
        assert pair.scaling == 2.0

    def test_factor_shapes_and_init(self):
        store = build_model(CFG, seed=1)
        plan = compile_plan(parse_plan_spec("fulllora-II"), CFG)
        attach_lora(store, plan, seed=3)
        pair = store.lora["encoder.layer.0.attention.output.dense.weight"]
        assert pair.down.data.shape == (2, 8)
        assert pair.up.data.shape == (8, 2)
        np.testing.assert_array_equal(pair.up.data, np.zeros((8, 2)))
        assert np.abs(pair.down.data).max() > 0

    def test_statuses_and_grad_flags_follow_plan(self):
        store = build_model(CFG, seed=1)
        plan = compile_plan(parse_plan_spec("spafit:N1=1,N2=1,mode=I"), CFG)
        attach_lora(store, plan, seed=3)
        assert "encoder.layer.0.attention.self.query.weight" not in store.lora
        assert not store.params["encoder.layer.0.attention.self.query.weight"].requires_grad
        assert "encoder.layer.1.attention.self.query.weight" in store.lora
        assert not store.params["encoder.layer.1.attention.self.query.weight"].requires_grad
        assert store.params["encoder.layer.1.intermediate.dense.bias"].requires_grad
        assert store.params["pooler.dense.weight"].requires_grad

    def test_config_mismatch_rejected(self):
        other = ModelConfig(num_layers=2, hidden_size=8, num_heads=2, ffn_size=16,
                            vocab_size=30, max_positions=16, lora_rank=4, lora_alpha=8)
        store = build_model(CFG, seed=1)
        plan = compile_plan(parse_plan_spec("fulllora-I"), other)
        with pytest.raises(PlanError):
            attach_lora(store, plan, seed=0)

    def test_store_missing_a_plan_path_rejected(self):
        store = build_model(CFG, seed=1)
        del store.params["encoder.layer.1.output.dense.bias"]
        with pytest.raises(PlanError, match="'encoder.layer.1.output.dense.bias' missing"):
            attach_lora(store, compile_plan(parse_plan_spec("fullbitfit"), CFG), seed=0)

    def test_bias_rebound_to_a_matrix_rejected(self):
        store = build_model(CFG, seed=1)
        path = "encoder.layer.0.attention.self.query.bias"
        store.params[path] = Tensor(np.zeros((8, 1)), requires_grad=True)
        with pytest.raises(PlanError, match=f"{path!r} is not a 1-D bias vector"):
            attach_lora(store, compile_plan(parse_plan_spec("fullbitfit"), CFG), seed=0)

    def test_low_rank_target_rebound_to_a_vector_rejected(self):
        store = build_model(CFG, seed=1)
        path = "encoder.layer.1.attention.self.value.weight"
        store.params[path] = Tensor(np.zeros(8), requires_grad=True)
        with pytest.raises(PlanError, match=f"target {path!r} is not a 2-D matrix"):
            attach_lora(store, compile_plan(parse_plan_spec("fulllora-I"), CFG), seed=0)


class TestDelta:
    def test_zero_up_factor_gives_zero_delta(self):
        pair = LoraPair(down=Tensor(np.random.default_rng(0).standard_normal((2, 4))),
                        up=Tensor(np.zeros((4, 2))), scaling=4 / 2)
        np.testing.assert_array_equal(lora_delta(pair), np.zeros((4, 4)))

    def test_ones_factors_hand_value(self):
        pair = LoraPair(down=Tensor(np.ones((2, 4))), up=Tensor(np.ones((4, 2))),
                        scaling=2 / 2)
        np.testing.assert_array_equal(lora_delta(pair), np.full((4, 4), 2.0))

    def test_rank_one_outer_product(self):
        pair = LoraPair(down=Tensor(np.array([[1.0, 2.0]])),
                        up=Tensor(np.array([[1.0], [1.0]])),
                        scaling=1 / 1)
        np.testing.assert_array_equal(lora_delta(pair), [[1.0, 2.0], [1.0, 2.0]])

    def test_delta_rank_bounded_by_r(self):
        rng = np.random.default_rng(3)
        pair = LoraPair(down=Tensor(rng.standard_normal((2, 9))),
                        up=Tensor(rng.standard_normal((7, 2))),
                        scaling=4 / 2)
        assert np.linalg.matrix_rank(lora_delta(pair)) <= 2


class TestMerge:
    def test_merge_fresh_attach_equals_original(self):
        store = build_model(CFG, seed=2)
        original = {p: t.data.copy() for p, t in store.params.items()}
        plan = compile_plan(parse_plan_spec("fulllora-II"), CFG)
        attach_lora(store, plan, seed=5)
        merged = merge_lora(store)
        assert not merged.lora
        for p, data in original.items():
            np.testing.assert_array_equal(merged.params[p].data, data)

    def test_merged_forward_matches_adapter_path_after_training(self):
        store = build_model(CFG, seed=2)
        plan = compile_plan(parse_plan_spec("spafit:N1=0,N2=1,mode=II"), CFG)
        attach_lora(store, plan, seed=5)
        train_steps(store, steps=50, lr=5e-3)
        merged = merge_lora(store)
        tokens, types = random_batch(seed=9)
        a = model_forward(store, tokens, types, mode="eval").data
        b = model_forward(merged, tokens, types, mode="eval").data
        assert np.abs(a - b).max() < 1e-9
        assert np.abs(a - model_forward(build_model(CFG, seed=2), tokens, types,
                                        mode="eval").data).max() > 0

    def test_merge_without_pairs_rejected(self):
        store = build_model(CFG, seed=2)
        plan = compile_plan(parse_plan_spec("fulllora-I"), CFG)
        attach_lora(store, plan, seed=5)
        merged = merge_lora(store)
        with pytest.raises(PlanError, match="nothing to merge"):
            merge_lora(merged)

    def test_merge_leaves_source_untouched(self):
        store = build_model(CFG, seed=2)
        plan = compile_plan(parse_plan_spec("fulllora-I"), CFG)
        attach_lora(store, plan, seed=5)
        store.lora["encoder.layer.0.attention.self.query.weight"].up.data[:] = 1.0
        before = store.params["encoder.layer.0.attention.self.query.weight"].data.copy()
        merge_lora(store)
        np.testing.assert_array_equal(
            store.params["encoder.layer.0.attention.self.query.weight"].data, before)
        assert store.lora  # pairs still attached on the source


class TestExportSwap:
    def test_export_then_swap_is_identity(self, tmp_path):
        store = build_model(CFG, seed=4)
        plan = compile_plan(parse_plan_spec("spafit:N1=0,N2=1,mode=I"), CFG)
        attach_lora(store, plan, seed=6)
        train_steps(store, steps=20, lr=5e-3)
        tokens, types = random_batch(seed=11)
        before = model_forward(store, tokens, types, mode="eval").data.copy()
        adapter = tmp_path / "task.adapter"
        export_adapter(store, plan, adapter)
        swap_adapter(store, adapter)
        after = model_forward(store, tokens, types, mode="eval").data
        np.testing.assert_array_equal(before, after)

    def test_swap_restores_first_task_exactly(self, tmp_path):
        store = build_model(CFG, seed=4)
        plan = compile_plan(parse_plan_spec("spafit:N1=0,N2=1,mode=II"), CFG)
        attach_lora(store, plan, seed=6)

        train_steps(store, steps=30, lr=5e-3, seed=100)  # task A
        a_file = tmp_path / "a.adapter"
        export_adapter(store, plan, a_file)
        a_trainables = {k: v.data.copy() for k, v in store.trainable_parameters().items()}
        tokens, types = random_batch(seed=12)
        a_out = model_forward(store, tokens, types, mode="eval").data.copy()

        train_steps(store, steps=30, lr=5e-3, seed=200)  # task B, continues
        b_out = model_forward(store, tokens, types, mode="eval").data
        assert not np.array_equal(a_out, b_out)

        swap_adapter(store, a_file)
        restored = model_forward(store, tokens, types, mode="eval").data
        np.testing.assert_array_equal(a_out, restored)
        for k, v in store.trainable_parameters().items():
            np.testing.assert_array_equal(v.data, a_trainables[k])

    def test_swap_leaves_frozen_parameters_untouched(self, tmp_path):
        store = build_model(CFG, seed=4)
        plan = compile_plan(parse_plan_spec("spafit:N1=1,N2=1,mode=I"), CFG)
        attach_lora(store, plan, seed=6)
        frozen_before = store.params["encoder.layer.0.attention.self.query.weight"].data.copy()
        adapter = tmp_path / "t.adapter"
        export_adapter(store, plan, adapter)
        swap_adapter(store, adapter)
        np.testing.assert_array_equal(
            store.params["encoder.layer.0.attention.self.query.weight"].data,
            frozen_before)

    def test_rank_mismatch_rejected(self, tmp_path):
        store = build_model(CFG, seed=4)
        plan = compile_plan(parse_plan_spec("fulllora-I"), CFG)
        attach_lora(store, plan, seed=6)
        adapter = tmp_path / "r2.adapter"
        export_adapter(store, plan, adapter)

        other_cfg = ModelConfig(num_layers=2, hidden_size=8, num_heads=2,
                                ffn_size=16, vocab_size=30, max_positions=16,
                                lora_rank=4, lora_alpha=8)
        other = build_model(other_cfg, seed=4)
        with pytest.raises(CompatibilityError):
            swap_adapter(other, adapter)

    @pytest.mark.parametrize("attached, exported", [
        ("fullft", "fullbitfit"), ("fulllora-I", "fulllora-II"),
        ("fullbitfit", "spafit:N1=0,N2=1,mode=I")])
    def test_store_not_trained_by_plan_rejected_before_writing(self, tmp_path,
                                                               attached, exported):
        """``swap_adapter`` would reject the file, so none is written."""
        store = build_model(CFG, seed=4)
        attach_lora(store, compile_plan(parse_plan_spec(attached), CFG), seed=6)
        adapter = tmp_path / "t.adapter"
        with pytest.raises(PlanError, match="trainable tensors"):
            export_adapter(store, compile_plan(parse_plan_spec(exported), CFG), adapter)
        assert not adapter.exists()

    def test_checkpoint_container_rejected_as_adapter(self, tmp_path):
        store = build_model(CFG, seed=4)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(store, ckpt)
        with pytest.raises(CompatibilityError, match="not an adapter"):
            swap_adapter(store, ckpt)


# Three layers, so that spafit:N1=1,N2=2 has a group 3 and modes I and II differ.
SWAP_CFG = ModelConfig(num_layers=3, hidden_size=8, num_heads=2, ffn_size=16,
                       vocab_size=30, max_positions=16, lora_rank=2, lora_alpha=4)
SWAP_PLANS = ("fullft", "fullbitfit", "fulllora-I", "fulllora-II",
              "spafit:N1=1,N2=2,mode=I", "spafit:N1=1,N2=2,mode=II")


@pytest.fixture(scope="module")
def swap_adapters(tmp_path_factory):
    """One trained adapter per plan, each from the same seed-4 base."""
    out = tmp_path_factory.mktemp("adapters")
    paths = {}
    for i, text in enumerate(SWAP_PLANS):
        store = build_model(SWAP_CFG, seed=4)
        plan = compile_plan(parse_plan_spec(text), SWAP_CFG)
        attach_lora(store, plan, seed=6)
        train_steps(store, steps=3, lr=5e-3, seed=i)
        paths[text] = out / f"{i}.adapter"
        export_adapter(store, plan, paths[text])
    return paths


def snapshot(store):
    """Copies of every tensor of a store, by container name."""
    return {name: t.data.copy() for name, t in (store.params | store.factors()).items()}


def grad_flags(store):
    """Each tensor's grad flag, by container name."""
    return {name: t.requires_grad for name, t in (store.params | store.factors()).items()}


def assert_same_tensors(got, want, context):
    assert got.keys() == want.keys(), context
    for name, data in want.items():
        np.testing.assert_array_equal(got[name], data, err_msg=f"{context}: {name}")


class TestSwapAcrossPlans:
    def test_every_ordered_pair_matches_fresh_base(self, swap_adapters):
        tokens, types = random_batch(seed=13)
        fresh = {}
        for text, path in swap_adapters.items():
            ref = build_model(SWAP_CFG, seed=4)
            swap_adapter(ref, path)
            fresh[text] = (snapshot(ref), grad_flags(ref),
                           model_forward(ref, tokens, types, mode="eval").data)

        store = build_model(SWAP_CFG, seed=4)
        for first, second in itertools.permutations(SWAP_PLANS, 2):
            for text in (first, second):
                swap_adapter(store, swap_adapters[text])
                tensors, flags, logits = fresh[text]
                context = f"{first} -> {second}, after {text}"
                assert_same_tensors(snapshot(store), tensors, context)
                assert grad_flags(store) == flags, context
                np.testing.assert_array_equal(
                    model_forward(store, tokens, types, mode="eval").data, logits,
                    err_msg=context)

    def test_second_swap_of_a_file_compiles_nothing(self, swap_adapters, monkeypatch):
        """The spy sits inside compilation (every compile asks the layer
        number of each path), below the compile cache."""
        looked_up = []

        def layer_spy(path, real=plan_module.layer_number):
            looked_up.append(path)
            return real(path)

        monkeypatch.setattr(plan_module, "layer_number", layer_spy)
        plan_module.compile_plan.cache_clear()
        store = build_model(SWAP_CFG, seed=4)
        path = swap_adapters["spafit:N1=1,N2=2,mode=II"]
        first = swap_adapter(store, path)
        assert looked_up
        swap_adapter(store, swap_adapters["fullbitfit"])
        looked_up.clear()
        assert swap_adapter(store, path) is first
        assert swap_adapter(build_model(SWAP_CFG, seed=5), path) is first
        assert looked_up == []

    @pytest.mark.parametrize("bad_shape", [(1,), (5,)])
    def test_wrong_shape_rejected_before_store_changes(self, swap_adapters, bad_shape,
                                                       tmp_path, cli_manifest):
        name = "encoder.layer.0.attention.self.query.bias"
        header, tensors = read_container(swap_adapters["fullbitfit"])
        tensors[name] = np.ones(bad_shape)
        bad = tmp_path / "bad.adapter"
        write_container(bad, "adapter", SWAP_CFG, tensors, plan_spec=header["plan_spec"])

        store = build_model(SWAP_CFG, seed=4)
        swap_adapter(store, swap_adapters["spafit:N1=1,N2=2,mode=II"])
        before, flags = snapshot(store), grad_flags(store)
        with pytest.raises(CheckpointFormatError, match=name):
            swap_adapter(store, bad)
        assert_same_tensors(snapshot(store), before, "after a rejected swap")
        assert grad_flags(store) == flags

        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(build_model(SWAP_CFG, seed=4), ckpt)
        assert main(["swap-adapter", "--manifest", str(cli_manifest),
                     "--model", str(ckpt), "--adapter", str(bad)]) == 5

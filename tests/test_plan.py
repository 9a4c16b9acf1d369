"""Plan compilation: group assignment rules, totality, exact counts."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import spafit.tensor as T
from spafit.checkpoint import load_checkpoint_with_plan, read_container, save_checkpoint
from spafit.errors import PlanError
from spafit.harness import predict
from spafit.model import ModelConfig, build_model, layer_number, model_forward, param_shapes
from spafit.plan import (
    PLAN_SPEC_GRAMMAR,
    Group3Mode,
    ParamStatus,
    PlanKind,
    PlanSpec,
    attach_lora,
    closed_form_count,
    compile_plan,
    count_trainable,
    export_adapter,
    merge_lora,
    parse_plan_spec,
    published_convention_count,
    swap_adapter,
)
from spafit.tasks import SINGLE_CLASSIFICATION, DatasetRecord, TaskSpec, encode_batch

BERT_LARGE = ModelConfig(num_layers=24, hidden_size=1024, num_heads=16,
                         ffn_size=4096, vocab_size=28996, max_positions=512,
                         type_vocab_size=2, lora_rank=64, lora_alpha=128)

TOY = ModelConfig(num_layers=4, hidden_size=8, num_heads=2, ffn_size=16,
                  vocab_size=30, max_positions=16, lora_rank=2, lora_alpha=4)

# The README demo dims.
DESK = ModelConfig(num_layers=4, hidden_size=32, num_heads=4, ffn_size=64,
                   vocab_size=40, max_positions=16, lora_rank=8, lora_alpha=16)

# The biases a stratified plan trains in group-3 layers, and full LoRA does not.
FEED_FORWARD_BIASES = ("intermediate.dense.bias", "output.dense.bias",
                       "output.LayerNorm.bias")

STANDARD_PLANS = ("fullft", "fullbitfit", "fulllora-I", "fulllora-II",
                  "spafit:N1=1,N2=3,mode=II")


def random_config_and_spec(rng: np.random.Generator) -> tuple[ModelConfig, PlanSpec]:
    """A small model config and a plan spec that fits it, drawn from ``rng``."""
    heads = int(rng.integers(1, 4))
    d = heads * int(rng.integers(2, 7))
    f = int(rng.integers(2, 30))
    layers = int(rng.integers(1, 9))
    r = int(rng.integers(1, min(d, f) + 1))
    cfg = ModelConfig(num_layers=layers, hidden_size=d, num_heads=heads,
                      ffn_size=f, vocab_size=int(rng.integers(8, 60)),
                      max_positions=int(rng.integers(4, 40)),
                      type_vocab_size=int(rng.integers(1, 4)),
                      num_labels=int(rng.integers(1, 5)),
                      lora_rank=r, lora_alpha=2 * r)
    choice = rng.integers(0, 5)
    if choice < 4:
        spec = [PlanSpec(PlanKind.FULL_FT), PlanSpec(PlanKind.FULL_BITFIT),
                PlanSpec(PlanKind.FULL_LORA_I),
                PlanSpec(PlanKind.FULL_LORA_II)][choice]
    else:
        n1 = int(rng.integers(0, layers + 1))
        n2 = int(rng.integers(n1, layers + 1))
        mode = Group3Mode.FT_II if rng.integers(2) else Group3Mode.FT_I
        spec = PlanSpec(PlanKind.SPAFIT, n1, n2, mode)
    return cfg, spec


def trained_store(cfg: ModelConfig, plan, rng: np.random.Generator):
    """A seeded base under ``plan`` whose trainables (LoRA up factors
    included) have moved off their initial values."""
    store = attach_lora(build_model(cfg, seed=0), plan, seed=1)
    for t in store.trainable_parameters().values():
        t.data += rng.normal(scale=0.1, size=t.data.shape)
    return store


def statuses_for_layer(plan, layer_idx: int) -> dict[str, ParamStatus]:
    prefix = f"encoder.layer.{layer_idx}."
    return {p[len(prefix):]: s for p, s in plan.assignments.items()
            if p.startswith(prefix)}


class TestSpecParsing:
    @pytest.mark.parametrize("text,kind", [
        ("fullft", PlanKind.FULL_FT),
        ("fullbitfit", PlanKind.FULL_BITFIT),
        ("fulllora-I", PlanKind.FULL_LORA_I),
        ("FULLLORA-II", PlanKind.FULL_LORA_II),
    ])
    def test_simple_kinds(self, text, kind):
        assert parse_plan_spec(text).kind is kind

    def test_stratified_round_trip(self):
        spec = parse_plan_spec("spafit:N1=8,N2=12,mode=II")
        assert (spec.n1, spec.n2, spec.group3_mode) == (8, 12, Group3Mode.FT_II)
        assert str(spec) == "spafit:N1=8,N2=12,mode=II"
        assert parse_plan_spec(str(spec)) == spec

    @pytest.mark.parametrize("bad", [
        "spafit", "spafit:N1=8", "lora", "spafit:N1=8,N2=12,mode=III",
        "spafit:N1=-1,N2=3,mode=I", "fullft:N1=1,N2=2,mode=I",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(PlanError):
            parse_plan_spec(bad)

    def test_grammar_names_every_spec_the_parser_reads(self):
        """Each alternative of the grammar, placeholders filled in, parses;
        together they reach every kind and mode; a bad spec's error shows it."""
        specs = set()
        for alternative in PLAN_SPEC_GRAMMAR.split(" | "):
            head, _, modes = alternative.replace("<i>", "1").replace("<j>", "2").partition("<")
            for mode in modes.rstrip(">").split("|"):
                specs.add(parse_plan_spec(head + mode))
        assert {spec.kind for spec in specs} == set(PlanKind)
        assert {spec.group3_mode for spec in specs} == {None, *Group3Mode}
        with pytest.raises(PlanError) as caught:
            parse_plan_spec("lora")
        assert str(caught.value).endswith(f"; expected one of {PLAN_SPEC_GRAMMAR}")

    def test_layer_count_past_int_conversion_limit_rejected(self):
        with pytest.raises(PlanError, match="too long"):
            parse_plan_spec("spafit:N1=" + "1" * 5000 + ",N2=2,mode=II")

    @pytest.mark.parametrize("n1, n2, bad", [
        (1.5, 2, "N1"), (1, 2.0, "N2"), (True, 2, "N1"), (0, True, "N2"), ("1", 2, "N1"),
    ])
    def test_non_integer_layer_count_rejected(self, n1, n2, bad):
        with pytest.raises(PlanError, match=f"{bad} must be an integer"):
            PlanSpec(PlanKind.SPAFIT, n1, n2, Group3Mode.FT_II)

    @pytest.mark.parametrize("args, match", [
        ((PlanKind.SPAFIT, None, 2, Group3Mode.FT_II), "need N1, N2, and mode"),
        ((PlanKind.SPAFIT, 1, None, Group3Mode.FT_II), "need N1, N2, and mode"),
        ((PlanKind.SPAFIT, 1, 2, None), "need N1, N2, and mode"),
        ((PlanKind.FULL_BITFIT, 1, None, None), "takes no N1/N2/mode"),
        ((PlanKind.FULL_LORA_I, None, None, Group3Mode.FT_I), "takes no N1/N2/mode"),
    ])
    def test_missing_or_extra_layer_arguments_rejected(self, args, match):
        with pytest.raises(PlanError, match=match):
            PlanSpec(*args)

    def test_numpy_integer_layer_counts_round_trip(self):
        spec = PlanSpec(PlanKind.SPAFIT, np.int64(1), np.int32(2), Group3Mode.FT_II)
        assert parse_plan_spec(str(spec)) == spec

    def test_n1_greater_than_n2_rejected(self):
        with pytest.raises(PlanError):
            parse_plan_spec("spafit:N1=5,N2=3,mode=I")

    def test_n2_beyond_stack_rejected(self):
        spec = parse_plan_spec("spafit:N1=1,N2=9,mode=I")
        with pytest.raises(PlanError, match="N2"):
            compile_plan(spec, TOY)


class TestStratification:
    def test_reference_example_layer_statuses(self):
        plan = compile_plan(parse_plan_spec("spafit:N1=8,N2=12,mode=II"), BERT_LARGE)

        # layer 5 (group 1, 0-based index 4): everything frozen
        assert set(statuses_for_layer(plan, 4).values()) == {ParamStatus.FROZEN}

        # layer 10 (group 2, index 9): biases tunable, everything else frozen
        for sub, status in statuses_for_layer(plan, 9).items():
            expected = ParamStatus.BIAS_TUNABLE if sub.endswith(".bias") \
                else ParamStatus.FROZEN
            assert status is expected, sub

        # layer 20 (group 3, index 19): LoRA on q/k/v + attention output dense,
        # tunable intermediate/output biases, attention biases frozen
        got = statuses_for_layer(plan, 19)
        assert got["attention.self.query.weight"] is ParamStatus.LORA_AUGMENTED
        assert got["attention.self.key.weight"] is ParamStatus.LORA_AUGMENTED
        assert got["attention.self.value.weight"] is ParamStatus.LORA_AUGMENTED
        assert got["attention.output.dense.weight"] is ParamStatus.LORA_AUGMENTED
        assert got["intermediate.dense.bias"] is ParamStatus.BIAS_TUNABLE
        assert got["output.dense.bias"] is ParamStatus.BIAS_TUNABLE
        assert got["output.LayerNorm.bias"] is ParamStatus.BIAS_TUNABLE
        assert got["attention.self.query.bias"] is ParamStatus.FROZEN
        assert got["attention.output.dense.bias"] is ParamStatus.FROZEN
        assert got["attention.output.LayerNorm.bias"] is ParamStatus.FROZEN
        assert got["intermediate.dense.weight"] is ParamStatus.FROZEN
        assert got["output.LayerNorm.weight"] is ParamStatus.FROZEN

    def test_mode_i_excludes_attention_output_dense(self):
        plan = compile_plan(parse_plan_spec("spafit:N1=8,N2=12,mode=I"), BERT_LARGE)
        got = statuses_for_layer(plan, 19)
        assert got["attention.output.dense.weight"] is ParamStatus.FROZEN
        assert got["attention.self.query.weight"] is ParamStatus.LORA_AUGMENTED

    @pytest.mark.parametrize("layers", range(5))
    def test_full_bitfit_is_every_layer_in_group2(self, layers):
        cfg = dataclasses.replace(TOY, num_layers=layers)
        full = compile_plan(parse_plan_spec("fullbitfit"), cfg).assignments
        for mode in ("I", "II"):
            stratified = compile_plan(
                parse_plan_spec(f"spafit:N1=0,N2={layers},mode={mode}"), cfg).assignments
            assert list(full.items()) == list(stratified.items())

    def test_degenerate_all_group3_matches_full_lora(self):
        """Full LoRA is every layer in group 3 without the feed-forward
        biases, which it leaves frozen."""
        for layers, mode in itertools.product(range(5), ("I", "II")):
            cfg = dataclasses.replace(TOY, num_layers=layers)
            full = compile_plan(parse_plan_spec(f"fulllora-{mode}"), cfg).assignments
            stratified = dict(compile_plan(
                parse_plan_spec(f"spafit:N1=0,N2=0,mode={mode}"), cfg).assignments)
            for path in stratified:
                if layer_number(path) and path.split(".", 3)[3] in FEED_FORWARD_BIASES:
                    assert stratified[path] is ParamStatus.BIAS_TUNABLE, path
                    stratified[path] = ParamStatus.FROZEN
            assert list(full.items()) == list(stratified.items())

    def test_all_frozen_is_linear_probing(self):
        plan = compile_plan(parse_plan_spec("spafit:N1=4,N2=4,mode=I"), TOY)
        for path, status in plan.assignments.items():
            if path.startswith(("pooler.", "classifier.")):
                assert status is ParamStatus.TUNABLE
            else:
                assert status is ParamStatus.FROZEN
        assert count_trainable(plan, TOY, include_head=False) == 0

    def test_group_boundaries_one_based_inclusive(self):
        plan = compile_plan(parse_plan_spec("spafit:N1=1,N2=2,mode=I"), TOY)
        assert plan.group_of_layer(1) == 1
        assert plan.group_of_layer(2) == 2
        assert plan.group_of_layer(3) == 3
        assert plan.group_of_layer(4) == 3

    @pytest.mark.parametrize("layer, match", [(0, "outside"), (99, "outside"),
                                              (1.5, "integer")])
    def test_group_of_layer_outside_the_stack_rejected(self, layer, match):
        cfg = dataclasses.replace(TOY, num_layers=2)
        plan = compile_plan(parse_plan_spec("spafit:N1=1,N2=1,mode=I"), cfg)
        with pytest.raises(PlanError, match=match):
            plan.group_of_layer(layer)

    @pytest.mark.parametrize("text", ["fullft", "fullbitfit", "fulllora-I", "fulllora-II"])
    def test_baseline_plan_has_no_layer_groups(self, text):
        with pytest.raises(PlanError, match="has no layer groups"):
            compile_plan(parse_plan_spec(text), TOY).group_of_layer(1)

    def test_embeddings_frozen_in_peft_tunable_in_full_ft(self):
        for text in ("fullbitfit", "fulllora-I", "spafit:N1=0,N2=2,mode=I"):
            plan = compile_plan(parse_plan_spec(text), TOY)
            assert plan.assignments["embeddings.word_embeddings.weight"] \
                is ParamStatus.FROZEN
            assert plan.assignments["embeddings.LayerNorm.bias"] is ParamStatus.FROZEN
        full = compile_plan(parse_plan_spec("fullft"), TOY)
        assert full.assignments["embeddings.word_embeddings.weight"] \
            is ParamStatus.TUNABLE


class TestTotality:
    @pytest.mark.parametrize("text", STANDARD_PLANS)
    def test_every_path_assigned_exactly_once(self, text):
        plan = compile_plan(parse_plan_spec(text), TOY)
        assert set(plan.assignments) == set(param_shapes(TOY))

    @pytest.mark.parametrize("cfg", [TOY, DESK], ids=["toy", "desk"])
    @pytest.mark.parametrize("text", STANDARD_PLANS)
    def test_store_trains_exactly_what_plan_states(self, text, cfg, tmp_path):
        """After attaching, loading a checkpoint and swapping an adapter, the
        store trains exactly ``plan.trainable``, names and shapes in order,
        and the adapter holds just that."""
        spec = parse_plan_spec(text)
        plan = compile_plan(spec, cfg)
        shapes = list(plan.trainable.items())
        assert plan.lora_targets == tuple(
            path for path, status in plan.assignments.items()
            if status is ParamStatus.LORA_AUGMENTED)
        assert list(plan.factors.items()) == shapes[len(shapes) - len(plan.factors):]
        assert sum(math.prod(shape) for _, shape in shapes) \
            == closed_form_count(spec, cfg, True)

        def trained(store):
            return [(n, t.data.shape) for n, t in store.trainable_parameters().items()]

        store = attach_lora(build_model(cfg, seed=0), plan, seed=1)
        assert trained(store) == shapes
        save_checkpoint(store, tmp_path / "model.ckpt", plan)
        loaded, loaded_plan = load_checkpoint_with_plan(tmp_path / "model.ckpt")
        assert loaded_plan is plan and trained(loaded) == shapes
        adapter = tmp_path / "task.adapter"
        export_adapter(store, plan, adapter)
        header, _ = read_container(adapter)
        assert [(e["name"], tuple(e["shape"])) for e in header["tensors"]] == shapes
        swapped = build_model(cfg, seed=2)
        assert swap_adapter(swapped, adapter) is plan and trained(swapped) == shapes

    def test_status_shape_discipline(self):
        shapes = param_shapes(TOY)
        plan = compile_plan(parse_plan_spec("spafit:N1=1,N2=2,mode=II"), TOY)
        for path, status in plan.assignments.items():
            if status is ParamStatus.LORA_AUGMENTED:
                assert len(shapes[path]) == 2
            if status is ParamStatus.BIAS_TUNABLE:
                assert len(shapes[path]) == 1


class TestCompiledPlanValue:
    def test_equal_arguments_share_one_plan(self):
        spec = parse_plan_spec("spafit:N1=1,N2=3,mode=II")
        plan = compile_plan(spec, DESK)
        assert compile_plan(spec, DESK) is plan
        assert compile_plan(parse_plan_spec(str(spec)), dataclasses.replace(DESK)) is plan
        other = compile_plan(spec, dataclasses.replace(DESK, dropout_p=0.0))
        assert other is not plan and other.config.dropout_p == 0.0

    def test_plan_is_read_only(self):
        plan = compile_plan(parse_plan_spec("fulllora-II"), DESK)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.spec = parse_plan_spec("fullft")
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.trainable = {}
        with pytest.raises(TypeError):
            plan.assignments["classifier.bias"] = ParamStatus.FROZEN
        with pytest.raises(TypeError):
            plan.factors["classifier.bias"] = (1, 1)


class TestCounts:
    def test_full_lora_reference_counts(self):
        p1 = compile_plan(parse_plan_spec("fulllora-I"), BERT_LARGE)
        p2 = compile_plan(parse_plan_spec("fulllora-II"), BERT_LARGE)
        assert count_trainable(p1, BERT_LARGE, include_head=False) == 9_437_184
        assert count_trainable(p2, BERT_LARGE, include_head=False) == 12_582_912

    def test_bitfit_toy_enumeration(self):
        cfg = ModelConfig(num_layers=2, hidden_size=4, num_heads=2, ffn_size=8,
                          vocab_size=12, max_positions=6, lora_rank=2, lora_alpha=4)
        plan = compile_plan(parse_plan_spec("fullbitfit"), cfg)
        # per layer: 3d qkv + d attn-out + d attn-LN + f inter + d out + d out-LN
        assert count_trainable(plan, cfg, include_head=False) == 2 * (3 * 4 + 4 + 4 + 8 + 4 + 4)

    def test_closed_form_matches_enumeration_on_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            cfg, spec = random_config_and_spec(rng)
            plan = compile_plan(spec, cfg)
            for include_head in (True, False):
                assert closed_form_count(spec, cfg, include_head) \
                    == count_trainable(plan, cfg, include_head), (spec, cfg)

    @pytest.mark.parametrize("text", ["spafit:N1=1,N2=9,mode=I", "spafit:N1=0,N2=3,mode=II",
                                      "spafit:N1=3,N2=3,mode=I"])
    def test_closed_form_refuses_what_the_compiler_refuses(self, text):
        """N2 past a 2-layer stack: both routes raise the same ``PlanError``."""
        cfg = dataclasses.replace(TOY, num_layers=2)
        spec = parse_plan_spec(text)
        with pytest.raises(PlanError) as compiled:
            compile_plan(spec, cfg)
        with pytest.raises(PlanError) as counted:
            closed_form_count(spec, cfg)
        assert str(counted.value) == str(compiled.value)

    def test_stratified_count_monotone_in_n1(self):
        counts = [count_trainable(
            compile_plan(PlanSpec(PlanKind.SPAFIT, n1, 12, Group3Mode.FT_II),
                         BERT_LARGE), BERT_LARGE, include_head=False)
            for n1 in range(0, 13)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_stratified_n2_direction_per_config(self):
        """Growing group 2 at fixed N1 trades LoRA layers for bias-only
        layers; with these dims the per-layer LoRA cost dominates, so the
        count must shrink."""
        d, f, r = 1024, 4096, 64
        group2_layer = 7 * d + f
        group3_layer = 4 * r * 2 * d + f + 2 * d
        assert group3_layer > group2_layer
        counts = [count_trainable(
            compile_plan(PlanSpec(PlanKind.SPAFIT, 4, n2, Group3Mode.FT_II),
                         BERT_LARGE), BERT_LARGE, include_head=False)
            for n2 in range(4, 25)]
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_published_convention_values(self):
        cases = {
            "fullft": 333_579_264,
            "fulllora-I": 9_437_184,
            "fulllora-II": 12_582_912,
        }
        for text, expected in cases.items():
            plan = compile_plan(parse_plan_spec(text), BERT_LARGE)
            assert published_convention_count(plan) == expected

    def test_count_for_another_config_rejected(self):
        plan = compile_plan(parse_plan_spec("fulllora-I"), TOY)
        with pytest.raises(PlanError, match="different model configuration"):
            count_trainable(plan, BERT_LARGE)

    def test_head_inclusion_adds_pooler_and_classifier(self):
        plan = compile_plan(parse_plan_spec("fulllora-I"), TOY)
        d, labels = 8, 2
        head = (d * d + d) + (labels * d + labels)
        assert count_trainable(plan, TOY, True) \
            == count_trainable(plan, TOY, False) + head


class TestEvalWithoutGraph:
    @pytest.mark.parametrize("text", STANDARD_PLANS)
    def test_logits_equal_with_graph_logits(self, text):
        rng = np.random.default_rng(3)
        store = trained_store(TOY, compile_plan(parse_plan_spec(text), TOY), rng)
        tokens = rng.integers(0, TOY.vocab_size, size=(5, 7))
        types = rng.integers(0, TOY.type_vocab_size, size=(5, 7))
        with_graph = model_forward(store, tokens, types, mode="eval")
        with T.no_grad():
            bare = model_forward(store, tokens, types, mode="eval")
        assert with_graph.requires_grad and not bare.requires_grad
        assert np.array_equal(bare.data, with_graph.data)

    def test_seeded_random_configs_and_plans(self, tmp_path):
        """Over seeded small configs and plans: the two trainable counts
        agree, ``predict`` is the argmax of the with-graph logits, and an
        exported adapter swapped into a fresh base gives the same logits, and
        merging the low-rank pairs keeps them within criterion 5's 1e-9 (a
        draw with no pairs has nothing to merge)."""
        rng = np.random.default_rng(21)
        adapter = tmp_path / "task.adapter"
        for _ in range(30):
            cfg, spec = random_config_and_spec(rng)
            plan = compile_plan(spec, cfg)
            assert closed_form_count(spec, cfg, False) \
                == count_trainable(plan, cfg, include_head=False), (spec, cfg)

            seq = cfg.max_positions
            task = TaskSpec(kind=SINGLE_CLASSIFICATION, vocab_size=cfg.vocab_size,
                            seq_len=seq, train_size=1, val_size=70, seed=0)
            records = [DatasetRecord(rng.integers(0, cfg.vocab_size, seq - 2).tolist(),
                                     None, 0) for _ in range(70)]
            tokens, types = encode_batch(task, records)
            store = trained_store(cfg, plan, rng)
            logits = model_forward(store, tokens, types, mode="eval").data
            np.testing.assert_array_equal(predict(store, task, records),
                                          np.argmax(logits, axis=1))

            export_adapter(store, plan, adapter)
            fresh = build_model(cfg, seed=0)
            swap_adapter(fresh, adapter)
            assert np.array_equal(
                model_forward(fresh, tokens, types, mode="eval").data, logits), (spec, cfg)

            if store.lora:
                merged = model_forward(merge_lora(store), tokens, types, mode="eval").data
                assert np.abs(merged - logits).max() < 1e-9, (spec, cfg)
            else:
                with pytest.raises(PlanError, match="nothing to merge"):
                    merge_lora(store)

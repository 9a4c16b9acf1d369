"""Plan compilation: group assignment rules, totality, exact counts."""

import math

import numpy as np
import pytest

from spafit.checkpoint import read_container
from spafit.errors import PlanError
from spafit.model import ModelConfig, build_model, param_shapes
from spafit.plan import (
    Group3Mode,
    ParamStatus,
    PlanKind,
    PlanSpec,
    attach_lora,
    closed_form_count,
    compile_plan,
    count_trainable,
    export_adapter,
    parse_plan_spec,
    published_convention_count,
    trainable_shapes,
)

BERT_LARGE = ModelConfig(num_layers=24, hidden_size=1024, num_heads=16,
                         ffn_size=4096, vocab_size=28996, max_positions=512,
                         type_vocab_size=2, lora_rank=64, lora_alpha=128)

TOY = ModelConfig(num_layers=4, hidden_size=8, num_heads=2, ffn_size=16,
                  vocab_size=30, max_positions=16, lora_rank=2, lora_alpha=4)

STANDARD_PLANS = ("fullft", "fullbitfit", "fulllora-I", "fulllora-II",
                  "spafit:N1=1,N2=3,mode=II")


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

    def test_degenerate_all_group3_matches_full_lora(self):
        stratified = compile_plan(parse_plan_spec("spafit:N1=0,N2=0,mode=II"), TOY)
        full = compile_plan(parse_plan_spec("fulllora-II"), TOY)
        assert stratified.lora_targets == full.lora_targets
        for path, status in full.assignments.items():
            if status is ParamStatus.LORA_AUGMENTED:
                assert stratified.assignments[path] is ParamStatus.LORA_AUGMENTED

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

    @pytest.mark.parametrize("text", STANDARD_PLANS)
    def test_store_trains_exactly_what_plan_states(self, text, tmp_path):
        spec = parse_plan_spec(text)
        plan = compile_plan(spec, TOY)
        store = attach_lora(build_model(TOY, seed=0), plan, seed=1)
        shapes = list(trainable_shapes(plan).items())
        assert [(n, t.data.shape) for n, t in store.trainable_parameters().items()] \
            == shapes
        assert sum(math.prod(shape) for _, shape in shapes) \
            == closed_form_count(spec, TOY, True)
        adapter = tmp_path / "task.adapter"
        export_adapter(store, plan, adapter)
        header, _ = read_container(adapter)
        assert [(e["name"], tuple(e["shape"])) for e in header["tensors"]] == shapes

    def test_status_shape_discipline(self):
        shapes = param_shapes(TOY)
        plan = compile_plan(parse_plan_spec("spafit:N1=1,N2=2,mode=II"), TOY)
        for path, status in plan.assignments.items():
            if status is ParamStatus.LORA_AUGMENTED:
                assert len(shapes[path]) == 2
            if status is ParamStatus.BIAS_TUNABLE:
                assert len(shapes[path]) == 1


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
            plan = compile_plan(spec, cfg)
            for include_head in (True, False):
                assert closed_form_count(spec, cfg, include_head) \
                    == count_trainable(plan, cfg, include_head), (spec, cfg)

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

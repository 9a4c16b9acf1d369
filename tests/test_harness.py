"""Training harness: determinism, zero-epoch base case, comparisons."""

import dataclasses
import hashlib
import json
import weakref

import numpy as np
import pytest

import spafit as sp
import spafit.harness as harness
import spafit.tensor as T
from spafit.errors import InputError, PlanError, TrainingDivergedError
from spafit.harness import compare_configs, evaluate, predict, train_fresh, train_run
from spafit.metrics import accuracy
from spafit.model import model_forward
from spafit.plan import count_trainable
from spafit.tasks import DatasetRecord, TaskSpec, encode_batch, generate_task, labels_array

from test_plan import STANDARD_PLANS

MODEL_CFG = sp.ModelConfig(num_layers=2, hidden_size=16, num_heads=2, ffn_size=32,
                           vocab_size=40, max_positions=16, lora_rank=4,
                           lora_alpha=8, dropout_p=0.1)
TASK = TaskSpec(kind="pair_classification", vocab_size=40, seq_len=9,
                train_size=160, val_size=80, seed=5)


@pytest.fixture(scope="module")
def datasets():
    return generate_task(TASK)


def fresh_run(train_cfg, plan_text="spafit:N1=0,N2=1,mode=II", datasets=None,
              task=TASK):
    plan = sp.compile_plan(sp.parse_plan_spec(plan_text), MODEL_CFG)
    train, val = datasets
    return train_fresh(plan, 3, task, train, val, train_cfg)


class TestTrainRun:
    def test_zero_epochs_returns_frozen_base_metric(self, datasets):
        _, val = datasets
        cfg = sp.TrainConfig(learning_rate=1e-3, epochs=0, seed=0)
        store, result = fresh_run(cfg, datasets=datasets)
        base = sp.build_model(MODEL_CFG, seed=3)
        base_preds = predict(base, TASK, val)
        expected = accuracy(base_preds.tolist(), labels_array(TASK, val).tolist())
        assert result.epoch_losses == []
        assert result.metric_value == expected

    def test_rerun_same_seed_identical_result(self, datasets):
        cfg = sp.TrainConfig(learning_rate=1e-3, epochs=2, seed=9)
        _, a = fresh_run(cfg, datasets=datasets)
        _, b = fresh_run(cfg, datasets=datasets)
        assert a.epoch_losses == b.epoch_losses
        assert a.metric_value == b.metric_value
        assert a.trainable_count == b.trainable_count

    def test_evaluate_twice_identical(self, datasets):
        cfg = sp.TrainConfig(learning_rate=1e-3, epochs=1, seed=9)
        store, _ = fresh_run(cfg, datasets=datasets)
        _, val = datasets
        assert evaluate(store, TASK, val) == evaluate(store, TASK, val)

    def test_loss_decreases_on_learnable_task(self, datasets):
        cfg = sp.TrainConfig(learning_rate=2e-3, epochs=4, seed=0)
        _, result = fresh_run(cfg, datasets=datasets)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_metric_override_f1(self, datasets):
        cfg = sp.TrainConfig(learning_rate=2e-3, epochs=1, seed=0)
        _, result = fresh_run(cfg, datasets=datasets,
                              task=dataclasses.replace(TASK, metric="f1"))
        assert result.metric_name == "f1"
        assert 0.0 <= result.metric_value <= 1.0

    def test_head_of_another_task_rejected_before_training(self, datasets):
        train, val = datasets
        cfg = dataclasses.replace(MODEL_CFG, num_labels=1)
        store = sp.build_model(cfg, seed=3)
        plan = sp.compile_plan(sp.parse_plan_spec("fullbitfit"), cfg)
        sp.attach_lora(store, plan, seed=3)
        before = {name: t.data.copy() for name, t in store.params.items()}
        message = "model head has 1 outputs but the pair_classification task needs 2"
        with pytest.raises(InputError, match=message):
            evaluate(store, TASK, val)
        with pytest.raises(InputError, match=message):
            train_run(store, plan, TASK, train, val, sp.TrainConfig(epochs=1))
        assert all(np.array_equal(t.data, before[name]) for name, t in store.params.items())

    def test_empty_training_list_rejected(self, datasets):
        _, val = datasets
        store = sp.build_model(MODEL_CFG, seed=3)
        plan = sp.compile_plan(sp.parse_plan_spec("fullbitfit"), MODEL_CFG)
        with pytest.raises(InputError, match="at least one training record"):
            train_run(store, plan, TASK, [], val,
                      sp.TrainConfig(learning_rate=1e-3, epochs=1))

    def test_empty_validation_list_rejected_before_training(self, datasets):
        train, _ = datasets
        store = sp.build_model(MODEL_CFG, seed=3)
        plan = sp.compile_plan(sp.parse_plan_spec("fullbitfit"), MODEL_CFG)
        before = {name: t.data.copy() for name, t in store.params.items()}
        with pytest.raises(InputError, match="at least one validation record"):
            train_run(store, plan, TASK, train, [],
                      sp.TrainConfig(learning_rate=1e-3, epochs=3))
        assert all(np.array_equal(t.data, before[name]) for name, t in store.params.items())

    @pytest.mark.parametrize("plan_text, rate", [("fullft", 2e-5), ("fullbitfit", 6e-5)])
    def test_default_train_config_trains_at_plan_default(self, datasets, plan_text, rate):
        assert sp.TrainConfig().learning_rate is None
        _, result = fresh_run(sp.TrainConfig(epochs=0), plan_text=plan_text,
                              datasets=datasets)
        assert result.hyperparameters["learning_rate"] == rate

    def test_trainable_count_matches_plan_audit(self, datasets):
        cfg = sp.TrainConfig(learning_rate=1e-3, epochs=1, seed=0)
        _, result = fresh_run(cfg, plan_text="fullbitfit", datasets=datasets)
        plan = sp.compile_plan(sp.parse_plan_spec("fullbitfit"), MODEL_CFG)
        assert result.trainable_count == count_trainable(plan, MODEL_CFG,
                                                         include_head=True)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_step(self, datasets):
        cfg = sp.TrainConfig(learning_rate=1e9, epochs=3, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            fresh_run(cfg, plan_text="fullft", datasets=datasets)
        assert err.value.step >= 0

    def test_regression_task_reports_pearson(self):
        rtask = TaskSpec(kind="pair_regression", vocab_size=40, seq_len=9,
                         train_size=120, val_size=60, seed=6)
        train, val = generate_task(rtask)
        cfg = sp.ModelConfig(num_layers=2, hidden_size=16, num_heads=2,
                             ffn_size=32, vocab_size=40, max_positions=16,
                             num_labels=1, lora_rank=4, lora_alpha=8)
        store = sp.build_model(cfg, seed=3)
        plan = sp.compile_plan(sp.parse_plan_spec("spafit:N1=0,N2=1,mode=I"), cfg)
        sp.attach_lora(store, plan, seed=3)
        result = train_run(store, plan, rtask, train, val,
                           sp.TrainConfig(learning_rate=2e-3, epochs=2, seed=0))
        assert result.metric_name == "pearson"
        assert -1.0 <= result.metric_value <= 1.0

    def test_one_step_of_graph_and_gradients_lives_at_a_time(self, datasets, monkeypatch):
        """Each train-mode forward starts with the previous step's graph freed
        (its logits array is gone) and no gradient held; the returned store
        holds no gradient."""
        train, val = datasets
        store = sp.build_model(MODEL_CFG, seed=3)
        plan = sp.compile_plan(sp.parse_plan_spec("fulllora-II"), MODEL_CFG)
        sp.attach_lora(store, plan, seed=3)
        trainables = list(store.trainable_parameters().values())
        kept, seen = [], []
        forward = harness.model_forward

        def watched(*args, **kwargs):
            train_mode = kwargs.get("mode") == "train"
            if train_mode:
                seen.append((sum(ref() is not None for ref in kept),
                             sum(t.grad is not None for t in trainables)))
            logits = forward(*args, **kwargs)
            if train_mode:
                kept.append(weakref.ref(logits.data))
            return logits

        monkeypatch.setattr(harness, "model_forward", watched)
        train_run(store, plan, TASK, train, val,
                  sp.TrainConfig(learning_rate=1e-3, batch_size=32, epochs=2, seed=9))
        assert seen == [(0, 0)] * 10  # 160 records in batches of 32, twice
        held = [t for t in store.params.values() if t.grad is not None]
        held += [t for pair in store.lora.values() for t in (pair.down, pair.up)
                 if t.grad is not None]
        assert held == []

    def test_numpy_integer_settings_give_a_json_ready_result(self):
        i = np.int64
        task = TaskSpec(kind="pair_classification", vocab_size=i(40), seq_len=i(9),
                        train_size=i(32), val_size=i(16), seed=i(5))
        cfg = sp.TrainConfig(learning_rate=1e-3, batch_size=i(16), epochs=i(1), seed=i(3))
        for spec, names in ((task, ("vocab_size", "seq_len", "train_size", "val_size",
                                    "num_labels", "seed")),
                            (cfg, ("batch_size", "epochs", "seed"))):
            for name in names:
                assert type(getattr(spec, name)) is int, name
        train, val = generate_task(task)
        _, result = fresh_run(cfg, datasets=(train, val), task=task)
        record = json.loads(json.dumps(dataclasses.asdict(result)))
        assert record["seed"] == 3 and type(result.seed) is int
        for name in ("batch_size", "epochs"):
            assert type(result.hyperparameters[name]) is int, name


    def test_record_holds_every_train_field_but_seed(self, datasets):
        cfg = sp.TrainConfig(epochs=1, weight_decay=0.5, betas=(0.8, 0.95), eps=1e-6, seed=4)
        _, result = fresh_run(cfg, datasets=datasets)
        resolved = dataclasses.replace(cfg, learning_rate=harness.DEFAULT_LR_PEFT)
        names = [field.name for field in dataclasses.fields(sp.TrainConfig)]
        assert list(result.hyperparameters) == [name for name in names if name != "seed"]
        for name, value in result.hyperparameters.items():
            assert value == getattr(resolved, name), name


class TestPredict:
    # The README demo dims, one request of 64 examples.
    DESK = sp.ModelConfig(num_layers=4, hidden_size=32, num_heads=4, ffn_size=64,
                          vocab_size=40, max_positions=16, lora_rank=8, lora_alpha=16)
    DESK_TASK = TaskSpec(kind="pair_classification", vocab_size=40, seq_len=11,
                         train_size=1, val_size=64, seed=0)

    def desk_store(self):
        store = sp.build_model(self.DESK, seed=0)
        sp.attach_lora(store, sp.compile_plan(sp.parse_plan_spec("fullft"), self.DESK), seed=0)
        return store

    def test_empty_records_rejected(self):
        store = sp.build_model(MODEL_CFG, seed=3)
        with pytest.raises(InputError, match="at least one record"):
            predict(store, TASK, [])
        with pytest.raises(InputError, match="at least one record"):
            evaluate(store, TASK, [])

    @pytest.fixture
    def closures(self, monkeypatch):
        """One flag per node the ops create: does it hold a backward closure."""
        flags, result = [], T._result

        def counting_result(data, parents, backward_fn):
            out = result(data, parents, backward_fn)
            flags.append(out._backward_fn is not None)
            return out

        monkeypatch.setattr(T, "_result", counting_result)
        return flags

    def test_builds_no_backward_closure(self, closures):
        store = self.desk_store()
        _, val = generate_task(self.DESK_TASK)
        tokens, types = encode_batch(self.DESK_TASK, val)
        logits = model_forward(store, tokens, types, mode="eval")
        assert sum(closures) == 59  # the same forward with its graph (107 with
        # the 13-node primitive attention chain); the one past 58 cuts the
        # last layer's query stream to position 0
        closures.clear()
        preds = predict(store, self.DESK_TASK, val)
        assert closures and sum(closures) == 0
        np.testing.assert_array_equal(preds, np.argmax(logits.data, axis=1))

    def test_public_no_grad_builds_no_backward_closure(self, closures):
        store = self.desk_store()
        _, val = generate_task(self.DESK_TASK)
        tokens, types = encode_batch(self.DESK_TASK, val)
        with sp.no_grad():
            logits = sp.model_forward(store, tokens, types, mode="eval")
        assert closures and sum(closures) == 0
        assert logits._backward_fn is None and not logits.requires_grad
        assert "no_grad" in sp.__all__

    @pytest.mark.parametrize("spec,count", [
        ("fullft", 73),
        ("fullbitfit", 66),
        ("fulllora-II", 66),
        ("spafit:N1=1,N2=2,mode=II", 51),
    ])
    def test_graph_restored_after_forward_raises(self, desk_loss, closures, spec, count):
        """A second batch whose token id is out of range fails inside the
        forward; a training loss built after it still has its full graph
        (the counts pinned in ``test_model.TestTrainingGraph``; 120/113/113/86
        with the 13-node primitive attention chain)."""
        _, val = generate_task(self.DESK_TASK)
        bad = DatasetRecord(text_a=[self.DESK.vocab_size], text_b=val[0].text_b, label=0)
        with pytest.raises(InputError, match="token id out of range"):
            predict(self.desk_store(), self.DESK_TASK, val + [bad])
        closures.clear()
        desk_loss(spec)
        assert sum(closures) == count


COMPARE_SPECS = ["fullft", "fullbitfit", "fulllora-I", "spafit:N1=0,N2=1,mode=II"]


@pytest.fixture(scope="module")
def table(datasets):
    train, val = datasets
    specs = [sp.parse_plan_spec(s) for s in COMPARE_SPECS]
    cfg = sp.TrainConfig(learning_rate=2e-3, epochs=2, seed=1)
    return compare_configs(specs, MODEL_CFG, TASK, cfg, model_seed=3,
                           train_records=train, val_records=val)


class TestCompareConfigs:
    SPECS = COMPARE_SPECS

    def test_one_row_per_spec_in_order(self, table):
        assert [r.plan_spec for r in table.rows] == self.SPECS

    def test_param_column_matches_count_trainable(self, table):
        for text, row in zip(self.SPECS, table.rows):
            plan = sp.compile_plan(sp.parse_plan_spec(text), MODEL_CFG)
            assert row.trainable_count == count_trainable(plan, MODEL_CFG,
                                                          include_head=True)

    def test_best_flag_excludes_full_ft(self, table):
        assert table.best_peft_index is not None
        assert table.rows[table.best_peft_index].plan_spec != "fullft"
        peft_values = [r.metric_value for r, t in zip(table.rows, self.SPECS)
                       if t != "fullft"]
        assert table.rows[table.best_peft_index].metric_value == max(peft_values)

    def test_csv_shape(self, table):
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "plan,trainable_params,learning_rate,metric,value,best_peft"
        assert len(lines) == 1 + len(self.SPECS)
        assert sum(line.endswith(",yes") for line in lines[1:]) == 1

    def test_single_spec_flagged_best(self, datasets):
        train, val = datasets
        cfg = sp.TrainConfig(learning_rate=2e-3, epochs=1, seed=1)
        table = compare_configs([sp.parse_plan_spec("fullbitfit")], MODEL_CFG,
                                TASK, cfg, model_seed=3,
                                train_records=train, val_records=val)
        assert table.best_peft_index == 0

    @pytest.mark.parametrize("given", ["train_records", "val_records"])
    def test_records_given_alone_rejected(self, datasets, given):
        train, val = datasets
        cfg = sp.TrainConfig(learning_rate=2e-3, epochs=1, seed=1)
        records = {"train_records": train[:2], "val_records": val[:2]}
        with pytest.raises(InputError, match="train_records and val_records"):
            compare_configs([sp.parse_plan_spec("fullbitfit")], MODEL_CFG, TASK, cfg,
                            model_seed=3, **{given: records[given]})

    def test_end_to_end_determinism(self, datasets):
        train, val = datasets
        cfg = sp.TrainConfig(learning_rate=2e-3, epochs=1, seed=1)
        specs = [sp.parse_plan_spec("fulllora-I")]
        a = compare_configs(specs, MODEL_CFG, TASK, cfg, 3,
                            train_records=train, val_records=val)
        b = compare_configs(specs, MODEL_CFG, TASK, cfg, 3,
                            train_records=train, val_records=val)
        assert a.to_csv() == b.to_csv()


# The README demo dims, with dropout.
DESK_MODEL = sp.ModelConfig(num_layers=4, hidden_size=32, num_heads=4, ffn_size=64,
                            vocab_size=40, max_positions=16, lora_rank=8, lora_alpha=16,
                            dropout_p=0.1)
DESK_TASK = TaskSpec(kind="pair_classification", vocab_size=40, seq_len=11,
                     train_size=64, val_size=32, seed=0)


def store_digest(store) -> str:
    """sha256 over every parameter and LoRA factor, by name."""
    digest = hashlib.sha256()
    for name, tensor in sorted((store.params | store.factors()).items()):
        digest.update(name.encode())
        digest.update(tensor.data.tobytes())
    return digest.hexdigest()


def refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} entered")
    return refused


class TestTrainFresh:
    @pytest.mark.parametrize("text", STANDARD_PLANS)
    def test_matches_the_inline_sequence(self, text):
        """``train_fresh`` is build, attach with the same seed, train: the
        same losses, metric, trainable count and final bits."""
        plan = sp.compile_plan(sp.parse_plan_spec(text), DESK_MODEL)
        train, val = generate_task(DESK_TASK)
        cfg = sp.TrainConfig(learning_rate=2e-3, epochs=2, seed=1)
        inline = sp.attach_lora(sp.build_model(DESK_MODEL, seed=7), plan, seed=7)
        want = train_run(inline, plan, DESK_TASK, train, val, cfg)
        store, got = train_fresh(plan, 7, DESK_TASK, train, val, cfg)
        assert got.epoch_losses == want.epoch_losses
        assert (got.metric_name, got.metric_value) == (want.metric_name, want.metric_value)
        assert got.trainable_count == want.trainable_count
        assert store_digest(store) == store_digest(inline)

    def test_compare_checks_every_plan_before_any_row_trains(self, monkeypatch):
        """A spec the model cannot take fails before data is generated or
        the rows ahead of it train."""
        for name in ("generate_task", "train_run"):
            monkeypatch.setattr(harness, name, refuse(name))
        specs = [sp.parse_plan_spec(t) for t in ("fullft", "spafit:N1=1,N2=9,mode=II")]
        with pytest.raises(PlanError, match="N2=9"):
            compare_configs(specs, DESK_MODEL, DESK_TASK,
                            sp.TrainConfig(learning_rate=2e-3, epochs=1, seed=1),
                            model_seed=0)


class TestLearnability:
    def test_peft_plan_reaches_090_of_full_ft_metric(self):
        """On the planted-rule pair task at toy scale, the stratified plan
        must hold at least 90% of the full fine-tuning metric."""
        model_cfg = sp.ModelConfig(num_layers=4, hidden_size=32, num_heads=4,
                                   ffn_size=64, vocab_size=40, max_positions=16,
                                   lora_rank=8, lora_alpha=16, dropout_p=0.1)
        task = TaskSpec(kind="pair_classification", vocab_size=40, seq_len=11,
                        train_size=2000, val_size=400, seed=11)
        train, val = generate_task(task)
        cfg = sp.TrainConfig(learning_rate=2e-3, batch_size=16, epochs=10, seed=0)

        def run(plan_text):
            store = sp.build_model(model_cfg, seed=0)
            plan = sp.compile_plan(sp.parse_plan_spec(plan_text), model_cfg)
            sp.attach_lora(store, plan, seed=0)
            return train_run(store, plan, task, train, val, cfg).metric_value

        full_ft = run("fullft")
        stratified = run("spafit:N1=1,N2=2,mode=II")
        assert stratified >= 0.9 * full_ft


class TestParamOrdering:
    def test_reference_dims_published_ordering_vs_ours(self):
        """The published table orders FullFT > BitFit > LoRA-II > LoRA-I;
        our own convention orders BitFit last. Both orderings are pinned."""
        from spafit.plan import PUBLISHED_COUNTS_M, published_convention_count
        pub = PUBLISHED_COUNTS_M
        assert pub["fullft"] > pub["fullbitfit"] > pub["fulllora-II"] > pub["fulllora-I"]

        bert = sp.ModelConfig(num_layers=24, hidden_size=1024, num_heads=16,
                              ffn_size=4096, vocab_size=28996, max_positions=512,
                              type_vocab_size=2, lora_rank=64, lora_alpha=128)
        ours = {t: published_convention_count(
            sp.compile_plan(sp.parse_plan_spec(t), bert))
            for t in ("fullft", "fullbitfit", "fulllora-I", "fulllora-II")}
        assert ours["fullft"] > ours["fulllora-II"] > ours["fulllora-I"] \
            > ours["fullbitfit"]

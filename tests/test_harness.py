"""Training harness: determinism, zero-epoch base case, comparisons."""

import pytest

import spafit as sp
from spafit.errors import TrainingDivergedError
from spafit.harness import compare_configs, evaluate, predict, train_run
from spafit.metrics import accuracy
from spafit.plan import count_trainable
from spafit.tasks import TaskSpec, generate_task, labels_array

MODEL_CFG = sp.ModelConfig(num_layers=2, hidden_size=16, num_heads=2, ffn_size=32,
                           vocab_size=40, max_positions=16, lora_rank=4,
                           lora_alpha=8, dropout_p=0.1)
TASK = TaskSpec(kind="pair_classification", vocab_size=40, seq_len=9,
                train_size=160, val_size=80, seed=5)


@pytest.fixture(scope="module")
def datasets():
    return generate_task(TASK)


def fresh_run(train_cfg, plan_text="spafit:N1=0,N2=1,mode=II", datasets=None,
              metric=None):
    store = sp.build_model(MODEL_CFG, seed=3)
    plan = sp.compile_plan(sp.parse_plan_spec(plan_text), MODEL_CFG)
    sp.attach_lora(store, plan, seed=3)
    train, val = datasets
    result = train_run(store, plan, TASK, train, val, train_cfg, metric)
    return store, result


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
        _, result = fresh_run(cfg, datasets=datasets, metric="f1")
        assert result.metric_name == "f1"
        assert 0.0 <= result.metric_value <= 1.0

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
        assert lines[0] == "plan,trainable_params,metric,value,best_peft"
        assert len(lines) == 1 + len(self.SPECS)
        assert sum(line.endswith(",yes") for line in lines[1:]) == 1

    def test_single_spec_flagged_best(self, datasets):
        train, val = datasets
        cfg = sp.TrainConfig(learning_rate=2e-3, epochs=1, seed=1)
        table = compare_configs([sp.parse_plan_spec("fullbitfit")], MODEL_CFG,
                                TASK, cfg, model_seed=3,
                                train_records=train, val_records=val)
        assert table.best_peft_index == 0

    def test_end_to_end_determinism(self, datasets):
        train, val = datasets
        cfg = sp.TrainConfig(learning_rate=2e-3, epochs=1, seed=1)
        specs = [sp.parse_plan_spec("fulllora-I")]
        a = compare_configs(specs, MODEL_CFG, TASK, cfg, 3,
                            train_records=train, val_records=val)
        b = compare_configs(specs, MODEL_CFG, TASK, cfg, 3,
                            train_records=train, val_records=val)
        assert a.to_csv() == b.to_csv()


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

"""Training/evaluation loops and multi-plan comparison runs.

A run owns its store exclusively: minibatch shuffling and dropout draw from
one generator seeded by the train config, so a (seed, data, config) triple
pins every float of the result. ``train_fresh`` starts every fresh run:
``spafit train`` and each ``compare_configs`` row go through it, and
``compare_configs`` compiles every plan before it generates data.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import metrics as M
from . import tensor as T
from .errors import InputError, TrainingDivergedError
from .model import ModelConfig, ParamStore, build_model, model_forward
from .optim import DEFAULT_LR_FULL_FT, DEFAULT_LR_PEFT, AdamW, TrainConfig
from .plan import FinetunePlan, PlanKind, PlanSpec, attach_lora, compile_plan, count_trainable
from .tasks import (
    PAIR_REGRESSION,
    DatasetRecord,
    TaskSpec,
    encode_batch,
    generate_task,
    labels_array,
)

@dataclass
class RunResult:
    """Everything needed to reproduce and report one training run."""

    plan_spec: str
    trainable_count: int
    epoch_losses: list[float]
    metric_name: str
    metric_value: float
    wall_clock_s: float
    seed: int
    hyperparameters: dict

    def to_dict(self) -> dict:
        return asdict(self)


_PREDICT_BATCH_SIZE = 64


def predict(store: ParamStore, spec: TaskSpec, records: list[DatasetRecord]) -> np.ndarray:
    """Eval-mode predictions: class ids, or raw scores for regression. The
    forward builds no autodiff graph. A non-finite logit means the weights
    have diverged, and raises ``TrainingDivergedError`` rather than score."""
    if not records:
        raise InputError("predict needs at least one record")
    outputs = []
    for start in range(0, len(records), _PREDICT_BATCH_SIZE):
        chunk = records[start:start + _PREDICT_BATCH_SIZE]
        tokens, types = encode_batch(spec, chunk)
        with T.no_grad():
            logits = model_forward(store, tokens, types, mode="eval")
        finite = np.isfinite(logits.data)
        if not finite.all():
            raise TrainingDivergedError(None, float(logits.data[~finite][0]))
        if spec.kind == PAIR_REGRESSION:
            outputs.append(logits.data[:, 0])
        else:
            outputs.append(np.argmax(logits.data, axis=1))
    return np.concatenate(outputs)


def _check_head(store: ParamStore, spec: TaskSpec) -> None:
    if store.config.num_labels != spec.model_num_labels:
        raise InputError(f"model head has {store.config.num_labels} outputs but the "
                         f"{spec.kind} task needs {spec.model_num_labels}")


def evaluate(store: ParamStore, spec: TaskSpec, records: list[DatasetRecord]) -> tuple[str, float]:
    """The task's metric name and value of the store on ``records`` (eval mode)."""
    _check_head(store, spec)
    preds = predict(store, spec, records)
    gold = labels_array(spec, records)
    name = spec.metric_name
    return name, float(M.METRICS[name](preds.tolist(), gold.tolist()))


def _batch_loss(store: ParamStore, spec: TaskSpec, tokens: np.ndarray,
                types: np.ndarray, labels: np.ndarray,
                rng: np.random.Generator) -> T.Tensor:
    logits = model_forward(store, tokens, types, mode="train", rng=rng)
    if spec.kind == PAIR_REGRESSION:
        return T.mse_loss(logits, labels.reshape(-1, 1))
    return T.cross_entropy(logits, labels)


def default_learning_rate(spec: PlanSpec) -> float:
    """The rate a plan trains at when none is given: full fine-tuning takes
    the smaller default, every parameter-efficient plan the larger."""
    return DEFAULT_LR_FULL_FT if spec.kind is PlanKind.FULL_FT else DEFAULT_LR_PEFT


def train_run(store: ParamStore, plan: FinetunePlan, task_spec: TaskSpec,
              train_records: list[DatasetRecord], val_records: list[DatasetRecord],
              cfg: TrainConfig) -> RunResult:
    """Minibatch AdamW over the plan's trainables, then a validation pass.
    A ``cfg`` without a learning rate trains at the plan's default. Each
    step updates every optimizer bucket inside its backward pass, as soon as
    the bucket's gradients are complete, and drops them; so the run holds
    one step's activations and never a full set of gradients, and returns
    the store without gradients."""
    _check_head(store, task_spec)
    if not train_records:
        raise InputError("train_run needs at least one training record")
    if not val_records:
        raise InputError("train_run needs at least one validation record")
    if cfg.learning_rate is None:
        cfg = replace(cfg, learning_rate=default_learning_rate(plan.spec))
    started = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    optimizer = AdamW(store.trainable_parameters(), cfg)

    tokens, types = encode_batch(task_spec, train_records)
    labels = labels_array(task_spec, train_records)
    n = len(train_records)

    step = 0
    epoch_losses: list[float] = []
    # Gradients held from before the run would add into the first step;
    # each step's own are dropped as its buckets are updated, and backward
    # frees the graph itself.
    optimizer.zero_grad()
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss = _batch_loss(store, task_spec, tokens[idx], types[idx],
                               labels[idx], rng)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDivergedError(step, value)
            optimizer.backward_step(loss)
            losses.append(value)
            step += 1
        epoch_losses.append(float(np.mean(losses)))

    name, value = evaluate(store, task_spec, val_records)
    return RunResult(
        plan_spec=str(plan.spec),
        trainable_count=count_trainable(plan, store.config, include_head=True),
        epoch_losses=epoch_losses,
        metric_name=name,
        metric_value=value,
        wall_clock_s=time.perf_counter() - started,
        seed=cfg.seed,
        hyperparameters={
            "learning_rate": cfg.learning_rate,
            "batch_size": cfg.batch_size,
            "epochs": cfg.epochs,
            "weight_decay": cfg.weight_decay,
            "betas": list(cfg.betas),
            "eps": cfg.eps,
        },
    )


def train_fresh(plan: FinetunePlan, model_seed: int, task_spec: TaskSpec,
                train_records: list[DatasetRecord], val_records: list[DatasetRecord],
                train_cfg: TrainConfig) -> tuple[ParamStore, RunResult]:
    """Train ``plan`` from a fresh base: the base weights and the plan's LoRA
    factors are both drawn from ``model_seed``. Returns the trained store and
    its result."""
    store = attach_lora(build_model(plan.config, model_seed), plan, seed=model_seed)
    return store, train_run(store, plan, task_spec, train_records, val_records, train_cfg)


@dataclass
class ComparisonTable:
    rows: list[RunResult]
    best_peft_index: int | None = None

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["plan", "trainable_params", "learning_rate", "metric", "value",
                         "best_peft"])
        for i, row in enumerate(self.rows):
            writer.writerow([row.plan_spec, row.trainable_count,
                             row.hyperparameters["learning_rate"], row.metric_name,
                             f"{row.metric_value:.6f}",
                             "yes" if i == self.best_peft_index else ""])
        return buf.getvalue()


def compare_configs(specs: list[PlanSpec], model_cfg: ModelConfig, task_spec: TaskSpec,
                    train_cfg: TrainConfig, model_seed: int,
                    train_records: list[DatasetRecord] | None = None,
                    val_records: list[DatasetRecord] | None = None) -> ComparisonTable:
    """Train every plan from the same base weights; one result row per spec.

    Every spec is compiled first, so a spec the model cannot take raises its
    ``PlanError`` before any data is generated or any row trains. The best
    row among the parameter-efficient plans (full fine-tuning is excluded
    from the comparison) is flagged. A ``train_cfg`` without a learning rate
    trains each plan at its own default. Without records, the task spec's
    generated train/val split is used.
    """
    if (train_records is None) != (val_records is None):
        raise InputError("compare_configs takes both train_records and val_records, "
                         "or neither")
    plans = [compile_plan(spec, model_cfg) for spec in specs]
    if train_records is None:
        train_records, val_records = generate_task(task_spec)

    rows = [train_fresh(plan, model_seed, task_spec, train_records, val_records,
                        train_cfg)[1]
            for plan in plans]

    best: int | None = None
    for i, (spec, row) in enumerate(zip(specs, rows)):
        if spec.kind is PlanKind.FULL_FT:
            continue
        if best is None or row.metric_value > rows[best].metric_value:
            best = i
    return ComparisonTable(rows=rows, best_peft_index=best)

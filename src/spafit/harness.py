"""Training/evaluation loops and multi-plan comparison runs.

A run owns its store exclusively: minibatch shuffling and dropout draw from
one generator seeded by the train config, so a (seed, data, config) triple
pins every float of the result.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import metrics as M
from . import tensor as T
from .errors import InputError, TrainingDivergedError
from .model import ModelConfig, ParamStore, build_model, model_forward
from .optim import AdamW, TrainConfig
from .plan import FinetunePlan, PlanKind, PlanSpec, attach_lora, compile_plan, count_trainable
from .tasks import (
    PAIR_REGRESSION,
    DatasetRecord,
    TaskSpec,
    encode_batch,
    generate_task,
    labels_array,
)

_METRIC_FNS = {
    "accuracy": M.accuracy,
    "f1": M.f1_binary,
    "mcc": M.matthews_corr,
    "pearson": M.pearson_corr,
}


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
    """Eval-mode predictions: class ids, or raw scores for regression."""
    outputs = []
    for start in range(0, len(records), _PREDICT_BATCH_SIZE):
        chunk = records[start:start + _PREDICT_BATCH_SIZE]
        tokens, types = encode_batch(spec, chunk)
        logits = model_forward(store, tokens, types, mode="eval")
        if spec.kind == PAIR_REGRESSION:
            outputs.append(logits.data[:, 0])
        else:
            outputs.append(np.argmax(logits.data, axis=1))
    return np.concatenate(outputs)


def evaluate(store: ParamStore, spec: TaskSpec, records: list[DatasetRecord],
             metric: str | None = None) -> tuple[str, float]:
    """Metric name and value of the store on ``records`` (eval mode)."""
    name = metric or spec.metric_name
    if name not in _METRIC_FNS:
        raise InputError(f"unknown metric {name!r}; choose from {sorted(_METRIC_FNS)}")
    if name == "pearson" and spec.kind != PAIR_REGRESSION:
        raise InputError("pearson is only defined for regression tasks")
    if name in ("f1", "mcc") and spec.kind == PAIR_REGRESSION:
        raise InputError(f"{name} is only defined for classification tasks")
    preds = predict(store, spec, records)
    gold = labels_array(spec, records)
    return name, float(_METRIC_FNS[name](preds.tolist(), gold.tolist()))


def _batch_loss(store: ParamStore, spec: TaskSpec, tokens: np.ndarray,
                types: np.ndarray, labels: np.ndarray,
                rng: np.random.Generator) -> T.Tensor:
    logits = model_forward(store, tokens, types, mode="train", rng=rng)
    if spec.kind == PAIR_REGRESSION:
        return T.mse_loss(logits, labels.reshape(-1, 1))
    return T.cross_entropy(logits, labels)


def train_run(store: ParamStore, plan: FinetunePlan, task_spec: TaskSpec,
              train_records: list[DatasetRecord], val_records: list[DatasetRecord],
              cfg: TrainConfig, metric: str | None = None) -> RunResult:
    """Minibatch AdamW over the plan's trainables, then a validation pass."""
    started = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    optimizer = AdamW(store.trainable_parameters(), cfg)

    tokens, types = encode_batch(task_spec, train_records)
    labels = labels_array(task_spec, train_records)
    n = len(train_records)

    step = 0
    epoch_losses: list[float] = []
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
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(value)
            step += 1
        epoch_losses.append(float(np.mean(losses)))

    name, value = evaluate(store, task_spec, val_records, metric)
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


@dataclass
class ComparisonTable:
    rows: list[RunResult]
    best_peft_index: int | None = None

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["plan", "trainable_params", "metric", "value", "best_peft"])
        for i, row in enumerate(self.rows):
            writer.writerow([row.plan_spec, row.trainable_count, row.metric_name,
                             f"{row.metric_value:.6f}",
                             "yes" if i == self.best_peft_index else ""])
        return buf.getvalue()


def compare_configs(specs: list[PlanSpec], model_cfg: ModelConfig, task_spec: TaskSpec,
                    train_cfg: TrainConfig, model_seed: int,
                    train_records: list[DatasetRecord] | None = None,
                    val_records: list[DatasetRecord] | None = None,
                    metric: str | None = None) -> ComparisonTable:
    """Train every plan from the same base weights; one result row per spec.

    The best row among the parameter-efficient plans (full fine-tuning is
    excluded from the comparison) is flagged.
    """
    if train_records is None or val_records is None:
        train_records, val_records = generate_task(task_spec)

    rows: list[RunResult] = []
    for spec in specs:
        store = build_model(model_cfg, model_seed)
        plan = compile_plan(spec, model_cfg)
        attach_lora(store, plan, seed=model_seed)
        rows.append(train_run(store, plan, task_spec, train_records, val_records,
                              train_cfg, metric))

    best: int | None = None
    for i, (spec, row) in enumerate(zip(specs, rows)):
        if spec.kind is PlanKind.FULL_FT:
            continue
        if best is None or row.metric_value > rows[best].metric_value:
            best = i
    return ComparisonTable(rows=rows, best_peft_index=best)

"""Synthetic benchmark tasks with planted, exactly-recoverable labeling rules.

Three task families mirror the usual text-classification shapes:

  single_sentence_classification  one segment; the label is the class whose
                                  marker token was planted in the sentence
  pair_classification             two segments; label 1 iff the token-set
                                  overlap coefficient reaches 0.5 (positives
                                  reuse the first segment's tokens, negatives
                                  come from a disjoint distractor pool)
  pair_regression                 score in [0, 5]: scaled overlap coefficient
                                  plus seeded Gaussian noise, clipped

First segments draw from the lower half of the content vocabulary and
non-shared second-segment tokens from the upper half, mirroring how
unrelated sentence pairs use different topical vocabulary; the planted
overlap rule stays exact while the class marginals remain separable at
desk scale.

Token ids 0/1/2 are reserved for PAD/CLS/SEP; content ids start at 3.
Everything is deterministic in the task seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import TaskSpecError

PAD_ID, CLS_ID, SEP_ID = 0, 1, 2
FIRST_CONTENT_ID = 3

SINGLE_CLASSIFICATION = "single_sentence_classification"
PAIR_CLASSIFICATION = "pair_classification"
PAIR_REGRESSION = "pair_regression"
TASK_KINDS = (SINGLE_CLASSIFICATION, PAIR_CLASSIFICATION, PAIR_REGRESSION)

SCORE_RANGE = (0.0, 5.0)
OVERLAP_THRESHOLD = 0.5


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    vocab_size: int
    seq_len: int
    train_size: int
    val_size: int
    seed: int
    num_labels: int = 2
    noise_std: float = 0.15

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise TaskSpecError(f"unknown task kind {self.kind!r}")
        if self.train_size < 1 or self.val_size < 1:
            raise TaskSpecError("train/val sizes must be >= 1")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise TaskSpecError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.kind == SINGLE_CLASSIFICATION:
            if self.num_labels < 2:
                raise TaskSpecError("classification needs >= 2 labels")
            if self.seq_len < 3:
                raise TaskSpecError(f"seq_len {self.seq_len} leaves no content room")
            # marker ids plus at least a couple of filler ids must fit
            if self.vocab_size < FIRST_CONTENT_ID + self.num_labels + 2:
                raise TaskSpecError(
                    f"vocab_size {self.vocab_size} too small for {self.num_labels} "
                    "marker tokens plus filler")
        else:
            if self.kind == PAIR_CLASSIFICATION and self.num_labels != 2:
                raise TaskSpecError("pair classification is binary")
            if self.seq_len < 5:
                raise TaskSpecError(f"seq_len {self.seq_len} cannot hold two segments")
            # both the topic pool and the distractor pool must be non-trivial
            if self.vocab_size - FIRST_CONTENT_ID < 2 * self.segment_lengths()[0]:
                raise TaskSpecError(
                    f"vocab_size {self.vocab_size} too small for disjoint "
                    "topic and distractor pools")

    def segment_lengths(self) -> tuple[int, int]:
        """Content token counts (first, second); second is 0 for single tasks."""
        if self.kind == SINGLE_CLASSIFICATION:
            return self.seq_len - 2, 0
        content = self.seq_len - 3
        first = (content + 1) // 2
        return first, content - first

    @property
    def metric_name(self) -> str:
        return "pearson" if self.kind == PAIR_REGRESSION else "accuracy"

    @property
    def model_num_labels(self) -> int:
        return 1 if self.kind == PAIR_REGRESSION else self.num_labels


@dataclass
class DatasetRecord:
    text_a: list[int]
    text_b: list[int] | None
    label: int | float


def overlap_coefficient(a: list[int], b: list[int]) -> float:
    """|set(a) & set(b)| / min(|set(a)|, |set(b)|)."""
    sa, sb = set(a), set(b)
    return len(sa & sb) / min(len(sa), len(sb))


def _marker_id(spec: TaskSpec, label: int) -> int:
    return FIRST_CONTENT_ID + label


def _single_record(spec: TaskSpec, rng: np.random.Generator) -> DatasetRecord:
    n, _ = spec.segment_lengths()
    label = int(rng.integers(spec.num_labels))
    filler_lo = FIRST_CONTENT_ID + spec.num_labels
    tokens = rng.integers(filler_lo, spec.vocab_size, size=n)
    copies = int(rng.integers(1, min(3, n) + 1))
    where = rng.choice(n, size=copies, replace=False)
    tokens[where] = _marker_id(spec, label)
    return DatasetRecord(text_a=tokens.tolist(), text_b=None, label=label)


def _content_pools(spec: TaskSpec) -> tuple[np.ndarray, np.ndarray]:
    """Topic pool (first segments, shared tokens) and distractor pool."""
    content = np.arange(FIRST_CONTENT_ID, spec.vocab_size)
    half = len(content) // 2
    return content[:half], content[half:]


def _pair_segments(spec: TaskSpec, rng: np.random.Generator,
                   shared: int) -> tuple[list[int], list[int]]:
    """First segment from the topic pool; ``shared`` of the second's tokens
    reuse it, the rest come from the distractor pool."""
    n_a, n_b = spec.segment_lengths()
    topic, distractor = _content_pools(spec)
    a = rng.choice(topic, size=n_a, replace=True)
    b = np.empty(n_b, dtype=np.int64)
    from_a = rng.choice(np.arange(n_b), size=shared, replace=False)
    mask = np.zeros(n_b, dtype=bool)
    mask[from_a] = True
    b[mask] = rng.choice(a, size=shared, replace=True)
    b[~mask] = rng.choice(distractor, size=n_b - shared, replace=True)
    return a.tolist(), b.tolist()


def _pair_classification_record(spec: TaskSpec, rng: np.random.Generator) -> DatasetRecord:
    _, n_b = spec.segment_lengths()
    positive = bool(rng.integers(2))
    a, b = _pair_segments(spec, rng, shared=n_b if positive else 0)
    label = int(overlap_coefficient(a, b) >= OVERLAP_THRESHOLD)
    return DatasetRecord(text_a=a, text_b=b, label=label)


def _pair_regression_record(spec: TaskSpec, rng: np.random.Generator) -> DatasetRecord:
    _, n_b = spec.segment_lengths()
    shared = int(rng.integers(0, n_b + 1))
    a, b = _pair_segments(spec, rng, shared=shared)
    lo, hi = SCORE_RANGE
    score = hi * overlap_coefficient(a, b) + rng.normal(0.0, spec.noise_std)
    return DatasetRecord(text_a=a, text_b=b, label=float(np.clip(score, lo, hi)))


def planted_rule_label(spec: TaskSpec, record: DatasetRecord) -> int | float:
    """Re-derive the label from the planted rule alone (the Bayes predictor)."""
    if spec.kind == SINGLE_CLASSIFICATION:
        present = [c for c in range(spec.num_labels)
                   if _marker_id(spec, c) in record.text_a]
        return present[0] if len(present) == 1 else -1
    overlap = overlap_coefficient(record.text_a, record.text_b)
    if spec.kind == PAIR_CLASSIFICATION:
        return int(overlap >= OVERLAP_THRESHOLD)
    return SCORE_RANGE[1] * overlap


def generate_task(spec: TaskSpec) -> tuple[list[DatasetRecord], list[DatasetRecord]]:
    """Deterministic (train, validation) split for ``spec``."""
    rng = np.random.default_rng(spec.seed)
    make = {
        SINGLE_CLASSIFICATION: _single_record,
        PAIR_CLASSIFICATION: _pair_classification_record,
        PAIR_REGRESSION: _pair_regression_record,
    }[spec.kind]
    train = [make(spec, rng) for _ in range(spec.train_size)]
    val = [make(spec, rng) for _ in range(spec.val_size)]
    return train, val


def encode_batch(spec: TaskSpec, records: list[DatasetRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Pack records into [batch, seq_len] token-id and type-id arrays.

    Single tasks encode as [CLS] a [SEP]; pair tasks as [CLS] a [SEP] b [SEP]
    with type id 1 over the second segment and its trailing separator.
    """
    token_rows, type_rows = [], []
    for rec in records:
        tokens = [CLS_ID, *rec.text_a, SEP_ID]
        types = [0] * len(tokens)
        if rec.text_b is not None:
            tokens += [*rec.text_b, SEP_ID]
            types += [1] * (len(rec.text_b) + 1)
        token_rows.append(tokens)
        type_rows.append(types)
    return np.asarray(token_rows, dtype=np.int64), np.asarray(type_rows, dtype=np.int64)


def labels_array(spec: TaskSpec, records: list[DatasetRecord]) -> np.ndarray:
    if spec.kind == PAIR_REGRESSION:
        return np.asarray([r.label for r in records], dtype=np.float64)
    return np.asarray([r.label for r in records], dtype=np.int64)


# -- line-delimited serialization ---------------------------------------------


def save_dataset(records: list[DatasetRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            row = {"text_a": rec.text_a, "label": rec.label}
            if rec.text_b is not None:
                row["text_b"] = rec.text_b
            fh.write(json.dumps(row) + "\n")


def load_dataset(path: str | Path) -> list[DatasetRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            records.append(DatasetRecord(text_a=row["text_a"],
                                         text_b=row.get("text_b"),
                                         label=row["label"]))
    return records

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

Data contract. One ``np.random.default_rng(seed)`` draws the training
records, then the validation records. With n (single) or n_a, n_b (pair)
the segment lengths, each record makes these generator calls, in order:

  single    integers(num_labels) for the label; integers(3 + num_labels,
            vocab_size, size=n) for the filler; integers(1, min(3, n) + 1)
            for the marker count c; choice(n, size=c, replace=False) for
            the marker positions
  pair      integers(2) (classification: 1 shares all n_b tokens, 0 none)
            or integers(0, n_b + 1) (regression) for the shared count s;
            integers(3, d, size=n_a) for the first segment, d the first
            distractor id; if s > 0, choice(n_b, size=s, replace=False)
            for the shared positions, then integers(n_a, size=s) for which
            first-segment tokens fill them, in ascending position order; if
            s < n_b, integers(d, vocab_size, size=n_b - s) for the other
            positions; regression then draws normal(0.0, noise_std)

A draw of size 0 consumes nothing, so it is not made. Labels come from the
planted rule. ``tests/test_tasks.py`` keeps the first implementation, one
``choice`` per draw, as a reference, and pins every record and the final
generator state to it. One maker makes single records and one makes both
pair kinds, which differ only in the draw of s and in the label.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import TaskSpecError, _check_int, _check_real
from .metrics import METRICS

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
    metric: str | None = None  # None: the kind's default, see metric_name

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise TaskSpecError(f"unknown task kind {self.kind!r}")
        for name in ("vocab_size", "seq_len", "train_size", "val_size", "num_labels", "seed"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, TaskSpecError))
        if self.seed < 0:
            raise TaskSpecError(f"task seed must be >= 0, got {self.seed}")
        if self.train_size < 1 or self.val_size < 1:
            raise TaskSpecError("train/val sizes must be >= 1")
        if self.kind == PAIR_REGRESSION and self.val_size < 3:
            raise TaskSpecError(f"a pair_regression task needs val_size >= 3 for its "
                                f"correlation (on two records it is always +/-1), "
                                f"got {self.val_size}")
        object.__setattr__(self, "noise_std",
                           _check_real(self.noise_std, "noise_std", TaskSpecError))
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
            if self.kind == PAIR_REGRESSION and self.num_labels != 2:
                raise TaskSpecError(f"a pair_regression task has one output and takes no "
                                    f"num_labels, got {self.num_labels}")
            if self.seq_len < 5:
                raise TaskSpecError(f"seq_len {self.seq_len} cannot hold two segments")
            # both the topic pool and the distractor pool must be non-trivial
            if self.vocab_size - FIRST_CONTENT_ID < 2 * self.segment_lengths()[0]:
                raise TaskSpecError(
                    f"vocab_size {self.vocab_size} too small for disjoint "
                    "topic and distractor pools")
        if self.metric is not None:
            if self.metric not in METRICS:
                raise TaskSpecError(f"metric {self.metric!r} is not one of {sorted(METRICS)}")
            if (self.metric == "pearson") != (self.kind == PAIR_REGRESSION):
                raise TaskSpecError(f"metric {self.metric!r} does not fit a {self.kind} task")
            if self.metric in ("f1", "mcc") and self.num_labels != 2:
                raise TaskSpecError(f"metric {self.metric!r} needs 2 labels, got {self.num_labels}")

    def segment_lengths(self) -> tuple[int, int]:
        """Content token counts (first, second); second is 0 for single tasks."""
        if self.kind == SINGLE_CLASSIFICATION:
            return self.seq_len - 2, 0
        content = self.seq_len - 3
        first = (content + 1) // 2
        return first, content - first

    @property
    def metric_name(self) -> str:
        return self.metric or ("pearson" if self.kind == PAIR_REGRESSION else "accuracy")

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


def _marker_id(label: int) -> int:
    return FIRST_CONTENT_ID + label


# Each maker below reads its spec's constants once and returns a function
# that draws one record from the stream. The draws, their order and their
# sizes are the data contract of the module docstring.


def _single_maker(spec: TaskSpec) -> Callable[[np.random.Generator], DatasetRecord]:
    n, _ = spec.segment_lengths()
    num_labels, vocab_size = spec.num_labels, spec.vocab_size
    filler_lo = FIRST_CONTENT_ID + num_labels
    copies_hi = min(3, n) + 1

    def make(rng: np.random.Generator) -> DatasetRecord:
        label = int(rng.integers(num_labels))
        tokens = rng.integers(filler_lo, vocab_size, size=n)
        copies = int(rng.integers(1, copies_hi))
        tokens[rng.choice(n, size=copies, replace=False)] = _marker_id(label)
        return DatasetRecord(text_a=tokens.tolist(), text_b=None, label=label)

    return make


def _pair_maker(spec: TaskSpec) -> Callable[[np.random.Generator], DatasetRecord]:
    """Both pair kinds. The first segment comes from the topic pool (the
    lower half of the content ids); ``shared`` of the second's tokens reuse
    it, at positions drawn without replacement, and the rest come from the
    distractor pool (the upper half). Only the draw of ``shared`` and the
    label differ by kind."""
    n_a, n_b = spec.segment_lengths()
    vocab_size, noise_std = spec.vocab_size, spec.noise_std
    distractor_lo = FIRST_CONTENT_ID + (vocab_size - FIRST_CONTENT_ID) // 2
    regression = spec.kind == PAIR_REGRESSION
    lo, hi = SCORE_RANGE

    def make(rng: np.random.Generator) -> DatasetRecord:
        if regression:
            shared = int(rng.integers(0, n_b + 1))
        else:
            shared = n_b if rng.integers(2) else 0
        a = rng.integers(FIRST_CONTENT_ID, distractor_lo, size=n_a)
        if not shared:
            b = rng.integers(distractor_lo, vocab_size, size=n_b)
        else:
            where = rng.choice(n_b, size=shared, replace=False)
            reused = a[rng.integers(n_a, size=shared)]
            if shared == n_b:
                b = reused
            else:
                # reused tokens fill the drawn positions in ascending position order
                mask = np.zeros(n_b, dtype=bool)
                mask[where] = True
                b = np.empty(n_b, dtype=np.int64)
                b[mask] = reused
                b[~mask] = rng.integers(distractor_lo, vocab_size, size=n_b - shared)
        a, b = a.tolist(), b.tolist()
        overlap = overlap_coefficient(a, b)
        if not regression:
            return DatasetRecord(text_a=a, text_b=b, label=int(overlap >= OVERLAP_THRESHOLD))
        score = hi * overlap + rng.normal(0.0, noise_std)
        return DatasetRecord(text_a=a, text_b=b, label=min(max(score, lo), hi))

    return make


def planted_rule_label(spec: TaskSpec, record: DatasetRecord) -> int | float:
    """Re-derive the label from the planted rule alone (the Bayes predictor)."""
    if spec.kind == SINGLE_CLASSIFICATION:
        present = [c for c in range(spec.num_labels) if _marker_id(c) in record.text_a]
        return present[0] if len(present) == 1 else -1
    overlap = overlap_coefficient(record.text_a, record.text_b)
    if spec.kind == PAIR_CLASSIFICATION:
        return int(overlap >= OVERLAP_THRESHOLD)
    return SCORE_RANGE[1] * overlap


def generate_task(spec: TaskSpec) -> tuple[list[DatasetRecord], list[DatasetRecord]]:
    """Deterministic (train, validation) split for ``spec``: one generator
    seeded with the task seed draws the training records, then the
    validation records. A regression split whose validation scores all
    coincide raises ``TaskSpecError``: its correlation is undefined."""
    rng = np.random.default_rng(spec.seed)
    make = (_single_maker if spec.kind == SINGLE_CLASSIFICATION else _pair_maker)(spec)
    train = [make(rng) for _ in range(spec.train_size)]
    val = [make(rng) for _ in range(spec.val_size)]
    if spec.kind == PAIR_REGRESSION and len({r.label for r in val}) == 1:
        raise TaskSpecError(f"every validation score of this pair_regression task is "
                            f"{val[0].label}, so its correlation is undefined; change "
                            "the task seed, val_size or noise_std")
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


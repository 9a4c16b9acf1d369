"""Synthetic task generators: determinism, planted-rule fidelity, encoding."""

import dataclasses

import numpy as np
import pytest

from spafit.errors import TaskSpecError
from spafit.tasks import (
    CLS_ID,
    FIRST_CONTENT_ID,
    OVERLAP_THRESHOLD,
    PAIR_CLASSIFICATION,
    PAIR_REGRESSION,
    SCORE_RANGE,
    SEP_ID,
    SINGLE_CLASSIFICATION,
    DatasetRecord,
    TaskSpec,
    encode_batch,
    generate_task,
    labels_array,
    overlap_coefficient,
    planted_rule_label,
)

PAIR = TaskSpec(kind="pair_classification", vocab_size=60, seq_len=19,
                train_size=200, val_size=50, seed=3)
SINGLE = TaskSpec(kind="single_sentence_classification", vocab_size=40,
                  seq_len=12, train_size=150, val_size=40, seed=4)
REGRESSION = TaskSpec(kind="pair_regression", vocab_size=60, seq_len=19,
                      train_size=120, val_size=30, seed=5)
SINGLE_3 = dataclasses.replace(SINGLE, num_labels=3)

# The metrics each task may name; the first is its default.
LEGAL_METRICS = [(PAIR, ("accuracy", "f1", "mcc")), (SINGLE, ("accuracy", "f1", "mcc")),
                 (SINGLE_3, ("accuracy",)), (REGRESSION, ("pearson",))]


# -- reference generator ------------------------------------------------------
# The record makers as first written, one numpy call per draw and nothing
# computed ahead. generate_task must reproduce every record and the final
# generator state of this reference; it pins the data contract.


def _ref_marker_id(spec, label):
    return FIRST_CONTENT_ID + label


def _ref_single_record(spec, rng):
    n, _ = spec.segment_lengths()
    label = int(rng.integers(spec.num_labels))
    filler_lo = FIRST_CONTENT_ID + spec.num_labels
    tokens = rng.integers(filler_lo, spec.vocab_size, size=n)
    copies = int(rng.integers(1, min(3, n) + 1))
    where = rng.choice(n, size=copies, replace=False)
    tokens[where] = _ref_marker_id(spec, label)
    return DatasetRecord(text_a=tokens.tolist(), text_b=None, label=label)


def _ref_content_pools(spec):
    content = np.arange(FIRST_CONTENT_ID, spec.vocab_size)
    half = len(content) // 2
    return content[:half], content[half:]


def _ref_pair_segments(spec, rng, shared):
    n_a, n_b = spec.segment_lengths()
    topic, distractor = _ref_content_pools(spec)
    a = rng.choice(topic, size=n_a, replace=True)
    b = np.empty(n_b, dtype=np.int64)
    from_a = rng.choice(np.arange(n_b), size=shared, replace=False)
    mask = np.zeros(n_b, dtype=bool)
    mask[from_a] = True
    b[mask] = rng.choice(a, size=shared, replace=True)
    b[~mask] = rng.choice(distractor, size=n_b - shared, replace=True)
    return a.tolist(), b.tolist()


def _ref_pair_classification_record(spec, rng):
    _, n_b = spec.segment_lengths()
    positive = bool(rng.integers(2))
    a, b = _ref_pair_segments(spec, rng, shared=n_b if positive else 0)
    label = int(overlap_coefficient(a, b) >= OVERLAP_THRESHOLD)
    return DatasetRecord(text_a=a, text_b=b, label=label)


def _ref_pair_regression_record(spec, rng):
    _, n_b = spec.segment_lengths()
    shared = int(rng.integers(0, n_b + 1))
    a, b = _ref_pair_segments(spec, rng, shared=shared)
    lo, hi = SCORE_RANGE
    score = hi * overlap_coefficient(a, b) + rng.normal(0.0, spec.noise_std)
    return DatasetRecord(text_a=a, text_b=b, label=float(np.clip(score, lo, hi)))


def reference_generate_task(spec):
    """(train, validation, final generator state) of the reference makers."""
    rng = np.random.default_rng(spec.seed)
    make = {
        SINGLE_CLASSIFICATION: _ref_single_record,
        PAIR_CLASSIFICATION: _ref_pair_classification_record,
        PAIR_REGRESSION: _ref_pair_regression_record,
    }[spec.kind]
    train = [make(spec, rng) for _ in range(spec.train_size)]
    val = [make(spec, rng) for _ in range(spec.val_size)]
    return train, val, rng.bit_generator.state


# Each kind at its smallest seq_len and vocab_size (no smaller spec is valid).
MINIMAL_SPECS = [
    TaskSpec(SINGLE_CLASSIFICATION, 7, 3, 30, 10, seed=0),
    TaskSpec(SINGLE_CLASSIFICATION, 8, 3, 30, 10, seed=0, num_labels=3),
    TaskSpec(PAIR_CLASSIFICATION, 5, 5, 30, 10, seed=0),
    TaskSpec(PAIR_REGRESSION, 5, 5, 30, 10, seed=0),
]
ORACLE_SPECS = MINIMAL_SPECS + [
    TaskSpec(SINGLE_CLASSIFICATION, 40, 11, 30, 10, seed=0),
    TaskSpec(SINGLE_CLASSIFICATION, 40, 12, 30, 10, seed=0, num_labels=3),
    TaskSpec(PAIR_CLASSIFICATION, 11, 11, 30, 10, seed=0),
    TaskSpec(PAIR_CLASSIFICATION, 40, 11, 30, 10, seed=0),
    TaskSpec(PAIR_CLASSIFICATION, 128, 8, 30, 10, seed=0),
    TaskSpec(PAIR_REGRESSION, 11, 11, 30, 10, seed=0, noise_std=0.0),
    TaskSpec(PAIR_REGRESSION, 40, 11, 30, 10, seed=0),
    TaskSpec(PAIR_REGRESSION, 60, 19, 30, 10, seed=0, noise_std=2.0),
]
ORACLE_SEEDS = range(20)


def _record_bits(record):
    """A record with its label's type and exact value (repr keeps -0.0)."""
    return (record.text_a, record.text_b, type(record.label), repr(record.label))


class TestReferenceOracle:
    @pytest.mark.parametrize("spec", ORACLE_SPECS,
                             ids=lambda s: f"{s.kind}-v{s.vocab_size}-s{s.seq_len}-"
                                           f"l{s.num_labels}-n{s.noise_std}")
    def test_every_record_and_final_state_match_the_reference(self, spec, monkeypatch):
        generators = []

        def default_rng(seed, real=np.random.default_rng):
            generators.append(real(seed))
            return generators[-1]

        for seed in ORACLE_SEEDS:
            spec = dataclasses.replace(spec, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", default_rng)
                train, val = generate_task(spec)
            ref_train, ref_val, ref_state = reference_generate_task(spec)
            assert [_record_bits(r) for r in train] == [_record_bits(r) for r in ref_train]
            assert [_record_bits(r) for r in val] == [_record_bits(r) for r in ref_val]
            assert len(generators) == seed + 1
            assert generators[-1].bit_generator.state == ref_state

    @pytest.mark.parametrize("spec", MINIMAL_SPECS, ids=lambda s: f"{s.kind}-l{s.num_labels}")
    @pytest.mark.parametrize("field", ["seq_len", "vocab_size"])
    def test_minimal_specs_are_minimal(self, spec, field):
        with pytest.raises(TaskSpecError):
            dataclasses.replace(spec, **{field: getattr(spec, field) - 1})


class TestDeterminism:
    @pytest.mark.parametrize("spec", [PAIR, SINGLE, REGRESSION])
    def test_same_seed_identical_datasets(self, spec):
        a_train, a_val = generate_task(spec)
        b_train, b_val = generate_task(spec)
        assert a_train == b_train
        assert a_val == b_val

    def test_different_seed_differs(self):
        other = TaskSpec(kind="pair_classification", vocab_size=60, seq_len=19,
                         train_size=200, val_size=50, seed=99)
        assert generate_task(PAIR)[0] != generate_task(other)[0]


class TestPlantedRules:
    def test_pair_rule_self_evaluation(self):
        train, val = generate_task(PAIR)
        records = train + val
        agree = sum(planted_rule_label(PAIR, r) == r.label for r in records)
        assert agree / len(records) >= 0.99

    def test_single_rule_self_evaluation(self):
        train, val = generate_task(SINGLE)
        records = train + val
        agree = sum(planted_rule_label(SINGLE, r) == r.label for r in records)
        assert agree / len(records) >= 0.99

    def test_both_classes_present(self):
        train, _ = generate_task(PAIR)
        labels = {r.label for r in train}
        assert labels == {0, 1}

    def test_regression_scores_in_range(self):
        train, val = generate_task(REGRESSION)
        scores = labels_array(REGRESSION, train + val)
        assert scores.min() >= 0.0
        assert scores.max() <= 5.0
        assert scores.std() > 0.5  # the overlap signal must actually vary

    def test_regression_score_tracks_overlap(self):
        train, _ = generate_task(REGRESSION)
        noiseless = np.array([5.0 * overlap_coefficient(r.text_a, r.text_b)
                              for r in train])
        stored = labels_array(REGRESSION, train)
        # clipping plus noise_std=0.15 keeps labels near the planted score
        assert np.abs(noiseless - stored).max() < 1.0
        assert [planted_rule_label(REGRESSION, r) for r in train] == noiseless.tolist()


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(TaskSpecError):
            TaskSpec(kind="mystery", vocab_size=60, seq_len=19,
                     train_size=10, val_size=5, seed=0)

    def test_vocab_too_small_for_disjoint_segments(self):
        with pytest.raises(TaskSpecError, match="vocab_size"):
            TaskSpec(kind="pair_classification", vocab_size=10, seq_len=19,
                     train_size=10, val_size=5, seed=0)

    def test_seq_too_short_for_pairs(self):
        with pytest.raises(TaskSpecError, match="seq_len"):
            TaskSpec(kind="pair_classification", vocab_size=60, seq_len=4,
                     train_size=10, val_size=5, seed=0)

    @pytest.mark.parametrize("spec, field, value, match", [
        (PAIR, "train_size", 0, "sizes must be >= 1"),
        (PAIR, "val_size", 0, "sizes must be >= 1"),
        (SINGLE, "num_labels", 1, ">= 2 labels"),
    ])
    def test_out_of_range_size_or_label_count_rejected(self, spec, field, value, match):
        with pytest.raises(TaskSpecError, match=match):
            dataclasses.replace(spec, **{field: value})

    def test_non_binary_pair_classification_rejected(self):
        with pytest.raises(TaskSpecError, match="binary"):
            TaskSpec(kind="pair_classification", vocab_size=60, seq_len=19,
                     train_size=10, val_size=5, seed=0, num_labels=3)

    @pytest.mark.parametrize("spec, legal", LEGAL_METRICS,
                             ids=["pair", "single", "single-3", "regression"])
    def test_metric_fits_the_task(self, spec, legal):
        assert spec.metric_name == legal[0]
        for name in ("accuracy", "f1", "mcc", "pearson", "f2"):
            if name in legal:
                assert dataclasses.replace(spec, metric=name).metric_name == name
            else:
                with pytest.raises(TaskSpecError, match=f"metric '{name}'"):
                    dataclasses.replace(spec, metric=name)

    @pytest.mark.parametrize("field", ["vocab_size", "seq_len", "train_size",
                                       "val_size", "num_labels", "seed"])
    @pytest.mark.parametrize("value", [2.5, 40.0, True, "40"])
    def test_non_integer_field_rejected(self, field, value):
        with pytest.raises(TaskSpecError, match=field):
            dataclasses.replace(SINGLE, **{field: value})

    def test_numpy_integers_accepted(self):
        spec = dataclasses.replace(PAIR, train_size=np.int64(12), val_size=np.int32(4),
                                   seed=np.uint16(3))
        train, val = generate_task(spec)
        assert (len(train), len(val)) == (12, 4)

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf"), -0.1])
    def test_non_finite_or_negative_noise_rejected(self, noise_std):
        with pytest.raises(TaskSpecError, match="noise_std"):
            TaskSpec(kind="pair_regression", vocab_size=60, seq_len=19,
                     train_size=10, val_size=5, seed=0, noise_std=noise_std)

    @pytest.mark.parametrize("val_size", [1, 2])
    def test_regression_needs_three_validation_records(self, val_size):
        """Pearson correlation is undefined on one record and +-1 on any two,
        so a smaller regression split is refused when the spec is made, not
        after training."""
        with pytest.raises(TaskSpecError, match="val_size >= 3"):
            dataclasses.replace(REGRESSION, val_size=val_size)
        assert dataclasses.replace(REGRESSION, val_size=3).val_size == 3
        assert dataclasses.replace(PAIR, val_size=val_size).val_size == val_size

    def test_regression_split_with_one_validation_score_rejected(self):
        """All three validation scores of this split are 1.25, so Pearson
        correlation is undefined on it: generation refuses it, before any
        model is built. Another seed of the same spec gives two scores."""
        spec = TaskSpec(PAIR_REGRESSION, vocab_size=40, seq_len=11, train_size=200,
                        val_size=3, seed=93, noise_std=0.0)
        _, ref_val, _ = reference_generate_task(spec)
        assert [r.label for r in ref_val] == [1.25, 1.25, 1.25]
        with pytest.raises(TaskSpecError, match="correlation is undefined"):
            generate_task(spec)
        _, val = generate_task(dataclasses.replace(spec, seed=0))
        assert [r.label for r in val] == [5.0, 0.0, 0.0]

    @pytest.mark.parametrize("num_labels", [-1, 0, 1, 3])
    def test_regression_takes_no_label_count(self, num_labels):
        with pytest.raises(TaskSpecError, match="num_labels"):
            dataclasses.replace(REGRESSION, num_labels=num_labels)
        assert REGRESSION.model_num_labels == 1


class TestEncoding:
    def test_pair_layout_and_type_ids(self):
        train, _ = generate_task(PAIR)
        tokens, types = encode_batch(PAIR, train[:8])
        assert tokens.shape == (8, PAIR.seq_len)
        assert types.shape == (8, PAIR.seq_len)
        n_a, n_b = PAIR.segment_lengths()
        assert (tokens[:, 0] == CLS_ID).all()
        assert (tokens[:, 1 + n_a] == SEP_ID).all()
        assert (tokens[:, -1] == SEP_ID).all()
        np.testing.assert_array_equal(types[:, :2 + n_a], 0)
        np.testing.assert_array_equal(types[:, 2 + n_a:], 1)

    def test_single_layout(self):
        train, _ = generate_task(SINGLE)
        tokens, types = encode_batch(SINGLE, train[:4])
        assert tokens.shape == (4, SINGLE.seq_len)
        assert (types == 0).all()
        assert (tokens[:, 0] == CLS_ID).all()
        assert (tokens[:, -1] == SEP_ID).all()

    def test_content_ids_stay_in_vocab(self):
        train, _ = generate_task(PAIR)
        tokens, _ = encode_batch(PAIR, train)
        assert tokens.min() >= 0
        assert tokens.max() < PAIR.vocab_size


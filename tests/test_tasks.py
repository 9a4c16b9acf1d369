"""Synthetic task generators: determinism, planted-rule fidelity, encoding."""

import numpy as np
import pytest

from spafit.errors import TaskSpecError
from spafit.tasks import (
    CLS_ID,
    SEP_ID,
    TaskSpec,
    encode_batch,
    generate_task,
    labels_array,
    load_dataset,
    overlap_coefficient,
    planted_rule_label,
    save_dataset,
)

PAIR = TaskSpec(kind="pair_classification", vocab_size=60, seq_len=19,
                train_size=200, val_size=50, seed=3)
SINGLE = TaskSpec(kind="single_sentence_classification", vocab_size=40,
                  seq_len=12, train_size=150, val_size=40, seed=4)
REGRESSION = TaskSpec(kind="pair_regression", vocab_size=60, seq_len=19,
                      train_size=120, val_size=30, seed=5)


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

    def test_non_binary_pair_classification_rejected(self):
        with pytest.raises(TaskSpecError, match="binary"):
            TaskSpec(kind="pair_classification", vocab_size=60, seq_len=19,
                     train_size=10, val_size=5, seed=0, num_labels=3)

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf"), -0.1])
    def test_non_finite_or_negative_noise_rejected(self, noise_std):
        with pytest.raises(TaskSpecError, match="noise_std"):
            TaskSpec(kind="pair_regression", vocab_size=60, seq_len=19,
                     train_size=10, val_size=5, seed=0, noise_std=noise_std)


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


class TestSerialization:
    @pytest.mark.parametrize("spec", [PAIR, SINGLE, REGRESSION])
    def test_jsonl_round_trip(self, spec, tmp_path):
        train, _ = generate_task(spec)
        path = tmp_path / "data.jsonl"
        save_dataset(train, path)
        assert load_dataset(path) == train
        with open(path) as fh:
            assert len(fh.readlines()) == len(train)

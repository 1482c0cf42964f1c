"""Tests for repro.metrics.classification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import (
    accuracy_score,
    classification_report,
    confusion_matrix,
    normalize_confusion,
    per_class_accuracy,
    precision_recall_f1,
)

class TestConfusionMatrix:
    def test_perfect_prediction_is_diagonal(self):
        y = np.array([0, 1, 2, 1, 0, 2])
        cm = confusion_matrix(y, y, 3)
        assert np.all(cm == np.diag([2, 2, 2]))

    def test_counts(self):
        y_true = np.array([0, 0, 1, 2])
        y_pred = np.array([0, 1, 1, 0])
        cm = confusion_matrix(y_true, y_pred, 3)
        assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[1, 1] == 1 and cm[2, 0] == 1

    def test_total_equals_samples(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 3, 100)
        y_pred = rng.integers(0, 3, 100)
        assert confusion_matrix(y_true, y_pred, 3).sum() == 100

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([-1, 0]), np.array([0, 0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0, 5]), np.array([0, 0]), num_classes=3)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0, 1]), np.array([0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([]), np.array([]))

    def test_normalize_rows_sum_to_100(self):
        rng = np.random.default_rng(1)
        cm = confusion_matrix(rng.integers(0, 3, 200), rng.integers(0, 3, 200), 3)
        norm = normalize_confusion(cm)
        np.testing.assert_allclose(norm.sum(axis=1), 100.0)


class TestScores:
    def test_accuracy_perfect_and_zero(self):
        y = np.array([0, 1, 2])
        assert accuracy_score(y, y) == 1.0
        assert accuracy_score(y, (y + 1) % 3) == 0.0

    def test_macro_scores_perfect(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        p, r, f1 = precision_recall_f1(y, y, 3)
        assert p == r == f1 == 1.0

    def test_per_class_accuracy(self):
        y_true = np.array([0, 0, 1, 1, 2, 2])
        y_pred = np.array([0, 1, 1, 1, 0, 2])
        acc = per_class_accuracy(y_true, y_pred, 3)
        np.testing.assert_allclose(acc, [0.5, 1.0, 0.5])


class TestReport:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(7)
        y_true = rng.integers(0, 3, size=(4, 8, 8))
        y_pred = rng.integers(0, 3, size=(4, 8, 8))
        rep = classification_report(y_true, y_pred, 3, class_names=["thick", "thin", "water"])
        assert np.isclose(rep.accuracy, accuracy_score(y_true, y_pred))
        assert rep.confusion.shape == (3, 3)
        assert rep.confusion_percent.shape == (3, 3)
        assert len(rep.per_class_accuracy) == 3
        assert all(0.0 <= score <= 1.0 for score in (rep.precision, rep.recall, rep.f1))
        assert rep.class_names == ["thick", "thin", "water"]

    def test_report_accepts_2d_maps(self):
        y = np.zeros((16, 16), dtype=np.uint8)
        rep = classification_report(y, y, 3)
        assert rep.accuracy == 1.0

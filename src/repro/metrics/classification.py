"""Pixel-wise classification metrics (accuracy, precision, recall, F1, confusion matrix).

These are the evaluation metrics of paper §IV-A; they are computed over
per-pixel class maps (2-D integer arrays or flattened vectors) with the
three sea-ice classes: thick ice, thin ice and open water.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "confusion_matrix",
    "normalize_confusion",
    "accuracy_score",
    "precision_recall_f1",
    "per_class_accuracy",
    "ClassificationReport",
    "classification_report",
]


def _flatten_pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(y_true).ravel()
    p = np.asarray(y_pred).ravel()
    if t.shape != p.shape:
        raise ValueError(f"y_true and y_pred sizes differ: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ValueError("cannot compute metrics on empty inputs")
    return t, p


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int | None = None) -> np.ndarray:
    """Return the ``(num_classes, num_classes)`` count matrix ``C[i, j]``.

    ``C[i, j]`` counts pixels whose true class is ``i`` and predicted class is
    ``j`` (rows = truth, columns = prediction).
    """
    t, p = _flatten_pair(y_true, y_pred)
    if num_classes is None:
        num_classes = int(max(t.max(), p.max())) + 1
    if (t < 0).any() or (p < 0).any():
        raise ValueError("class labels must be non-negative integers")
    if (t >= num_classes).any() or (p >= num_classes).any():
        raise ValueError("labels exceed num_classes")
    idx = t.astype(np.intp) * num_classes + p.astype(np.intp)
    counts = np.bincount(idx, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def normalize_confusion(matrix: np.ndarray, axis: str = "true") -> np.ndarray:
    """Normalise a confusion matrix to percentages.

    ``axis="true"`` makes each row sum to 100 (per-class recall view, the
    layout of the paper's Figure 13); ``axis="pred"`` makes each column sum
    to 100 (per-class precision view).
    """
    m = np.asarray(matrix, dtype=np.float64)
    if axis == "true":
        denom = m.sum(axis=1, keepdims=True)
    elif axis == "pred":
        denom = m.sum(axis=0, keepdims=True)
    else:
        raise ValueError("axis must be 'true' or 'pred'")
    return 100.0 * m / np.maximum(denom, 1e-12)


def accuracy_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Overall fraction of correctly classified pixels."""
    t, p = _flatten_pair(y_true, y_pred)
    return float(np.mean(t == p))


def per_class_accuracy(y_true: np.ndarray, y_pred: np.ndarray, num_classes: int | None = None) -> np.ndarray:
    """Recall of every class (the diagonal of the row-normalised confusion matrix / 100)."""
    cm = confusion_matrix(y_true, y_pred, num_classes)
    denom = np.maximum(cm.sum(axis=1), 1)
    return cm.diagonal() / denom


def precision_recall_f1(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    num_classes: int | None = None,
    average: str = "macro",
) -> tuple[float, float, float]:
    """Precision, recall and F1 score.

    ``average="macro"`` (paper default) averages the per-class scores with
    equal class weight; ``average="weighted"`` weights by class support;
    ``average="micro"`` pools all pixels (equals accuracy for single-label
    classification).
    """
    cm = confusion_matrix(y_true, y_pred, num_classes).astype(np.float64)
    tp = cm.diagonal()
    support = cm.sum(axis=1)
    predicted = cm.sum(axis=0)

    if average == "micro":
        total = cm.sum()
        p = r = tp.sum() / max(total, 1e-12)
        f1 = p
        return float(p), float(r), float(f1)

    with np.errstate(invalid="ignore", divide="ignore"):
        prec_c = np.where(predicted > 0, tp / np.maximum(predicted, 1e-12), 0.0)
        rec_c = np.where(support > 0, tp / np.maximum(support, 1e-12), 0.0)
        f1_c = np.where(prec_c + rec_c > 0, 2 * prec_c * rec_c / np.maximum(prec_c + rec_c, 1e-12), 0.0)

    if average == "macro":
        present = support > 0
        if not present.any():
            return 0.0, 0.0, 0.0
        return float(prec_c[present].mean()), float(rec_c[present].mean()), float(f1_c[present].mean())
    if average == "weighted":
        weights = support / max(support.sum(), 1e-12)
        return float((prec_c * weights).sum()), float((rec_c * weights).sum()), float((f1_c * weights).sum())
    raise ValueError("average must be 'macro', 'weighted' or 'micro'")


@dataclass
class ClassificationReport:
    """Bundle of every metric the paper reports for one model / dataset pair."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: np.ndarray
    confusion_percent: np.ndarray
    per_class_accuracy: np.ndarray
    class_names: list[str] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        names = self.class_names or [f"class{i}" for i in range(len(self.per_class_accuracy))]
        lines = [
            f"accuracy={self.accuracy * 100:.2f}%  precision={self.precision * 100:.2f}%  "
            f"recall={self.recall * 100:.2f}%  f1={self.f1 * 100:.2f}%",
        ]
        for name, acc in zip(names, self.per_class_accuracy):
            lines.append(f"  {name:>12s}: {acc * 100:6.2f}%")
        return "\n".join(lines)


def classification_report(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    num_classes: int | None = None,
    class_names: list[str] | None = None,
) -> ClassificationReport:
    """Compute the full metric bundle used in Tables IV/V and Figure 13."""
    cm = confusion_matrix(y_true, y_pred, num_classes)
    prec, rec, f1 = precision_recall_f1(y_true, y_pred, num_classes=cm.shape[0])
    return ClassificationReport(
        accuracy=accuracy_score(y_true, y_pred),
        precision=prec,
        recall=rec,
        f1=f1,
        confusion=cm,
        confusion_percent=normalize_confusion(cm),
        per_class_accuracy=per_class_accuracy(y_true, y_pred, cm.shape[0]),
        class_names=list(class_names) if class_names else [],
    )

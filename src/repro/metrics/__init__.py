"""Evaluation metrics: classification scores, SSIM, and parallel-scaling metrics."""

from .classification import (
    ClassificationReport,
    accuracy_score,
    classification_report,
    confusion_matrix,
    normalize_confusion,
    per_class_accuracy,
    precision_recall_f1,
)
from .scaling import (
    ScalingPoint,
    ScalingTable,
    efficiency,
    fit_amdahl_serial_fraction,
    speedup,
    throughput,
)
from .ssim import mean_ssim_over_pairs, ssim

__all__ = [
    "ClassificationReport",
    "accuracy_score",
    "classification_report",
    "confusion_matrix",
    "normalize_confusion",
    "per_class_accuracy",
    "precision_recall_f1",
    "ScalingPoint",
    "ScalingTable",
    "efficiency",
    "fit_amdahl_serial_fraction",
    "speedup",
    "throughput",
    "mean_ssim_over_pairs",
    "ssim",
]

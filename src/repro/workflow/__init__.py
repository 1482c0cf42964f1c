"""End-to-end workflows: auto-labeling at scale, accuracy experiments, data preparation."""

from .autolabel import (
    AutoLabelWorkflow,
    AutoLabelWorkflowConfig,
    AutoLabelWorkflowResult,
    autolabel_scaling_table,
)
from .preparation import PreparationTiming, run_preparation_pipeline
from .training import AccuracyExperimentConfig, AccuracyExperimentResult, run_accuracy_experiment

__all__ = [
    "AutoLabelWorkflow",
    "AutoLabelWorkflowConfig",
    "AutoLabelWorkflowResult",
    "autolabel_scaling_table",
    "PreparationTiming",
    "run_preparation_pipeline",
    "AccuracyExperimentConfig",
    "AccuracyExperimentResult",
    "run_accuracy_experiment",
]

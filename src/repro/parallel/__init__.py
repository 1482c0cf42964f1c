"""Single-machine parallel auto-labeling: the Table I runner and its scaling harness."""

from .autolabel_runner import AutoLabelRunConfig, autolabel_scaling_table, run_parallel_autolabel

__all__ = [
    "AutoLabelRunConfig",
    "autolabel_scaling_table",
    "run_parallel_autolabel",
]

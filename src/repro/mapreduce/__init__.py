"""The paper's map-reduce auto-labeling job (Table II): load → map → reduce over tile spans.

Its Table II sweep is scaled by :data:`repro.metrics.scaling.TABLE2`.
"""

from .autolabel_job import JobTimings, MapReduceAutoLabelResult, mapreduce_scaling_sweep, run_mapreduce_autolabel

__all__ = [
    "JobTimings",
    "MapReduceAutoLabelResult",
    "mapreduce_scaling_sweep",
    "run_mapreduce_autolabel",
]

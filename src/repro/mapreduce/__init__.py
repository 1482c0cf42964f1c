"""The paper's map-reduce auto-labeling job (Table II) and the cluster model it is scaled by.

* :mod:`repro.mapreduce.autolabel_job` — the auto-labeling job: load → map → reduce over tile spans
* :mod:`repro.mapreduce.cluster` — calibrated Dataproc cluster cost model (Table II)
"""

from .autolabel_job import JobTimings, MapReduceAutoLabelResult, mapreduce_scaling_sweep, run_mapreduce_autolabel
from .cluster import PAPER_TABLE2_ROWS, ClusterShape, GCDClusterModel, paper_table2

__all__ = [
    "JobTimings",
    "MapReduceAutoLabelResult",
    "mapreduce_scaling_sweep",
    "run_mapreduce_autolabel",
    "PAPER_TABLE2_ROWS",
    "ClusterShape",
    "GCDClusterModel",
    "paper_table2",
]

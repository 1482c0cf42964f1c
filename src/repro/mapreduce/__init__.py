"""sparklite: a miniature map-reduce engine standing in for PySpark.

* :mod:`repro.mapreduce.partition` — partitions and partitioning policies
* :mod:`repro.mapreduce.dataset` — lazy transformations, eager actions, phase timings
* :mod:`repro.mapreduce.cluster` — calibrated Dataproc cluster cost model (Table II)
* :mod:`repro.mapreduce.autolabel_job` — the distributed auto-labeling job itself
"""

from .autolabel_job import (
    MapReduceAutoLabelResult,
    autolabel_udf,
    autolabel_udf_unfiltered,
    mapreduce_scaling_sweep,
    run_mapreduce_autolabel,
)
from .cluster import PAPER_TABLE2_ROWS, ClusterShape, GCDClusterModel, paper_table2
from .dataset import Dataset, JobTimings, SparkLiteContext, udf
from .partition import Partition, default_num_partitions, partition_items

__all__ = [
    "MapReduceAutoLabelResult",
    "autolabel_udf",
    "autolabel_udf_unfiltered",
    "mapreduce_scaling_sweep",
    "run_mapreduce_autolabel",
    "PAPER_TABLE2_ROWS",
    "ClusterShape",
    "GCDClusterModel",
    "paper_table2",
    "Dataset",
    "JobTimings",
    "SparkLiteContext",
    "udf",
    "Partition",
    "default_num_partitions",
    "partition_items",
]

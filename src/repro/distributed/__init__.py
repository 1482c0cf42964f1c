"""Distributed U-Net training: ring all-reduce, the elastic data-parallel trainer, DGX model."""

from .allreduce import (
    AllReduceStats,
    PipeRingAllReducer,
    RingBroken,
    naive_allreduce,
    ring_allreduce,
)
from .elastic import ElasticTrainer, ElasticTrainingError, latest_checkpoints
from .perfmodel import PAPER_TABLE3_ROWS, DGXTrainingModel, paper_table3

__all__ = [
    "AllReduceStats",
    "PipeRingAllReducer",
    "RingBroken",
    "naive_allreduce",
    "ring_allreduce",
    "ElasticTrainer",
    "ElasticTrainingError",
    "latest_checkpoints",
    "PAPER_TABLE3_ROWS",
    "DGXTrainingModel",
    "paper_table3",
]

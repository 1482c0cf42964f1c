"""Distributed U-Net training: the elastic data-parallel trainer and its slot-order gradient fold, DGX model."""

from .elastic import ElasticTrainer, ElasticTrainingError, latest_checkpoints
from .perfmodel import PAPER_TABLE3_ROWS, DGXTrainingModel, paper_table3

__all__ = [
    "ElasticTrainer",
    "ElasticTrainingError",
    "latest_checkpoints",
    "PAPER_TABLE3_ROWS",
    "DGXTrainingModel",
    "paper_table3",
]

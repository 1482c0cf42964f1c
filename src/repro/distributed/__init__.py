"""Distributed U-Net training: the elastic data-parallel trainer and its slot-order gradient fold."""

from .elastic import ElasticTrainer, ElasticTrainingError, latest_checkpoints

__all__ = [
    "ElasticTrainer",
    "ElasticTrainingError",
    "latest_checkpoints",
]

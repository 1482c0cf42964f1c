"""The U-Net-Man vs U-Net-Auto accuracy experiment (Tables IV, V and Figure 13).

The paper's central validation: train one U-Net on manually labelled tiles
and one on auto-labelled tiles, then evaluate both against the manual ground
truth of a held-out test set, once on the original (possibly cloudy) images
and once on the thin-cloud/shadow-filtered images, with an extra breakdown
of the test set by cloud coverage.  This module runs that whole experiment
on the synthetic archive and returns every number those tables and the
confusion-matrix figure need.  Both models train through the one trainer
(:class:`~repro.distributed.ElasticTrainer`) on any worker count; the tables
and the weights digests do not depend on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..classes import CLASS_NAMES, SeaIceClass
from ..cloudshadow import CloudShadowFilter
from ..data.catalog import build_dataset, train_test_split
from ..data.loader import BatchLoader
from ..distributed.elastic import ElasticTrainer
from ..labeling.manual import simulate_manual_labels
from ..metrics.classification import ClassificationReport
from ..unet.model import UNet, UNetConfig
from .autolabel import AutoLabelWorkflow, AutoLabelWorkflowConfig

__all__ = ["AccuracyExperimentConfig", "AccuracyExperimentResult", "run_accuracy_experiment"]

_CLASS_NAMES = [CLASS_NAMES[SeaIceClass(i)] for i in range(len(SeaIceClass))]


#: Share of the archive's scenes that get substantial cloud banks.
CLOUDY_FRACTION = 0.5
#: Share of the tiles held out to test both models (the paper's 80/20 split).
TEST_FRACTION = 0.2
#: Cloud/shadow-affected pixel fraction above which a test tile counts as cloudy in Table V.
CLOUD_SPLIT_THRESHOLD = 0.10


@dataclass(frozen=True)
class AccuracyExperimentConfig:
    """Scale knobs of the accuracy experiment.

    The defaults run in a couple of minutes on a laptop CPU; the paper-scale
    configuration (66 scenes of 2048², 256-pixel tiles, depth-5/64-channel
    U-Net, 50 epochs) uses the same code path.
    """

    num_scenes: int = 6
    scene_size: int = 128
    tile_size: int = 32
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 2e-3
    unet_depth: int = 3
    unet_base_channels: int = 12
    unet_dropout: float = 0.1
    seed: int = 0

    def unet_config(self, seed_offset: int = 0) -> UNetConfig:
        return UNetConfig(
            depth=self.unet_depth,
            base_channels=self.unet_base_channels,
            dropout=self.unet_dropout,
            seed=self.seed + seed_offset,
        )


@dataclass
class AccuracyExperimentResult:
    """Everything Tables IV/V and Figure 13 report, for both models."""

    config: AccuracyExperimentConfig
    unet_man: UNet
    unet_auto: UNet
    #: {"original" | "filtered"} -> {"man" | "auto"} -> ClassificationReport  (Table IV)
    table4: dict = field(default_factory=dict)
    #: {"cloudy" | "clear"} -> {"original" | "filtered"} -> {"man" | "auto"} -> report (Table V)
    table5: dict = field(default_factory=dict)
    #: auto-label quality on the training split (the Fig 11 / SSIM result)
    autolabel_ssim: float = 0.0
    autolabel_agreement: float = 0.0
    #: {"man" | "auto"} -> the trainer's ``stats()`` (``weights_digest``, ``ring_rebuilds``, ...)
    #: plus full-precision per-epoch ``losses`` and the mean ``images_per_s``
    training: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def table4_rows(self) -> list[dict]:
        """Rows in the layout of the paper's Table IV (percent accuracy)."""
        rows = []
        for variant, label in (("original", "Original S2 images"), ("filtered", "S2 images with thin cloud and shadow filtered")):
            rows.append(
                {
                    "dataset": label,
                    "unet_man_accuracy_pct": round(self.table4[variant]["man"].accuracy * 100, 2),
                    "unet_auto_accuracy_pct": round(self.table4[variant]["auto"].accuracy * 100, 2),
                }
            )
        return rows

    def table5_rows(self) -> list[dict]:
        """Rows in the layout of the paper's Table V."""
        rows = []
        labels = {"cloudy": "More than ~10% cloud and shadow cover", "clear": "Less than ~10% cloud and shadow cover"}
        for split in ("cloudy", "clear"):
            for variant in ("original", "filtered"):
                reports = self.table5[split].get(variant)
                if reports is None:
                    continue
                rows.append(
                    {
                        "dataset": labels[split],
                        "images": f"{variant} images",
                        "unet_man_accuracy_pct": round(reports["man"].accuracy * 100, 2),
                        "unet_auto_accuracy_pct": round(reports["auto"].accuracy * 100, 2),
                    }
                )
        return rows


# --------------------------------------------------------------------------- #
def _train_model(config: AccuracyExperimentConfig, images: np.ndarray, labels: np.ndarray, seed_offset: int,
                 resume: bool, **trainer_options) -> tuple[ElasticTrainer, dict]:
    """Train one model; ``(the closed trainer — its master evaluates, the run's summary)``."""
    seed = config.seed + seed_offset
    loader = BatchLoader(images, labels, batch_size=config.batch_size, shuffle=True, augment=True, seed=seed)
    with ElasticTrainer(config=config.unet_config(seed_offset), learning_rate=config.learning_rate,
                        seed=seed, **trainer_options) as trainer:
        history = trainer.fit(loader, epochs=config.epochs, resume=resume)
        summary = {**trainer.stats(), "losses": history.losses,
                   "images_per_s": round(history.mean_throughput, 2)}
    return trainer, summary


def _reports(trainers: dict[str, ElasticTrainer], original: np.ndarray, filtered: np.ndarray,
             truth: np.ndarray) -> dict[str, dict[str, ClassificationReport]]:
    """``{"original" | "filtered"} -> {"man" | "auto"} -> report`` of both models on one tile set."""
    return {
        variant: {name: trainer.evaluate(images, truth, class_names=_CLASS_NAMES)
                  for name, trainer in trainers.items()}
        for variant, images in (("original", original), ("filtered", filtered))
    }


def run_accuracy_experiment(
    config: AccuracyExperimentConfig = AccuracyExperimentConfig(),
    workers: int = 0,
    micro_shards: int | None = None,
    step_timeout_s: float = 60.0,
    checkpoint_dir: str | os.PathLike | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> AccuracyExperimentResult:
    """Run the full U-Net-Man vs U-Net-Auto comparison.

    ``workers`` forked ranks train each model (0: in-process); the tables and
    weights digests depend on ``micro_shards`` and never on ``workers``.  The
    default is 2, so that 0, 1 and 2 workers share one trajectory; only a
    larger fleet raises it (every rank needs a shard).  The remaining
    options are the trainer's: with a ``checkpoint_dir`` each model checkpoints
    under its own sub-directory (``man`` / ``auto``), and ``resume`` continues
    both bit-exactly — a model that had finished is not trained again.

    Steps (mirroring Figure 2 of the paper):

    1. build the tile dataset with ground truth;
    2. derive simulated manual labels and colour-segmentation auto-labels
       (auto-labels are computed on cloud/shadow-filtered tiles);
    3. split 80/20 into train / test tiles;
    4. train U-Net-Man on the manual labels and U-Net-Auto on the auto labels
       (both on filtered training imagery, as in the paper's workflow);
    5. evaluate both models against manual ground truth on the original and
       the filtered test imagery, overall (Table IV) and split by cloud
       coverage (Table V), with per-class confusion matrices (Figure 13).
    """
    dataset = build_dataset(
        num_scenes=config.num_scenes,
        scene_size=config.scene_size,
        tile_size=config.tile_size,
        base_seed=config.seed,
        cloudy_fraction=CLOUDY_FRACTION,
    )
    train_ds, test_ds = train_test_split(dataset, test_fraction=TEST_FRACTION, seed=config.seed)

    # --- labels for training -------------------------------------------------
    manual_train = simulate_manual_labels(train_ds.labels, seed=config.seed)
    autolabel_workflow = AutoLabelWorkflow(AutoLabelWorkflowConfig(backend="serial", apply_cloud_filter=True))
    auto_result = autolabel_workflow.run(train_ds, manual_labels=manual_train)
    auto_train = auto_result.auto_labels

    # --- training imagery: thin-cloud/shadow-filtered tiles ------------------
    cloud_filter = CloudShadowFilter()
    train_filtered = cloud_filter.apply_batch(train_ds.images)
    test_filtered = cloud_filter.apply_batch(test_ds.images)

    options = dict(
        num_workers=workers,
        micro_shards=micro_shards if micro_shards is not None else max(2, workers),
        step_timeout_s=step_timeout_s,
        checkpoint_every=checkpoint_every,
    )
    trainers, training = {}, {}
    for name, labels, seed_offset in (("man", manual_train, 1), ("auto", auto_train, 2)):
        model_dir = None if checkpoint_dir is None else os.path.join(checkpoint_dir, name)
        trainers[name], training[name] = _train_model(
            config, train_filtered, labels, seed_offset, resume, checkpoint_dir=model_dir, **options)

    # --- evaluation -----------------------------------------------------------
    # Ground truth of the test tiles plays the role of the manual validation labels.
    table4 = _reports(trainers, test_ds.images, test_filtered, test_ds.labels)
    cloudy_ds, clear_ds = test_ds.split_by_cloud_coverage(CLOUD_SPLIT_THRESHOLD)
    table5: dict = {"cloudy": {}, "clear": {}}
    for split_name, split_ds in (("cloudy", cloudy_ds), ("clear", clear_ds)):
        if len(split_ds):
            table5[split_name] = _reports(
                trainers, split_ds.images, cloud_filter.apply_batch(split_ds.images), split_ds.labels)

    return AccuracyExperimentResult(
        config=config,
        unet_man=trainers["man"].master,
        unet_auto=trainers["auto"].master,
        table4=table4,
        table5=table5,
        autolabel_ssim=auto_result.ssim_vs_manual,
        autolabel_agreement=auto_result.pixel_agreement,
        training=training,
    )

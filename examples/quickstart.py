"""Quickstart: generate a synthetic Sentinel-2 scene, filter clouds, auto-label it,
train a small U-Net on the auto-labels and classify the scene.

Run with:  python examples/quickstart.py
(Finishes in well under a minute on a laptop CPU.)
"""

from __future__ import annotations

import numpy as np

from repro.classes import CLASS_NAMES, SeaIceClass
from repro.cloudshadow import CloudShadowFilter
from repro.data import BatchLoader, build_dataset, train_test_split
from repro.distributed import ElasticTrainer
from repro.labeling import ColorSegmentationLabeler
from repro.metrics import accuracy_score, ssim
from repro.unet import InferenceConfig, SceneClassifier, UNetConfig


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. Data: a small synthetic archive of Ross-Sea-like scenes cut into tiles.
    # ------------------------------------------------------------------ #
    print("1. generating a synthetic Sentinel-2 tile archive ...")
    dataset = build_dataset(num_scenes=4, scene_size=128, tile_size=32, base_seed=11, cloudy_fraction=0.5)
    train, test = train_test_split(dataset, test_fraction=0.2, seed=0)
    print(f"   {len(dataset)} tiles ({len(train)} train / {len(test)} test), "
          f"class distribution {np.round(dataset.class_distribution(), 2)}")

    # ------------------------------------------------------------------ #
    # 2. Thin-cloud / shadow filtering and HSV colour-segmentation auto-labeling.
    # ------------------------------------------------------------------ #
    print("2. auto-labeling the training tiles (cloud/shadow filter + colour segmentation) ...")
    cloud_filter = CloudShadowFilter()
    labeler = ColorSegmentationLabeler(apply_cloud_filter=True, cloud_filter=cloud_filter)
    auto_labels = labeler.label_batch(train.images)
    agreement = accuracy_score(train.labels, auto_labels)
    print(f"   auto-label agreement with ground truth: {agreement * 100:.2f}%")

    # ------------------------------------------------------------------ #
    # 3. Train a small U-Net on the auto-labeled tiles.
    # ------------------------------------------------------------------ #
    print("3. training a U-Net on the auto-labeled tiles ...")
    trainer = ElasticTrainer(config=UNetConfig(depth=3, base_channels=12, dropout=0.1, seed=1), learning_rate=2e-3)
    loader = BatchLoader(cloud_filter.apply_batch(train.images), auto_labels, batch_size=8, augment=True, seed=0)
    history = trainer.fit(loader, epochs=20)
    print(f"   final training loss: {history.losses[-1]:.3f} "
          f"({history.mean_throughput:.0f} tiles/s on this machine)")

    # ------------------------------------------------------------------ #
    # 4. Evaluate against the held-out ground truth (manual-label stand-in).
    # ------------------------------------------------------------------ #
    report = trainer.evaluate(
        cloud_filter.apply_batch(test.images),
        test.labels,
        class_names=[CLASS_NAMES[SeaIceClass(i)] for i in range(3)],
    )
    print("4. held-out evaluation (cloud/shadow-filtered test tiles):")
    print("   " + str(report).replace("\n", "\n   "))

    # ------------------------------------------------------------------ #
    # 5. Classify a whole scene with the inference workflow of Figure 9.
    # ------------------------------------------------------------------ #
    from repro.data import SceneSpec, synthesize_scene

    scene = synthesize_scene(SceneSpec(height=128, width=128, cloud_coverage=0.3, seed=77))
    classifier = SceneClassifier(model=trainer.master,
                                 config=InferenceConfig(tile_size=32, apply_cloud_filter=True))
    prediction = classifier.classify_scene(scene.rgb)
    print("5. whole-scene inference on a fresh cloudy scene:")
    print(f"   scene accuracy {accuracy_score(scene.class_map, prediction) * 100:.2f}%, "
          f"label-map SSIM {ssim(prediction.astype(np.uint8) * 100, scene.class_map.astype(np.uint8) * 100):.3f}")


if __name__ == "__main__":
    main()

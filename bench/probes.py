"""Layer probes: fixed-size calls into each layer's public functions, timed one layer at a time.

Every traced run ends with the same probe suite, whatever its workload, so a
change to one layer shows as a change in that layer's probe before anyone
argues about end-to-end numbers.  Each value is a median over a few calls
after one untimed call.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro.backend import make_backend
from repro.cloudshadow import CloudShadowFilter
from repro.data import SceneSpec, synthesize_scene
from repro.data.loader import BatchLoader, image_to_tensor
from repro.imops import gaussian_blur, rgb_to_hsv
from repro.imops.resize import assemble_from_tiles, split_into_tiles
from repro.labeling.autolabel import ColorSegmentationLabeler
from repro.nn import Adam, CategoricalCrossEntropy
from repro.obs import get_registry
from repro.serving import InferenceService, ModelRegistry
from repro.unet import CompiledUNet, InferenceConfig, UNet, UNetConfig
from repro.unet.inference import predict_batch_probabilities

from .stats import median


def timed_ms(fn, repeats: int) -> float:
    """Median milliseconds of ``fn()`` over ``repeats`` calls, after one untimed call."""
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e3)
    return median(samples)


def _identity(item):
    return item


def run_probes(seed: int, out_dir: str) -> dict:
    scene = synthesize_scene(SceneSpec(height=512, width=512, cloud_coverage=0.25, seed=seed)).rgb
    tiles, grid = split_into_tiles(scene, tile_size=256, overlap=0)
    tile, small = tiles[0], np.ascontiguousarray(tiles[0][:32, :32])
    out = {
        "cloudshadow.filter_ms_per_tile": timed_ms(lambda: CloudShadowFilter().filter_image(tile), 3),
        "labeling.segment_ms_per_tile":
            timed_ms(lambda: ColorSegmentationLabeler(apply_cloud_filter=False).segment(tile), 3),
        "imops.rgb_to_hsv_ms_per_tile": timed_ms(lambda: rgb_to_hsv(tile), 5),
        "imops.gaussian_blur_ms_per_tile": timed_ms(lambda: gaussian_blur(tile), 5),
        "unet.split_ms": timed_ms(lambda: split_into_tiles(scene, tile_size=256, overlap=0), 5),
    }

    model = UNet(UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=seed))
    engine = CompiledUNet(model)
    probs = predict_batch_probabilities(tiles, engine=engine)
    out["nn.plan_run_ms_per_tile"] = \
        timed_ms(lambda: predict_batch_probabilities(tiles, engine=engine), 3) / len(tiles)
    out["nn.plan_run_ms_per_tile_32"] = \
        timed_ms(lambda: predict_batch_probabilities(small[None], engine=engine), 30)
    prob_tiles = np.moveaxis(probs, 1, -1)
    out["unet.stitch_ms"] = timed_ms(
        lambda: np.asarray(assemble_from_tiles(prob_tiles, grid)).argmax(axis=-1), 3)

    # one training step on an 8 x 64x64 batch, phase by phase (what an elastic worker runs)
    crops, _ = split_into_tiles(scene[:128, :256], tile_size=64, overlap=0)
    x = image_to_tensor(crops)
    y = np.random.default_rng(seed).integers(0, 3, size=(len(crops), 64, 64))
    net = UNet(UNetConfig(depth=3, base_channels=8, dropout=0.1, seed=seed))  # train_elastic's model
    net.train()
    loss_fn, optimizer = CategoricalCrossEntropy(), Adam(net.parameters(), lr=1e-3)
    phases = {"forward": [], "loss": [], "backward": [], "adam": []}
    for step in range(4):
        marks = [time.perf_counter()]
        logits = net.forward(x)
        marks.append(time.perf_counter())
        loss_fn.forward(logits, y)
        marks.append(time.perf_counter())
        optimizer.zero_grad()
        net.backward(loss_fn.backward(), need_input_grad=False)
        marks.append(time.perf_counter())
        optimizer.step()
        marks.append(time.perf_counter())
        if step:  # the first step is the untimed one
            for phase, lo, hi in zip(phases, marks, marks[1:]):
                phases[phase].append((hi - lo) * 1e3)
    out.update({f"nn.{phase}_ms": median(samples) for phase, samples in phases.items()})

    loader = BatchLoader(np.concatenate([crops] * 4), np.concatenate([y] * 4).astype(np.uint8),
                         batch_size=8, shuffle=True, augment=True, seed=seed)
    batches = iter(loader)
    out["data.loader_ms_per_batch"] = timed_ms(lambda: next(batches), 3)

    with make_backend("fork", num_workers=2) as backend:
        payloads = [tile] * 8
        out["backend.map_roundtrip_ms"] = \
            timed_ms(lambda: backend.map(_identity, payloads, chunk_size=1), 5) / len(payloads)

        def publish():
            backend.publish_model("probe", model)
            backend.release_model("probe")
        out["backend.publish_ms"] = timed_ms(publish, 3)

    with tempfile.TemporaryDirectory(dir=out_dir, prefix="tmp-probes-") as scratch:
        registry = ModelRegistry(root=os.path.join(scratch, "registry"))
        registry.publish("probe", 1, model, inference=InferenceConfig(
            tile_size=32, apply_cloud_filter=False, backend="serial", num_workers=1))
        service = InferenceService(registry)
        try:
            body = {"model": "probe", "tile": small.tolist()}
            out["serving.inproc_ms"] = timed_ms(lambda: service.predict_payload(body), 20)
        finally:
            service.close()
            registry.close()
    out["obs.metrics_render_ms"] = timed_ms(get_registry().render_prometheus, 10)
    return out

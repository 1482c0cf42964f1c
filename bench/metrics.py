"""The layer -> end-to-end map, next to the contract it refers to.

``BENCHMARK.json`` at the repo root is the contract and the only place that
names workloads, metrics, units, directions and bounds; the driver that reads
it allows no other key in it, so what it cannot hold lives here: ``MOVES``
says, for every per-layer metric, which end-to-end metric a change to that
layer is predicted to move, and on which workloads.  On every other workload
the prediction is no change.  ``bench/README.md`` says what each metric is.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


_SCENES = ["scene_serial", "scene_workers"]
_PLANS = _SCENES + ["serve_tiles"]

# per-layer metric -> {end-to-end metric: [workloads]}; empty for the benchmark's own bookkeeping
MOVES: dict[str, dict[str, list[str]]] = {
    # budget of the traced pass
    "data.share": {"items_per_s": ["autolabel", "train_elastic"]},
    "mapreduce.share": {"items_per_s": ["autolabel"]},
    "unet.share": {"items_per_s": _SCENES},
    "nn.share": {"items_per_s": ["scene_serial"]},
    "backend.share": {"items_per_s": ["scene_workers"]},
    "serving.share": {"op_p50_ms": ["serve_tiles"]},
    "distributed.share": {"items_per_s": ["train_elastic"]},
    "bench.harness_share": {},
    "bench.trace_overhead_share": {},
    "bench.traced_op_ms": {},
    "bench.spans": {},
    "bench.host_steal_share": {},
    # counters and ratios of one workload
    "mapreduce.parallel_efficiency": {"items_per_s": ["autolabel"]},
    "backend.workers_speedup": {"items_per_s": ["scene_workers"]},
    "backend.workers_speedup_blas_as_found": {"items_per_s": ["scene_workers"]},
    "backend.dispatch_overhead_share": {"items_per_s": ["scene_workers"]},
    "backend.shm_bytes": {"peak_rss_mb": ["scene_workers"]},
    "backend.respawns": {"items_per_s": ["scene_workers"]},
    "backend.retries": {"items_per_s": ["scene_workers"]},
    "nn.plan_cache_hits": {"items_per_s": _SCENES},
    "nn.plan_cache_misses": {"setup_s": _PLANS},
    "nn.plan_arena_bytes": {"peak_rss_mb": _PLANS},
    "nn.conv_gemm_flops_per_tile": {"items_per_s": _SCENES},
    "serving.http_overhead_share": {"op_p50_ms": ["serve_tiles"]},
    "serving.stage.resolve_share": {"op_p50_ms": ["serve_tiles"]},
    "serving.stage.queue_wait_share": {"op_p50_ms": ["serve_tiles"]},
    "serving.stage.batch_assembly_share": {"op_p50_ms": ["serve_tiles"]},
    "serving.stage.dispatch_share": {"op_p50_ms": ["serve_tiles"]},
    "serving.stage.stitch_share": {"op_p50_ms": ["serve_tiles"]},
    "serving.mean_batch": {"items_per_s": ["serve_tiles"]},
    "serving.request_bytes": {"op_p50_ms": ["serve_tiles"]},
    "serving.response_bytes": {"op_p50_ms": ["serve_tiles"]},
    "serving.p99_over_p50": {"op_tail_ms": ["serve_tiles"]},
    "reliability.shed": {"items_per_s": ["serve_tiles"]},
    "reliability.expired": {"items_per_s": ["serve_tiles"]},
    "obs.metrics_off_req_per_s": {"items_per_s": ["serve_tiles"]},
    "distributed.step_share": {"items_per_s": ["train_elastic"]},
    "distributed.fold_share": {"items_per_s": ["train_elastic"]},
    "distributed.checkpoint_share": {"items_per_s": ["train_elastic"]},
    "distributed.allreduce_bytes_per_step": {"items_per_s": ["train_elastic"]},
    "distributed.single_worker_img_per_s": {"items_per_s": ["train_elastic"]},
    "distributed.scaling_efficiency": {"items_per_s": ["train_elastic"]},
    "distributed.ring_rebuilds": {"items_per_s": ["train_elastic"]},
    "distributed.worker_respawns": {"items_per_s": ["train_elastic"]},
    # probes: the same fixed-size calls at the end of every traced run
    "cloudshadow.filter_ms_per_tile": {"items_per_s": ["autolabel"]},
    "labeling.segment_ms_per_tile": {"items_per_s": ["autolabel"]},
    "imops.rgb_to_hsv_ms_per_tile": {"items_per_s": ["autolabel"]},
    "imops.gaussian_blur_ms_per_tile": {"items_per_s": ["autolabel"]},
    "data.loader_ms_per_batch": {"items_per_s": ["train_elastic"]},
    "backend.map_roundtrip_ms": {"items_per_s": ["autolabel"]},
    "backend.publish_ms": {"setup_s": ["scene_workers"]},
    "nn.plan_run_ms_per_tile": {"items_per_s": _SCENES},
    "nn.plan_run_ms_per_tile_32": {"op_p50_ms": ["serve_tiles"]},
    "nn.forward_ms": {"items_per_s": ["train_elastic"]},
    "nn.loss_ms": {"items_per_s": ["train_elastic"]},
    "nn.backward_ms": {"items_per_s": ["train_elastic"]},
    "nn.adam_ms": {"items_per_s": ["train_elastic"]},
    "unet.split_ms": {"items_per_s": _SCENES},
    "unet.stitch_ms": {"items_per_s": _SCENES},
    "serving.inproc_ms": {"op_p50_ms": ["serve_tiles"]},
    "obs.metrics_render_ms": {"items_per_s": ["serve_tiles"]},
}

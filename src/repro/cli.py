"""Command-line interface for the sea-ice classification workflow.

Sub-commands (``repro-seaice <command> --help`` for options):

* ``autolabel``  — generate a synthetic archive and auto-label it (``--backend
  auto|serial|fork``, as in ``classify``), reporting timing and label quality.
* ``scaling``    — print the Table I / Table II / Table III scaling tables (Table I
  measured, Tables II and III from :class:`~repro.metrics.scaling.ScalingModel`).
* ``train``      — run the U-Net-Man vs U-Net-Auto accuracy experiment
  (Tables IV/V) at a configurable scale, in-process or on ``--workers``
  forked ranks; the tables and weights digests are the same either way.
* ``prep``       — time the scene-preparation pipeline (the paper's 349 s figure).
* ``classify``   — run the tiled scene-inference engine on a synthetic scene
  (overlap-blended stitching, batched, on any execution backend) and
  report throughput plus accuracy against the synthetic ground truth.
* ``serve``      — start the long-lived model-serving subsystem: a model
  registry of ``.npz`` checkpoints behind JSON endpoints (``/healthz``,
  ``/models``, ``/predict``) with micro-batched, plan-compiled inference.
* ``bench``      — run any ``benchmarks/`` module locally (optionally at CI
  smoke scale) and print its machine-readable ``BENCH_*.json`` result.
* ``profile``    — run the opt-in profiling hooks (per-step compiled-plan
  timings, per-phase/per-layer training timings) and print the JSON report.
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_autolabel(args: argparse.Namespace) -> int:
    from .data import build_dataset
    from .workflow import AutoLabelWorkflow, AutoLabelWorkflowConfig

    dataset = build_dataset(
        num_scenes=args.scenes, scene_size=args.scene_size, tile_size=args.tile_size, base_seed=args.seed
    )
    workflow = AutoLabelWorkflow(
        AutoLabelWorkflowConfig(backend=args.backend, num_workers=args.workers, apply_cloud_filter=not args.no_filter)
    )
    result = workflow.run(dataset)
    print(json.dumps(result.summary(), indent=2))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from .data import build_dataset
    from .metrics.scaling import PAPER_TABLE2_ROWS, PAPER_TABLE3_ROWS, TABLE2, TABLE3, table2_rows, table3_rows
    from .workflow import autolabel_scaling_table

    if args.table in ("1", "all"):
        dataset = build_dataset(num_scenes=args.scenes, scene_size=args.scene_size, tile_size=args.tile_size)
        table = autolabel_scaling_table(dataset.images, worker_counts=tuple(args.workers))
        print("== Table I: multiprocessing auto-labeling ==")
        for row in table.rows():
            print(row)
    if args.table in ("2", "all"):
        print("== Table II: map-reduce auto-labeling (simulated Dataproc cluster) ==")
        for row in table2_rows(*TABLE2):
            print(row)
        print("-- paper values --")
        for row in PAPER_TABLE2_ROWS:
            print(row)
    if args.table in ("3", "all"):
        print("== Table III: Horovod distributed U-Net training (simulated DGX A100) ==")
        for row in table3_rows(TABLE3):
            print(row)
        print("-- paper values --")
        for row in PAPER_TABLE3_ROWS:
            print(row)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    """The U-Net-Man vs U-Net-Auto experiment on ``--workers`` forked ranks (0: in-process).

    Prints one JSON document: the Table IV/V rows and, per model, the trainer's
    counters, per-epoch losses and weights digest — what CI's dist-chaos-smoke arm
    asserts crash recovery, resume parity and worker-count independence on.
    """
    import time

    from .reliability import fault_stats, faults_enabled
    from .workflow import AccuracyExperimentConfig, run_accuracy_experiment

    config = AccuracyExperimentConfig(
        num_scenes=args.scenes,
        scene_size=args.scene_size,
        tile_size=args.tile_size,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    start = time.perf_counter()
    result = run_accuracy_experiment(
        config,
        workers=args.workers,
        micro_shards=args.micro_shards,
        step_timeout_s=args.step_timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )
    summary = {
        "workers": args.workers,
        "resumed": bool(args.resume),
        "elapsed_s": round(time.perf_counter() - start, 3),
        "table4": result.table4_rows(),
        "table5": result.table5_rows(),
        "autolabel_ssim": round(result.autolabel_ssim, 4),
        # Full-precision losses on purpose: the parity checks compare them
        # bit-for-bit across runs.
        "models": result.training,
    }
    if faults_enabled():
        summary["faults"] = fault_stats()
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_prep(args: argparse.Namespace) -> int:
    from .workflow import run_preparation_pipeline

    timing = run_preparation_pipeline(
        num_scenes=args.scenes,
        scene_size=args.scene_size,
        tile_size=args.tile_size,
        seed=args.seed,
        overlap=args.overlap,
    )
    print(json.dumps(timing.summary(), indent=2))
    return 0


def _quick_trainer(scene, tile_size: int, epochs: int, batch_size: int, seed: int, apply_cloud_filter: bool,
                   depth: int = 2, base_channels: int = 8):
    """A small dropout-free model after ``epochs`` in-process passes over one scene's auto-labelled tiles."""
    from .data import BatchLoader
    from .distributed import ElasticTrainer
    from .imops.resize import split_into_tiles
    from .labeling.autolabel import autolabel_batch
    from .unet import UNetConfig

    trainer = ElasticTrainer(num_workers=0, micro_shards=1,
                             config=UNetConfig(depth=depth, base_channels=base_channels, dropout=0.0, seed=seed))
    if epochs > 0:
        tiles, _ = split_into_tiles(scene.rgb, tile_size)
        labels = autolabel_batch(tiles, apply_cloud_filter=apply_cloud_filter)
        trainer.fit(BatchLoader(tiles, labels, batch_size=batch_size, seed=seed), epochs=epochs)
    return trainer


def _cmd_classify(args: argparse.Namespace) -> int:
    import time

    from .data import SceneSpec, synthesize_scene
    from .imops.resize import TileGrid
    from .metrics import accuracy_score
    from .unet import InferenceConfig, SceneClassifier

    scene = synthesize_scene(
        SceneSpec(height=args.scene_size, width=args.scene_size, cloud_coverage=args.clouds, seed=args.seed)
    )
    trainer = _quick_trainer(scene, args.tile_size, args.epochs, args.batch_size, args.seed, not args.no_filter,
                             depth=args.depth, base_channels=args.base_channels)

    config = InferenceConfig(
        tile_size=args.tile_size,
        overlap=args.overlap,
        apply_cloud_filter=not args.no_filter,
        batch_size=args.batch_size,
        num_workers=args.workers,
        backend=args.backend,
    )
    with SceneClassifier(model=trainer.master, config=config) as classifier:
        start = time.perf_counter()
        class_map = classifier.classify_scene(scene.rgb)
        elapsed = time.perf_counter() - start
    # Tile count from geometry alone — no need to cut the scene a second time.
    num_tiles = TileGrid.covering((args.scene_size, args.scene_size), args.tile_size, args.overlap).num_tiles
    print(
        json.dumps(
            {
                "scene_size": args.scene_size,
                "tile_size": args.tile_size,
                "overlap": args.overlap,
                "backend": config.resolved_backend(),
                "num_workers": args.workers,
                "batch_size": args.batch_size,
                "num_tiles": num_tiles,
                "elapsed_s": round(elapsed, 3),
                "tiles_per_s": round(num_tiles / elapsed, 3) if elapsed > 0 else None,
                "accuracy_vs_ground_truth": round(accuracy_score(scene.class_map, class_map), 4),
            },
            indent=2,
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import tempfile

    from .serving import InferenceService, ModelRegistry, ServiceConfig, run_service
    from .unet import InferenceConfig

    inference = None
    if args.inference_config:
        with open(args.inference_config) as fh:
            inference = InferenceConfig.from_dict(json.load(fh))
    if args.backend != "auto" or args.backend_workers is not None:
        from dataclasses import replace

        base = inference or InferenceConfig()
        inference = replace(
            base,
            backend=args.backend,
            num_workers=args.backend_workers if args.backend_workers is not None else base.num_workers,
        )

    if args.demo:
        registry_dir = args.registry or tempfile.mkdtemp(prefix="repro-registry-")
        _publish_demo_model(registry_dir, args)
        registry = ModelRegistry(registry_dir, inference=inference, max_warm=args.max_warm)
    elif args.registry:
        registry = ModelRegistry(args.registry, inference=inference, max_warm=args.max_warm)
    else:
        print("error: pass --registry DIR (or --demo to train and serve a toy model)", file=sys.stderr)
        return 2

    models = registry.models()
    if not models:
        print(f"error: no models found in registry {registry.root!r} "
              "(expected <name>/<version>.npz)", file=sys.stderr)
        return 2

    service = InferenceService(
        registry,
        ServiceConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            request_timeout_s=args.request_timeout_ms / 1e3,
            max_queue=args.max_queue if args.max_queue > 0 else None,
            max_concurrent=args.max_concurrent if args.max_concurrent > 0 else None,
        ),
    )
    def announce(server) -> None:
        # The ready line is machine-readable on purpose: --port 0 binds an
        # ephemeral port and scripts need to learn which one.
        print(json.dumps({
            "serving": True,
            "host": server.server_address[0],
            "port": server.server_address[1],
            "models": {name: versions for name, versions in models.items()},
            "endpoints": ["/healthz", "/models", "/stats", "/metrics", "/predict"],
        }), flush=True)

    run_service(service, quiet=args.quiet, on_ready=announce)
    return 0


def _bench_dir() -> str | None:
    """Locate the ``benchmarks/`` directory (cwd first, then the repo checkout)."""
    import os

    candidates = [
        os.path.join(os.getcwd(), "benchmarks"),
        os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")),
    ]
    for candidate in candidates:
        if os.path.isdir(candidate):
            return candidate
    return None


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run one repo benchmark through pytest and print its BENCH_*.json."""
    import os

    bench_dir = _bench_dir()
    if bench_dir is None:
        print("error: no benchmarks/ directory found (run from the repo checkout)", file=sys.stderr)
        return 2
    available = sorted(
        entry[len("test_"):-len(".py")]
        for entry in os.listdir(bench_dir)
        if entry.startswith("test_") and entry.endswith(".py")
    )
    if args.list or args.name is None:
        print(json.dumps({"benchmarks": available}, indent=2))
        return 0
    name = args.name.removeprefix("test_").removesuffix(".py")
    if name not in available:
        print(f"error: unknown benchmark {name!r}; available: {available}", file=sys.stderr)
        return 2

    try:
        import pytest
    except ImportError:  # pragma: no cover - pytest ships with the dev env
        print("error: the bench command needs pytest installed", file=sys.stderr)
        return 2

    json_dir = os.path.abspath(args.json_dir)
    os.environ["BENCH_JSON_DIR"] = json_dir
    if args.smoke:
        os.environ["BENCH_SMOKE"] = "1"
    before = set()
    if os.path.isdir(json_dir):
        before = {entry for entry in os.listdir(json_dir) if entry.startswith("BENCH_")}
    rc = pytest.main([os.path.join(bench_dir, f"test_{name}.py"), "-q", "-s",
                      "-p", "no:cacheprovider"])
    if rc != 0:
        return int(rc)
    written = sorted(
        entry for entry in os.listdir(json_dir)
        if entry.startswith("BENCH_") and (entry not in before
                                           or name in entry)
    )
    for entry in written:
        with open(os.path.join(json_dir, entry)) as fh:
            print(f"== {entry} ==")
            print(fh.read().rstrip())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run the opt-in profiling hooks and print (or write) the JSON report."""
    from .obs import profile_inference, profile_training
    from .unet import UNet, UNetConfig

    def config(dropout: float) -> UNetConfig:
        return UNetConfig(depth=args.depth, base_channels=args.base_channels, dropout=dropout, seed=args.seed)

    report: dict = {}
    if args.what in ("inference", "all"):
        report["inference"] = profile_inference(
            UNet(config(0.0)),
            batch_shape=(args.batch_size, args.tile_size, args.tile_size),
            iterations=args.iterations,
            warmup=args.warmup,
            seed=args.seed,
        )
    if args.what in ("training", "all"):
        report["training"] = profile_training(
            config(0.1),  # so Dropout gets its budget line
            epochs=args.epochs,
            batches=args.batches,
            batch_size=args.batch_size,
            tile=args.tile_size,
            seed=args.seed,
        )
    text = json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _publish_demo_model(registry_dir: str, args: argparse.Namespace) -> None:
    """Train (or just initialise) a tiny model and publish it as a registry checkpoint."""
    from .data import SceneSpec, synthesize_scene
    from .serving import ModelRegistry
    from .unet import InferenceConfig

    scene = synthesize_scene(SceneSpec(height=128, width=128, cloud_coverage=0.2, seed=args.seed))
    trainer = _quick_trainer(scene, 32, args.demo_epochs, 8, args.seed, apply_cloud_filter=False)
    registry = ModelRegistry(registry_dir)
    registry.publish(
        "seaice-demo",
        1,
        trainer.master,
        optimizer=trainer.optimizer,
        inference=InferenceConfig(tile_size=32, apply_cloud_filter=False),
        extra_metadata={"demo": True, "epochs": args.demo_epochs},
    )


_BACKENDS = ("auto", "serial", "fork")


def _add_archive_args(p, scene_size: int, tile_size: int, scenes: int | None = None, seed: int | None = 0) -> None:
    """The synthetic-archive options, with one sub-command's defaults (``None``: it has no such option)."""
    if scenes is not None:
        p.add_argument("--scenes", type=int, default=scenes)
    p.add_argument("--scene-size", type=int, default=scene_size)
    p.add_argument("--tile-size", type=int, default=tile_size)
    if seed is not None:
        p.add_argument("--seed", type=int, default=seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-seaice", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("autolabel", help="auto-label a synthetic archive")
    _add_archive_args(p, scenes=4, scene_size=256, tile_size=128)
    p.add_argument("--backend", choices=_BACKENDS, default="auto",
                   help="execution backend (auto resolves from REPRO_BACKEND, then --workers)")
    p.add_argument("--workers", type=int, default=1, help="backend worker count")
    p.add_argument("--no-filter", action="store_true", help="skip the thin-cloud/shadow filter")
    p.set_defaults(func=_cmd_autolabel)

    p = sub.add_parser("scaling", help="print the scaling tables: Table I measured here, Tables II-III from the calibrated cost model")
    p.add_argument("--table", choices=("1", "2", "3", "all"), default="all")
    _add_archive_args(p, scenes=2, scene_size=256, tile_size=128, seed=None)
    p.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser(
        "train",
        help="run the U-Net-Man vs U-Net-Auto experiment (Tables IV/V) on any number of "
             "training workers and print one JSON document (tables, digests, losses)",
    )
    _add_archive_args(p, scenes=6, scene_size=128, tile_size=32)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--workers", type=int, default=0,
                   help="forked training workers (0 = train in-process; the output "
                        "is the same for every count at equal --micro-shards)")
    p.add_argument("--micro-shards", type=int, default=None,
                   help="fixed micro-shard count M (default: 2, or --workers above 2); runs "
                        "with equal M are bit-identical for any worker count, 0 included")
    p.add_argument("--batch-size", type=int, default=8, help="global batch size")
    p.add_argument("--step-timeout", type=float, default=60.0,
                   help="per-shard deadline (s) before a worker is killed, respawned and the shard re-run")
    p.add_argument("--checkpoint-dir", default=None,
                   help="directory for atomic ckpt-*.npz checkpoints")
    p.add_argument("--checkpoint-every", type=int, default=0,
                   help="checkpoint every N global steps (epoch ends always)")
    p.add_argument("--resume", action="store_true",
                   help="resume bit-exactly from the newest readable checkpoint")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("prep", help="time the scene-preparation pipeline")
    _add_archive_args(p, scenes=2, scene_size=256, tile_size=128)
    p.add_argument("--overlap", type=int, default=0, help="pixels shared by neighbouring tiles")
    p.set_defaults(func=_cmd_prep)

    p = sub.add_parser("classify", help="run the tiled scene-inference engine on a synthetic scene")
    _add_archive_args(p, scene_size=256, tile_size=64)
    p.add_argument("--overlap", type=int, default=0, help="pixels shared by neighbouring tiles (blend-stitched)")
    p.add_argument("--backend", choices=_BACKENDS, default="auto",
                   help="execution backend for batch fan-out (auto resolves from "
                        "REPRO_BACKEND, then --workers)")
    p.add_argument("--workers", type=int, default=1,
                   help="backend worker count (under --backend auto, N > 1 forks N workers)")
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--epochs", type=int, default=3,
                   help="quick auto-label training epochs before inference (0 = untrained throughput run)")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--base-channels", type=int, default=8)
    p.add_argument("--clouds", type=float, default=0.2, help="cloud coverage of the synthetic scene")
    p.add_argument("--no-filter", action="store_true", help="skip the thin-cloud/shadow filter")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "serve", help="serve registry models over JSON HTTP endpoints",
        description="Serve registry models over JSON HTTP endpoints.  Micro-batching has no "
                    "window to tune (the batch-window flag is gone): an idle batcher flushes "
                    "what is queued at once, so a lone request never waits; while a flush is "
                    "in flight the queue fills and the next flush takes up to --max-batch "
                    "tiles.  Every response is written as one TCP segment, so keep-alive "
                    "clients never sit out a delayed ACK between head and body.")
    p.add_argument("--registry", default=None, help="registry directory (<name>/<version>.npz)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080, help="0 binds an ephemeral port")
    p.add_argument("--max-batch", type=int, default=16, help="most tiles one flush takes")
    p.add_argument("--max-warm", type=int, default=None,
                   help="LRU cap on warm models kept resident (default: unbounded)")
    p.add_argument("--request-timeout-ms", type=float, default=60000.0,
                   help="per-request deadline; expired work is dropped and answered 504")
    p.add_argument("--max-queue", type=int, default=128,
                   help="per-model batcher queue bound; past it requests shed with 503 "
                        "(0 = unbounded)")
    p.add_argument("--max-concurrent", type=int, default=64,
                   help="service-wide in-flight /predict cap; past it requests shed "
                        "with 503 + Retry-After (0 = unlimited)")
    p.add_argument("--inference-config", default=None,
                   help="JSON file of InferenceConfig settings overriding archive metadata")
    p.add_argument("--backend", choices=_BACKENDS, default="auto",
                   help="execution backend every served model dispatches through")
    p.add_argument("--backend-workers", type=int, default=None,
                   help="worker count for the fork backend")
    p.add_argument("--demo", action="store_true",
                   help="publish a freshly trained tiny model into the registry and serve it")
    p.add_argument("--demo-epochs", type=int, default=1,
                   help="training epochs for the --demo model (0 serves it untrained)")
    p.add_argument("--quiet", action="store_true", help="suppress per-request access logs")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("bench", help="run one benchmarks/ module and print its BENCH_*.json")
    p.add_argument("name", nargs="?", default=None,
                   help="benchmark name, e.g. inference_throughput (omit or --list to list)")
    p.add_argument("--list", action="store_true", help="list available benchmarks")
    p.add_argument("--smoke", action="store_true", help="run at CI smoke scale (BENCH_SMOKE=1)")
    p.add_argument("--json-dir", default=".", help="directory for the BENCH_*.json outputs")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("profile", help="run the profiling hooks and print a JSON report")
    p.add_argument("what", nargs="?", choices=("inference", "training", "all"), default="all",
                   help="which profile to run (default: all)")
    p.add_argument("--tile-size", type=int, default=32, help="square input tile edge")
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--iterations", type=int, default=50, help="measured inference iterations")
    p.add_argument("--warmup", type=int, default=5, help="unmeasured warmup iterations")
    p.add_argument("--epochs", type=int, default=2, help="profiled training epochs")
    p.add_argument("--batches", type=int, default=4, help="batches per training epoch")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--base-channels", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None, help="write the JSON report to a file instead of stdout")
    p.set_defaults(func=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

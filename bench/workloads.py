"""The five workloads.  Each drives the program through its public functions only.

A workload builds its inputs from the seed in ``setup`` (which ends with one
untimed warm-up operation), repeats one *operation* — a round, an epoch, a
request — for the measured time, and checks every output: cheaply against
the first one after each operation, and against an independent reference
once at the end.  ``traced_op`` does the same work through the layers' public
functions with a span around each call.

Program-side worker counts are fixed (not derived from the host) so the same
work is asked for on every host.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.data import SceneSpec, build_dataset, synthesize_scene
from repro.data.io import load_dataset, save_dataset
from repro.data.loader import BatchLoader
from repro.distributed.elastic import ElasticTrainer
from repro.imops.resize import assemble_from_tiles, split_into_tiles
from repro.labeling.autolabel import autolabel_batch
from repro.mapreduce.autolabel_job import run_mapreduce_autolabel
from repro.nn import save_checkpoint
from repro.obs import get_registry, set_metrics_enabled
from repro.serving import InferenceService, ModelRegistry
from repro.serving.service import ServiceConfig, make_server
from repro.unet import InferenceConfig, SceneClassifier, UNet, UNetConfig
from repro.unet.inference import predict_batch_probabilities, predict_tile_probabilities

from .metrics import ROOT
from .stats import median, parent_rss_kb, percentile, stop_resource_tracker

WORKERS = 2  # what the user asks the program for, on every host


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def conv_gemm_flops(config: UNetConfig, height: int, width: int) -> int:
    """Multiply-adds x2 of every convolution for one tile, computed from the shapes."""
    def conv(cin, cout, k, level):
        return 2 * cin * cout * k * k * (height >> level) * (width >> level)

    widths = config.encoder_channels()
    total, cin = 0, config.in_channels
    for level, w in enumerate(widths):
        total += conv(cin, w, 3, level) + conv(w, w, 3, level)
        cin = w
    bottom = 2 * widths[-1]
    total += conv(cin, bottom, 3, config.depth) + conv(bottom, bottom, 3, config.depth)
    cin = bottom
    for level, w in reversed(list(enumerate(widths))):
        total += conv(cin, w, 2, level) + conv(2 * w, w, 3, level) + conv(w, w, 3, level)
        cin = w
    return total + conv(cin, config.num_classes, 1, 0)


@dataclass
class Measured:
    """One timed region: per-operation seconds, and operations attempted / failed in items."""

    samples: list
    wall: float
    attempted: int
    failed: int
    parent_rss_kb: int  # peak so far when the timed region ended, before any reference check
    first_output: str | None  # digest every operation was held to; equal across set-ups of one seed


class Workload:
    name = ""
    min_ops = 2  # per timed region, however short

    def __init__(self, seed: int, out_dir: str, smoke: bool = False, env_as_found=None) -> None:
        self.seed, self.smoke = int(seed), smoke
        self.env_as_found = dict(os.environ if env_as_found is None else env_as_found)
        self.dir = os.path.join(out_dir, f"tmp-{self.name}-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.items_per_op = 0
        self._first_digest = self._wrong = None

    # -- to implement -------------------------------------------------- #
    def setup(self) -> None: ...
    def op(self): ...
    def traced_op(self, tracer): ...
    def output_digest(self, result) -> str: ...
    def check_reference(self) -> int:
        """Items of one operation's (first) output that disagree with the independent reference."""
        return 0
    def layer_extras(self, seconds: float) -> dict:
        return {}

    def teardown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- shared --------------------------------------------------------- #
    def ok(self, result) -> bool:
        """Every operation must reproduce the first one's output bit for bit."""
        found = self.output_digest(result)
        if self._first_digest is None:
            self._first_digest = found
        return found == self._first_digest

    def reference_failures(self) -> int:
        """``check_reference``, run once (after the first timed region, outside every sample)."""
        if self._wrong is None:
            self._wrong = self.check_reference()
        return self._wrong

    @staticmethod
    def throughput(items_per_op: int, samples: list, ok_items: int, wall: float) -> float:
        """Items per second: the items of one operation over the median operation time."""
        return items_per_op / median(samples)

    def measure(self, seconds: float, tracer=None, reference: bool = True) -> Measured:
        samples, bad = [], 0
        begin = time.perf_counter()
        with tracer.span("bench.measure") if tracer else nullcontext():
            while len(samples) < self.min_ops or time.perf_counter() < begin + seconds:
                start = time.perf_counter()
                result = self.traced_op(tracer) if tracer else self.op()
                samples.append(time.perf_counter() - start)
                bad += not self.ok(result)
        wall, ops, rss = time.perf_counter() - begin, len(samples), parent_rss_kb()
        failed = bad * self.items_per_op + (ops - bad) * (self.reference_failures() if reference else 0)
        return Measured(samples, wall, ops * self.items_per_op, failed, rss, self._first_digest)


# ---------------------------------------------------------------------- #
class AutoLabel(Workload):
    """load_dataset -> map-reduce auto-labeling over two processes."""

    name = "autolabel"

    def setup(self) -> None:
        dataset = build_dataset(num_scenes=2 if self.smoke else 6, scene_size=512, tile_size=256,
                                base_seed=self.seed, cloudy_fraction=0.5)
        self.path = save_dataset(dataset, os.path.join(self.dir, "tiles"))
        self.items_per_op = len(dataset)
        self._job_s: list[float] = []
        self.labels = self.op()
        self.ok(self.labels)

    def op(self):
        tiles = load_dataset(self.path).images
        return run_mapreduce_autolabel(tiles, executor="processes", parallelism=WORKERS).labels

    def traced_op(self, tracer):
        with tracer.span("data.load_dataset"):
            tiles = load_dataset(self.path).images
        with tracer.span("mapreduce.run_mapreduce_autolabel") as job:
            labels = run_mapreduce_autolabel(tiles, executor="processes", parallelism=WORKERS).labels
        self._job_s.append(job["end"] - job["start"])
        tracer.count("mapreduce.tiles", len(tiles))
        return labels

    output_digest = staticmethod(digest)

    def check_reference(self) -> int:
        reference = autolabel_batch(load_dataset(self.path).images)
        return int((reference != self.labels).any(axis=(1, 2)).sum())

    def layer_extras(self, seconds: float) -> dict:
        tiles = load_dataset(self.path).images
        start = time.perf_counter()
        run_mapreduce_autolabel(tiles, executor="serial", parallelism=1)
        serial = time.perf_counter() - start
        return {"mapreduce.parallel_efficiency": serial / (WORKERS * median(self._job_s))}


# ---------------------------------------------------------------------- #
class _Scene(Workload):
    """SceneClassifier.classify_scene on one scene; ``workers`` picks serial or two workers."""

    workers = 1
    tile, batch = 256, 2  # batch 4 makes 310 MB plan arenas whose first touch swamps set-up on this VM

    def _config(self, **overrides) -> InferenceConfig:
        options = dict(tile_size=self.tile, overlap=0, apply_cloud_filter=False,
                       batch_size=self.batch, backend="serial", num_workers=1)
        options.update(overrides)
        return InferenceConfig(**options)

    def setup(self) -> None:
        height, width = (256, 512) if self.smoke else (512, 1024)
        self.scene = synthesize_scene(SceneSpec(height=height, width=width, cloud_coverage=0.25,
                                                seed=self.seed)).rgb
        self.model = UNet(UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=self.seed))
        self.items_per_op = (height // self.tile) * (width // self.tile)
        if self.smoke:
            self.batch = 1  # two tiles: keep two spans so both workers get one
        config = self._config() if self.workers == 1 else self._config(backend="auto",
                                                                        num_workers=self.workers)
        self.classifier = SceneClassifier(model=self.model, config=config)
        self.reference = None
        self.class_map = self.op()
        self.ok(self.class_map)

    def op(self):
        return self.classifier.classify_scene(self.scene)

    output_digest = staticmethod(digest)

    def _stitch(self, tracer, grid, probs):
        with tracer.span("unet.assemble_from_tiles"):
            stitched = np.asarray(assemble_from_tiles(np.moveaxis(probs, 1, -1), grid))
            return stitched.argmax(axis=-1).astype(np.uint8)

    def teardown(self) -> None:
        self.classifier.close()
        if self.reference is not None:
            self.reference.close()
        super().teardown()

    def _plan_cache_extras(self) -> dict:
        info = self.classifier.plan_cache_info() or {}
        return {"nn.plan_cache_hits": info.get("hits", 0), "nn.plan_cache_misses": info.get("misses", 0),
                "nn.plan_arena_bytes": info.get("arena_bytes", 0),
                "nn.conv_gemm_flops_per_tile": conv_gemm_flops(self.model.config, self.tile, self.tile)}


class SceneSerial(_Scene):
    name = "scene_serial"

    def traced_op(self, tracer):
        with tracer.span("unet.split_into_tiles"):
            tiles, grid = split_into_tiles(self.scene, tile_size=self.tile, overlap=0)
        parts = []
        for start in range(0, tiles.shape[0], self.batch):
            with tracer.span("nn.predict_batch_probabilities"):
                parts.append(predict_batch_probabilities(tiles[start:start + self.batch],
                                                         engine=self.classifier.engine))
            tracer.count("nn.tiles", len(parts[-1]))
        return self._stitch(tracer, grid, np.concatenate(parts, axis=0))

    def check_reference(self) -> int:
        """The uncompiled layer walk must give (to 99.99% of pixels) the same class map."""
        self.reference = SceneClassifier(model=self.model, config=self._config(compile_plans=False))
        agree = float(np.mean(self.reference.classify_scene(self.scene) == self.class_map))
        return 0 if agree >= 0.9999 else self.items_per_op

    def layer_extras(self, seconds: float) -> dict:
        return self._plan_cache_extras()


class SceneWorkers(_Scene):
    name = "scene_workers"
    workers = WORKERS

    def traced_op(self, tracer):
        with tracer.span("unet.split_into_tiles"):
            tiles, grid = split_into_tiles(self.scene, tile_size=self.tile, overlap=0)
        with tracer.span("backend.predict_stack"):
            probs = predict_tile_probabilities(self.model, tiles, batch_size=self.batch,
                                               backend=self.classifier.backend)
        tracer.count("backend.tiles", len(tiles))
        return self._stitch(tracer, grid, probs)

    def check_reference(self) -> int:
        """Two workers must give the serial classifier's class map bit for bit."""
        self.reference = SceneClassifier(model=self.model, config=self._config())
        same = digest(self.reference.classify_scene(self.scene)) == digest(self.class_map)
        return 0 if same else self.items_per_op

    def interleaved(self, seconds: float) -> tuple[float, float]:
        """Median serial and median 2-worker round time, the rounds taken in turn."""
        self.reference_failures()  # builds and warms the serial classifier
        serial, workers = [], []
        deadline = time.perf_counter() + seconds
        while len(serial) < 3 or time.perf_counter() < deadline:
            for classifier, times in ((self.reference, serial), (self.classifier, workers)):
                start = time.perf_counter()
                classifier.classify_scene(self.scene)
                times.append(time.perf_counter() - start)
        return median(serial), median(workers)

    @classmethod
    def speedup_in_this_process(cls, seed: int, seconds: float, out_dir: str, smoke: bool) -> float:
        """Set up, interleave, tear down: what ``_AS_FOUND_CHILD`` runs under the caller's BLAS settings."""
        workload = cls(seed, out_dir, smoke)
        workload.setup()
        try:
            serial, workers = workload.interleaved(seconds)
        finally:
            workload.teardown()
            stop_resource_tracker()
        return serial / workers

    def layer_extras(self, seconds: float) -> dict:
        serial, workers = self.interleaved(seconds / 2)
        # The benchmark pins BLAS to one thread a process; the same ratio in a child
        # that has the environment as found keeps the oversubscription deficit in view.
        child = subprocess.run(
            [sys.executable, "-c", _AS_FOUND_CHILD, str(self.seed), str(seconds / 2), self.dir,
             str(int(self.smoke))],
            env={**self.env_as_found, "PYTHONPATH": os.pathsep.join([ROOT, os.path.join(ROOT, "src")])},
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        occupancy = self.classifier.backend.occupancy()
        shm = get_registry().get("repro_store_shm_bytes")
        return {
            **self._plan_cache_extras(),
            "backend.workers_speedup": serial / workers,
            "backend.workers_speedup_blas_as_found": float(child.stdout.splitlines()[-1]),
            "backend.dispatch_overhead_share": 100.0 * (workers - serial / WORKERS) / workers,
            "backend.shm_bytes": shm.value() if shm is not None else 0,
            "backend.respawns": occupancy["respawns"],
            "backend.retries": occupancy["dispatch_retries"],
        }


_AS_FOUND_CHILD = ("import sys; from bench.workloads import SceneWorkers; "
                   "print(SceneWorkers.speedup_in_this_process(int(sys.argv[1]), float(sys.argv[2]), "
                   "sys.argv[3], bool(int(sys.argv[4]))))")


# ---------------------------------------------------------------------- #
def _no_span(_name: str):
    return nullcontext()


def _read_response(sock: socket.socket, buffer: bytes) -> tuple[int, bytes, bytes]:
    """One HTTP/1.1 response off a keep-alive socket -> (status, body, bytes read past it)."""
    def more() -> bytes:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    while b"\r\n\r\n" not in buffer:
        buffer += more()
    head, _, rest = buffer.partition(b"\r\n\r\n")
    status_line, *headers = head.split(b"\r\n")
    length = 0
    for line in headers:
        key, _, value = line.partition(b":")
        if key.strip().lower() == b"content-length":
            length = int(value)
    while len(rest) < length:
        rest += more()
    return int(status_line.split(b" ", 2)[1]), rest[:length], rest[length:]


def response_failed(status: int, body: bytes, expected_counts: dict) -> bool:
    """A response is a failed operation unless it is a 200 with the reference class counts."""
    if status != 200:
        return True
    try:
        return json.loads(body)["class_counts"] != expected_counts
    except (ValueError, KeyError, TypeError):
        return True


class ServeTiles(Workload):
    """A live HTTP server; two keep-alive connections POST single 32x32 tiles in closed loop."""

    name = "serve_tiles"
    connections = 2
    tile = 32

    def setup(self) -> None:
        self.model = UNet(UNetConfig(depth=2, base_channels=8, dropout=0.0, seed=self.seed))
        self.registry = ModelRegistry(root=os.path.join(self.dir, "registry"))
        self.registry.publish("seaice", 1, self.model, inference=InferenceConfig(
            tile_size=self.tile, apply_cloud_filter=False, backend="serial", num_workers=1))
        self.service = InferenceService(self.registry, ServiceConfig(host="127.0.0.1", port=0))
        self.server = make_server(self.service)
        self.server_thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.server_thread.start()
        self.port = self.server.server_address[1]
        rng = np.random.default_rng(self.seed)
        self.tiles = rng.integers(0, 255, size=(16 if self.smoke else 64, self.tile, self.tile, 3),
                                  dtype=np.uint8)
        self.requests = []
        for tile in self.tiles:  # encoded once, so the client adds no work between send and receive
            body = json.dumps({"model": "seaice", "tile": tile.tolist()}).encode()
            self.requests.append(b"POST /predict HTTP/1.1\r\nHost: bench\r\n"
                                 b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
                                 % (len(body), body))
        self.sockets = []
        for _ in range(self.connections):
            sock = socket.create_connection(("127.0.0.1", self.port), timeout=30)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sockets.append(sock)
        self.items_per_op = 1
        self.responses: list = []
        self._closed_loop(0.0, min_requests=4)  # warm-up: model load, plan compile

    def _client(self, index: int, deadline: float, min_requests: int, tracer, out: list) -> None:
        span = tracer.span if tracer else _no_span
        sock, buffer, pick = self.sockets[index], b"", index
        with span("bench.client"):
            while len(out) < min_requests or time.perf_counter() < deadline:
                which = pick % len(self.requests)
                with span("serving.http_request"):
                    start = time.perf_counter()
                    sock.sendall(self.requests[which])  # one send per request, TCP_NODELAY
                    status, body, buffer = _read_response(sock, buffer)
                    elapsed = time.perf_counter() - start
                out.append((which, status, body, elapsed))
                pick += self.connections

    def _closed_loop(self, seconds: float, min_requests: int = 1, tracer=None) -> tuple[list, float]:
        outs = [[] for _ in range(self.connections)]
        start = time.perf_counter()
        threads = [threading.Thread(target=self._client,
                                    args=(i, start + seconds, min_requests, tracer, outs[i]))
                   for i in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [entry for out in outs for entry in out], time.perf_counter() - start

    def _expected(self, which: int) -> dict:
        if not hasattr(self, "_expected_counts"):
            probs = predict_batch_probabilities(self.tiles, self.model)
            self._expected_counts = []
            for class_map in probs.argmax(axis=1):
                values, counts = np.unique(class_map, return_counts=True)
                self._expected_counts.append({str(int(v)): int(c) for v, c in zip(values, counts)})
        return self._expected_counts[which]

    @staticmethod
    def throughput(items_per_op: int, samples: list, ok_items: int, wall: float) -> float:
        """200-responses with the right counts per second of wall time, both connections together."""
        return ok_items / wall

    def measure(self, seconds: float, tracer=None, reference: bool = True) -> Measured:
        """Every response is held to the reference counts, whatever ``reference`` says."""
        responses, wall = self._closed_loop(seconds, tracer=tracer)
        self.responses, rss = responses, parent_rss_kb()
        failed = sum(response_failed(status, body, self._expected(which))
                     for which, status, body, _ in responses)
        samples = [elapsed for *_rest, elapsed in responses]
        return Measured(samples, wall, len(responses), failed, rss, None)

    def layer_extras(self, seconds: float) -> dict:
        """Server-reported stage times of the traced requests, then a metrics-off closed loop."""
        bodies = [json.loads(body) for _w, status, body, _e in self.responses if status == 200]
        client_p50 = median(e for *_r, e in self.responses) * 1e3
        p99 = percentile([e for *_r, e in self.responses], 99)
        extras = {
            "serving.http_overhead_share":
                100.0 * (client_p50 - median(b["elapsed_ms"] for b in bodies)) / client_p50,
            "serving.request_bytes": len(self.requests[0]),
            "serving.response_bytes": median(len(body) for _w, _s, body, _e in self.responses),
            "serving.p99_over_p50": 0.0 if p99 is None else p99 * 1e3 / client_p50,
        }
        for stage in ("resolve", "queue_wait", "batch_assembly", "dispatch", "stitch"):
            extras[f"serving.stage.{stage}_share"] = \
                100.0 * median(b["stage_timings"][f"{stage}_ms"] for b in bodies) / client_p50
        stats = self.service.stats_payload()
        batcher = next(iter(stats["batchers"].values()))
        extras["serving.mean_batch"] = batcher["mean_batch_size"]
        extras["reliability.shed"] = stats["reliability"]["admission"]["shed"] + batcher["shed"]
        extras["reliability.expired"] = stats["reliability"]["expired_requests"] + batcher["expired"]
        plans = next(iter(stats["plan_caches"].values()))
        extras.update({"nn.plan_cache_hits": plans["hits"], "nn.plan_cache_misses": plans["misses"],
                       "nn.plan_arena_bytes": plans["arena_bytes"],
                       "nn.conv_gemm_flops_per_tile": conv_gemm_flops(self.model.config, self.tile, self.tile)})
        set_metrics_enabled(False)
        try:
            responses, wall = self._closed_loop(seconds)
        finally:
            set_metrics_enabled(True)
        extras["obs.metrics_off_req_per_s"] = sum(s == 200 for _w, s, _b, _e in responses) / wall
        return extras

    def teardown(self) -> None:
        for sock in self.sockets:
            sock.close()
        self.server.shutdown()
        self.server.server_close()
        self.server_thread.join(timeout=10)
        self.service.close()
        self.registry.close()
        super().teardown()


# ---------------------------------------------------------------------- #
class _TracedLoader:
    """A BatchLoader seen through spans: what ``fit`` waits for the loader is ``data`` time."""

    def __init__(self, loader: BatchLoader, tracer) -> None:
        self.loader, self.tracer = loader, tracer

    def rng_state(self) -> dict:
        return self.loader.rng_state()

    def __iter__(self):
        batches = iter(self.loader)
        while True:
            with self.tracer.span("data.BatchLoader.next"):
                batch = next(batches, None)
            if batch is None:
                return
            yield batch


class TrainElastic(Workload):
    """ElasticTrainer.fit, one epoch per operation, two workers, checkpoint every 4 steps."""

    name = "train_elastic"
    batch = 8
    replay_epochs = 2  # how far the 1-worker reference follows the 2-worker run

    def _make(self, workers: int, tag: str) -> tuple[ElasticTrainer, BatchLoader]:
        loader = BatchLoader(self.images, self.labels, batch_size=self.batch, shuffle=True,
                             augment=True, drop_last=True, seed=self.seed)
        trainer = ElasticTrainer(
            num_workers=workers, micro_shards=WORKERS, seed=self.seed,
            config=UNetConfig(depth=3, base_channels=8, dropout=0.1, seed=self.seed),
            checkpoint_dir=os.path.join(self.dir, tag), checkpoint_every=4)
        trainer.start()
        return trainer, loader

    def setup(self) -> None:
        dataset = build_dataset(num_scenes=1 if self.smoke else 4, scene_size=256, tile_size=64,
                                base_seed=self.seed, cloudy_fraction=0.5)
        self.images, self.labels = dataset.images, dataset.labels
        self.items_per_op = len(dataset) // self.batch * self.batch
        self.trainer, self.loader = self._make(WORKERS, "ckpt")
        self.digests: list[str] = []
        self.ok(self.op())

    def op(self):
        loss = self.trainer.fit(self.loader, epochs=1).epochs[-1].loss
        self.digests.append(self.trainer.weights_digest())
        return loss

    def traced_op(self, tracer):
        with tracer.span("distributed.fit"):
            loss = self.trainer.fit(_TracedLoader(self.loader, tracer), epochs=1).epochs[-1].loss
        tracer.count("distributed.steps", len(self.loader))
        self.digests.append(self.trainer.weights_digest())
        return loss

    def ok(self, loss) -> bool:
        self._first_digest = self.digests[0]  # the weights the warm-up epoch reached
        return bool(np.isfinite(loss))

    def check_reference(self) -> int:
        """A 1-worker run with the same micro-shards and seed must reach the same weights."""
        trainer, loader = self._make(1, "ckpt-reference")
        self.reference_epochs, reached = [], []
        try:
            for _ in range(min(self.replay_epochs, len(self.digests))):
                start = time.perf_counter()
                trainer.fit(loader, epochs=1)
                self.reference_epochs.append(time.perf_counter() - start)
                reached.append(trainer.weights_digest())
        finally:
            trainer.close()
        return 0 if reached == self.digests[:len(reached)] else self.items_per_op

    @staticmethod
    def _registry_totals() -> dict:
        """The trainer's own step / fold histograms and byte counter (sums so far)."""
        registry = get_registry()
        step = registry.get("repro_train_step_ms").snapshot()
        fold = registry.get("repro_train_allreduce_ms").snapshot()
        return {"steps": step["count"], "step_ms": step["sum"], "fold_ms": fold["sum"],
                "fold_bytes": registry.get("repro_train_allreduce_bytes_total").value()}

    def measure(self, seconds: float, tracer=None, reference: bool = True) -> Measured:
        first = self._registry_totals()
        measured = super().measure(seconds, tracer, reference)
        last = self._registry_totals()
        self._registry_delta = {key: last[key] - first[key] for key in first}
        self._epoch_s = median(measured.samples)
        return measured

    def layer_extras(self, seconds: float) -> dict:
        delta, steps_per_epoch = self._registry_delta, len(self.loader)
        self.reference_failures()
        single = self.items_per_op / median(self.reference_epochs[1:] or self.reference_epochs)
        path = os.path.join(self.dir, "probe-ckpt.npz")
        start = time.perf_counter()
        save_checkpoint(self.trainer.master, self.trainer.optimizer, path)
        checkpoint = time.perf_counter() - start
        # fit checkpoints every 4th step and once more when the epoch ends
        checkpoints_per_epoch = steps_per_epoch // 4 + 1
        stats = self.trainer.stats()
        return {
            "distributed.step_share": 100.0 * delta["step_ms"] / 1e3 / delta["steps"] * steps_per_epoch / self._epoch_s,
            "distributed.fold_share": 100.0 * delta["fold_ms"] / delta["step_ms"],
            "distributed.checkpoint_share": 100.0 * checkpoint * checkpoints_per_epoch / self._epoch_s,
            "distributed.allreduce_bytes_per_step": delta["fold_bytes"] / delta["steps"],
            "distributed.single_worker_img_per_s": single,
            "distributed.scaling_efficiency": (self.items_per_op / self._epoch_s) / (WORKERS * single),
            "distributed.ring_rebuilds": stats["ring_rebuilds"],
            "distributed.worker_respawns": stats["worker_respawns"],
        }

    def teardown(self) -> None:
        self.trainer.close()
        super().teardown()


WORKLOADS = {cls.name: cls for cls in (AutoLabel, SceneSerial, SceneWorkers, ServeTiles, TrainElastic)}

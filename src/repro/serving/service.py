"""JSON-over-HTTP serving front-end (stdlib ``http.server`` only).

The service wires the other serving pieces together: a
:class:`~repro.serving.registry.ModelRegistry` resolves model names to warm
classifiers, and every model gets one shared
:class:`~repro.serving.batching.MicroBatcher`, so tiles from *concurrent*
HTTP requests (``ThreadingHTTPServer`` runs one thread per connection)
coalesce into single batched forward passes.

Endpoints::

    GET  /healthz   → {"status": "ok", "uptime_s": ..., "models": [...]}
    GET  /models    → registry listing (versions, latest, what is warm, each archive's numerics generation)
    POST /predict   → {"model": "name", "version": 2, "tile": [[[r,g,b]...]]}
                    → {"class_map": [[...]], "counts": {...}, ...}

``/predict`` accepts one ``tile`` (``(H, W, 3)`` nested uint8 lists) or a
``tiles`` batch, defaults to the registry's only model when just one is
registered, and returns per-class probability maps instead of the argmax
map when ``"proba": true``.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..obs.metrics import get_registry
from ..obs.trace import emit_trace, new_trace_id, should_sample
from ..reliability import (
    AdmissionController,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    OverloadedError,
    faults_enabled,
)
from .batching import MicroBatcher
from .registry import ModelRegistry

__all__ = ["ServiceConfig", "InferenceService", "make_server", "run_service"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the HTTP front-end and its micro-batchers.

    ``request_timeout_s`` is also the request *deadline*: it is pinned at the
    HTTP edge and propagated through the batcher queue into backend dispatch,
    so expired work is dropped at every stage instead of computed (HTTP 504).
    ``max_queue`` bounds each micro-batcher's queue and ``max_concurrent``
    caps in-flight ``/predict`` requests service-wide — past either high-water
    mark the request is shed immediately (HTTP 503 + ``Retry-After``).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch: int = 16
    request_timeout_s: float = 60.0
    max_queue: int | None = 128
    max_concurrent: int | None = 64
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if self.max_queue is not None and self.max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1 (or None for unlimited)")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be > 0")


class InferenceService:
    """Registry + per-model micro-batchers behind a JSON API (HTTP-agnostic)."""

    def __init__(self, registry: ModelRegistry, config: ServiceConfig | None = None) -> None:
        self.registry = registry
        self.config = config or ServiceConfig()
        self.started_at = time.time()
        self.admission = AdmissionController(
            max_concurrent=self.config.max_concurrent,
            retry_after_s=self.config.retry_after_s,
        )
        self._batchers: dict[tuple[str, int], MicroBatcher] = {}
        self._lock = threading.Lock()
        self._requests = 0
        self._tiles = 0
        self._expired = 0  # requests answered 504 (deadline exceeded)
        registry_m = get_registry()
        self._m_requests = registry_m.counter(
            "repro_requests_total",
            "Predict requests by outcome (ok/expired/shed/breaker_open/client_error/error)",
            ("status",),
        )
        self._m_latency = registry_m.histogram(
            "repro_request_latency_ms",
            "End-to-end /predict latency per model",
            ("model",),
        )
        self._m_stage = registry_m.histogram(
            "repro_request_stage_ms",
            "Per-stage /predict latency breakdown",
            ("stage",),
        )
        # Warm-model eviction (LRU cap or version hot-swap) retires the
        # evicted entry's micro-batcher — and with it the pinned plans.
        registry.add_evict_listener(self._on_warm_evicted)

    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        degraded = []
        if self.admission.recently_shed():
            degraded.append("shedding load")
        open_breakers = [
            f"{name}/{version}"
            for (name, version), breaker in self.registry.breakers().items()
            if breaker.state != "closed"
        ]
        if open_breakers:
            degraded.append(f"circuit open: {', '.join(sorted(open_breakers))}")
        return {
            "status": "degraded" if degraded else "ok",
            "degraded_reasons": degraded,
            "uptime_s": round(time.time() - self.started_at, 3),
            "models": sorted(self.registry.models()),
            "requests": self._requests,
            "tiles": self._tiles,
            "shed": self.admission.shed,
            "expired": self._expired,
        }

    def models_payload(self) -> dict:
        models = self.registry.models()
        warm = set(self.registry.loaded_versions())
        return {
            "models": [
                {
                    "name": name,
                    "versions": versions,
                    "latest": versions[-1],
                    "warm": [v for v in versions if (name, v) in warm],
                    "numerics": [self.registry.numerics(name, v) for v in versions],
                }
                for name, versions in models.items()
            ]
        }

    # ------------------------------------------------------------------ #
    def _resolve_model_name(self, name: str | None) -> str:
        if name:
            return name
        models = sorted(self.registry.models())
        if len(models) == 1:
            return models[0]
        raise KeyError(
            "request must name a 'model' when the registry holds "
            f"{len(models)} models: {models}"
        )

    def _batcher(self, name: str, version: int | None) -> tuple[MicroBatcher, tuple[str, int]]:
        record = self.registry.record(name, version)
        key = (record.name, record.version)
        with self._lock:
            batcher = self._batchers.get(key)
        if batcher is not None:
            return batcher, key

        # Cold path outside the lock: loading a big archive must not stall
        # requests for models that are already warm.
        classifier = self.registry.classifier(record.name, record.version)

        batcher = MicroBatcher(
            classifier.predict_batch,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
            name=f"{record.name}/{record.version}",
        )
        retired: list[MicroBatcher] = []
        with self._lock:
            existing = self._batchers.get(key)
            if existing is not None:
                retired.append(batcher)  # lost the load race; keep the first
                batcher = existing
            else:
                self._batchers[key] = batcher
                if version is None:
                    # Hot swap: stop serving superseded versions of this model.
                    for other in [k for k in self._batchers if k[0] == record.name and k[1] < record.version]:
                        retired.append(self._batchers.pop(other))
        for old in retired:
            old.close()
        return batcher, key

    def predict_payload(self, body: dict, trace_id: str | None = None) -> dict:
        """Serve one ``/predict`` request body; raises ``ValueError``/``KeyError``.

        ``trace_id`` is the request's correlation id (the HTTP layer passes
        the honoured ``X-Request-Id``); one is minted for direct API callers.
        Every outcome increments ``repro_requests_total`` by status, and a
        successful response carries its per-stage ``stage_timings`` plus the
        trace id.
        """
        if trace_id is None:
            trace_id = new_trace_id()
        try:
            payload = self._predict(body, trace_id)
        except (DeadlineExceeded, TimeoutError):
            self._m_requests.inc(status="expired")
            raise
        except CircuitOpenError:
            self._m_requests.inc(status="breaker_open")
            raise
        except OverloadedError:
            self._m_requests.inc(status="shed")
            raise
        except (ValueError, KeyError):
            self._m_requests.inc(status="client_error")
            raise
        except Exception:
            self._m_requests.inc(status="error")
            raise
        self._m_requests.inc(status="ok")
        return payload

    def _predict(self, body: dict, trace_id: str) -> dict:
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        if ("tile" in body) == ("tiles" in body):
            raise ValueError("request must provide exactly one of 'tile' or 'tiles'")
        raw = body.get("tile") if "tile" in body else body.get("tiles")
        try:
            stack = np.asarray(raw, dtype=np.uint8)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"tile pixels must be uint8 values in [0, 255]: {exc}") from exc
        if "tile" in body:
            stack = stack[None]
        if stack.ndim != 4 or stack.shape[-1] != 3:
            raise ValueError(f"tiles must be (H, W, 3) uint8 arrays, got shape {stack.shape[1:]}")

        name = self._resolve_model_name(body.get("model"))
        version = body.get("version")
        return_proba = bool(body.get("proba", False))
        start = time.perf_counter()
        deadline = Deadline(self.config.request_timeout_s)
        with self.admission.acquire():
            batcher, (name, resolved_version) = self._batcher(name, version)
            resolve_ms = deadline.elapsed_s() * 1e3
            breaker = self.registry.breaker(name, resolved_version)
            breaker.check()
            pending = []
            queued_ms: float | None = None
            try:
                pending = batcher.submit_many(stack, deadline=deadline, trace_id=trace_id)
                queued_ms = deadline.elapsed_s() * 1e3 - resolve_ms
                probs = np.stack([p.result(deadline.remaining()) for p in pending])
            except (DeadlineExceeded, TimeoutError) as exc:
                # The client's budget ran out — drop whatever is still queued
                # and report where the time went.  Not a breaker failure: a
                # timeout says nothing about the model's health.
                for p in pending:
                    p.cancel()
                breaker.record_cancelled()
                with self._lock:
                    self._expired += 1
                if not isinstance(exc, DeadlineExceeded):
                    exc = DeadlineExceeded(str(exc), stage="await result")
                exc.stage_timings = {
                    "resolve_ms": round(resolve_ms, 3),
                    "submit_ms": None if queued_ms is None else round(queued_ms, 3),
                    "total_ms": round(deadline.elapsed_s() * 1e3, 3),
                    "budget_ms": round(self.config.request_timeout_s * 1e3, 3),
                }
                raise exc from None
            except OverloadedError:
                breaker.record_cancelled()  # shed, not a model failure
                raise
            except (ValueError, KeyError):
                breaker.record_cancelled()  # client error, not a model failure
                raise
            except Exception:
                breaker.record_failure()
                raise
            breaker.record_success()
        class_maps = probs.argmax(axis=1).astype(np.uint8)
        with self._lock:
            self._requests += 1
            self._tiles += len(pending)

        # Stage breakdown.  Tiles of one request flush together, so
        # concurrent stages aggregate with max, not sum: two tiles waiting in
        # the same queue wait once, wall-clock-wise.  Stitch is everything the
        # service does after compute (result stitching, argmax, counts) —
        # defined as the remainder so the spans always sum to ``elapsed_ms``.
        spans = {"resolve_ms": resolve_ms}
        for stage in ("queue_wait_ms", "batch_assembly_ms", "dispatch_ms", "compute_ms"):
            spans[stage] = max((p.timings.get(stage, 0.0) for p in pending), default=0.0)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        spans["stitch_ms"] = max(0.0, elapsed_ms - sum(spans.values()))
        for stage, value in spans.items():
            self._m_stage.observe(value, stage=stage.removesuffix("_ms"))
        self._m_latency.observe(elapsed_ms, model=name)

        values, counts = np.unique(class_maps, return_counts=True)
        payload: dict = {
            "model": name,
            "version": resolved_version,
            "num_tiles": int(stack.shape[0]),
            "tile_shape": list(stack.shape[1:3]),
            "class_counts": {int(v): int(c) for v, c in zip(values, counts)},
            "elapsed_ms": round(elapsed_ms, 3),
            "trace_id": trace_id,
            "stage_timings": {k: round(v, 3) for k, v in spans.items()},
        }
        if should_sample(trace_id):
            emit_trace({
                "trace_id": trace_id,
                "model": name,
                "version": resolved_version,
                "num_tiles": int(stack.shape[0]),
                "batch_size": max((p.timings.get("batch_size", 1) for p in pending), default=1),
                "elapsed_ms": round(elapsed_ms, 3),
                "spans": {k: round(v, 3) for k, v in spans.items()},
                "ts": time.time(),
            })
        maps_out = class_maps.tolist() if "tiles" in body else class_maps[0].tolist()
        if return_proba:
            payload["proba"] = probs.tolist() if "tiles" in body else probs[0].tolist()
        payload["class_map"] = maps_out
        return payload

    def _on_warm_evicted(self, key: tuple[str, int]) -> None:
        """Registry listener: close the micro-batcher of a retired warm model."""
        with self._lock:
            batcher = self._batchers.pop(key, None)
        if batcher is not None:
            batcher.close()

    def batcher_stats(self) -> dict:
        with self._lock:
            batchers = sorted(self._batchers.items())
        stats = {}
        for (name, version), batcher in batchers:
            entry = batcher.stats().to_dict()
            entry["flush_size_histogram"] = batcher.flush_size_histogram()
            stats[f"{name}/{version}"] = entry
        return stats

    def plan_cache_stats(self) -> dict:
        """Per-warm-model ``PlanCache.info()`` — hits, misses, evictions,
        arena bytes — from every classifier that compiles plans (``/stats``)."""
        stats: dict = {}
        for name, version in self.registry.loaded_versions():
            classifier = self.registry.warm_classifier(name, version)
            if classifier is None:  # raced retirement between the two reads
                continue
            info = classifier.plan_cache_info()
            if info is not None:
                stats[f"{name}/{version}"] = info
        return stats

    def backend_stats(self) -> dict:
        """Execution-backend occupancy per warm model (``/stats``): workers,
        published models and dispatch counters from :meth:`Backend.occupancy`."""
        stats: dict = {}
        for name, version in self.registry.loaded_versions():
            classifier = self.registry.warm_classifier(name, version)
            if classifier is not None:  # else: raced retirement between the two reads
                stats[f"{name}/{version}"] = classifier.backend.occupancy()
        return stats

    def stats_payload(self) -> dict:
        """The ``/stats`` body: batcher counters, backend occupancy, warm
        models, plus the reliability picture (admission, breakers, 504s)."""
        return {
            "batchers": self.batcher_stats(),
            "backends": self.backend_stats(),
            "plan_caches": self.plan_cache_stats(),
            "metrics": get_registry().to_dict(),
            "warm_models": {
                "count": self.registry.warm_count(),
                "max_warm": self.registry.max_warm,
                "loaded": [f"{name}/{version}" for name, version in self.registry.loaded_versions()],
            },
            "reliability": {
                "admission": self.admission.to_dict(),
                "breakers": {
                    f"{name}/{version}": breaker.to_dict()
                    for (name, version), breaker in sorted(self.registry.breakers().items())
                },
                "expired_requests": self._expired,
                "quarantined_archives": self.registry.quarantined_paths(),
                "faults_enabled": faults_enabled(),
            },
        }

    def close(self) -> None:
        self.registry.remove_evict_listener(self._on_warm_evicted)
        with self._lock:
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()


# ---------------------------------------------------------------------- #
# HTTP layer
# ---------------------------------------------------------------------- #
def _make_handler(service: InferenceService, quiet: bool) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Bodies larger than one MSS (256x256 class maps, /stats) span several
        # segments; without TCP_NODELAY the tail one waits for an ACK too.
        disable_nagle_algorithm = True

        def log_message(self, fmt: str, *args) -> None:  # pragma: no cover - console noise
            if not quiet:
                super().log_message(fmt, *args)

        def _send_json(self, status: int, payload: dict,
                       headers: dict[str, str] | None = None) -> None:
            self._send(status, json.dumps(payload), "application/json", headers)

        def _send(self, status: int, text: str, content_type: str,
                  headers: dict[str, str] | None = None) -> None:
            # One write, one segment.  send_response()/end_headers() send the
            # head by itself (http.server's wfile is unbuffered) and Nagle then
            # holds the body until the client's delayed ACK of the head, ~40 ms
            # on every keep-alive request.
            data = text.encode("utf-8")
            head = {"Server": self.version_string(), "Date": self.date_time_string(),
                    "Content-Type": content_type, "Content-Length": len(data),
                    **(headers or {})}
            lines = [f"{self.protocol_version} {status} {self.responses[status][0]}"]
            lines += [f"{key}: {value}" for key, value in head.items()]
            self.log_request(status)
            self.wfile.write("\r\n".join([*lines, "", ""]).encode("latin-1") + data)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            try:
                if self.path in ("/healthz", "/health"):
                    self._send_json(200, service.health())
                elif self.path == "/models":
                    self._send_json(200, service.models_payload())
                elif self.path == "/stats":
                    self._send_json(200, service.stats_payload())
                elif self.path == "/metrics":
                    self._send(200, get_registry().render_prometheus(),
                               "text/plain; version=0.0.4; charset=utf-8")
                else:
                    self._send_json(404, {"error": f"unknown path {self.path!r}"})
            except Exception as exc:  # noqa: BLE001 - must answer the socket
                self._send_json(500, {"error": str(exc)})

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            if self.path != "/predict":
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
                return
            # Honour the caller's correlation id, mint one otherwise; every
            # response — success or error — carries it in the body and echoes
            # it in the X-Request-Id header.
            trace_id = (self.headers.get("X-Request-Id") or "").strip() or new_trace_id()
            echo = {"X-Request-Id": trace_id}
            try:
                length = int(self.headers.get("Content-Length", "0"))
                try:
                    body = json.loads(self.rfile.read(length) or b"{}")
                except json.JSONDecodeError as exc:
                    raise ValueError(f"request body is not valid JSON: {exc}") from exc
                self._send_json(200, service.predict_payload(body, trace_id=trace_id),
                                headers=echo)
            except (ValueError, KeyError) as exc:
                # str(KeyError) wraps the message in repr quotes; unwrap it.
                message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
                self._send_json(400, {"error": message, "trace_id": trace_id}, headers=echo)
            except (OverloadedError, CircuitOpenError) as exc:
                # Shed: tell the client when it is worth coming back.
                retry_after = max(0.001, exc.retry_after_s)
                self._send_json(
                    503,
                    {"error": str(exc), "retry_after_s": round(retry_after, 3),
                     "trace_id": trace_id},
                    headers={"Retry-After": f"{retry_after:.3f}", **echo},
                )
            except DeadlineExceeded as exc:
                self._send_json(
                    504,
                    {"error": str(exc), "stage": exc.stage,
                     "stage_timings": exc.stage_timings or {}, "trace_id": trace_id},
                    headers=echo,
                )
            except TimeoutError as exc:
                self._send_json(504, {"error": str(exc), "stage": "", "stage_timings": {},
                                      "trace_id": trace_id}, headers=echo)
            except Exception as exc:  # noqa: BLE001 - must answer the socket
                self._send_json(500, {"error": str(exc), "trace_id": trace_id}, headers=echo)

    return Handler


def make_server(
    service: InferenceService, host: str | None = None, port: int | None = None, quiet: bool = True
) -> ThreadingHTTPServer:
    """Bind a :class:`ThreadingHTTPServer` for ``service`` (port 0 → ephemeral).

    The caller owns the server: run ``serve_forever()`` (often in a thread),
    then ``shutdown()`` + ``server_close()`` and ``service.close()``.
    """
    host = service.config.host if host is None else host
    port = service.config.port if port is None else port
    return ThreadingHTTPServer((host, port), _make_handler(service, quiet))


def run_service(service: InferenceService, quiet: bool = False, on_ready=None) -> None:
    """Blocking convenience runner used by the CLI (Ctrl-C or SIGTERM to stop).

    ``on_ready(server)`` is called after the socket is bound but before
    requests are served — the CLI uses it to print the machine-readable
    ready line with the actual port (``--port 0`` binds an ephemeral one).

    SIGTERM triggers a *graceful drain*: the listener stops accepting, every
    in-flight handler thread is joined (``ThreadingHTTPServer`` defaults to
    ``block_on_close``), the micro-batchers flush and close, and the
    registry retires every warm classifier — shutting backends down and
    releasing their shared-memory segments — before the process exits 0.
    """

    server = make_server(service, quiet=quiet)

    def _drain(signum, frame):  # pragma: no cover - signal delivery timing
        # shutdown() must not be called from the thread running
        # serve_forever() (it would deadlock waiting on itself), and the
        # signal handler runs on exactly that (main) thread.
        threading.Thread(target=server.shutdown, name="serve-drain", daemon=True).start()

    previous_handler = None
    try:
        previous_handler = signal.signal(signal.SIGTERM, _drain)
    except ValueError:  # pragma: no cover - not on the main thread
        previous_handler = None
    try:
        if on_ready is not None:
            on_ready(server)
        server.serve_forever(poll_interval=0.05)  # shutdown() waits out one poll: 0.5 s by default
    except KeyboardInterrupt:
        pass
    finally:
        if previous_handler is not None:
            try:
                signal.signal(signal.SIGTERM, previous_handler)
            except (ValueError, TypeError):  # pragma: no cover - defensive
                pass
        # server_close() joins the in-flight handler threads (drain), then
        # the serving pieces release everything they own.
        server.server_close()
        service.close()
        service.registry.close()

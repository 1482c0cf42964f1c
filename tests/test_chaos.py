"""Chaos suite: injected worker crashes / hangs against the fork backend, and
overload / deadline storms against the HTTP service.

The invariants under fault: results stay **bit-identical** to the serial
backend (retried spans recompute the same slices), nothing leaks (no orphaned
worker processes, no shared-memory segments after close), and the HTTP edge
keeps answering — failures surface only as 503 (shed) or 504 (deadline), never
as a wedged socket.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from helpers import available_backends
from repro.backend import ProcessBackend, SerialBackend
from repro.data import BatchLoader
from repro.distributed import ElasticTrainer, elastic, latest_checkpoints
from repro.nn import Adam, CheckpointError, load_checkpoint
from repro.reliability import FaultSpec, configure_faults, fault_stats, reset_faults
from repro.serving import InferenceService, ModelRegistry, ServiceConfig, make_server
from repro.unet import InferenceConfig, UNet, UNetConfig, tiny_unet_config

from leaks import shm_segments as _segments

fork_only = pytest.mark.skipif(
    "fork" not in available_backends(), reason="fork start method unavailable"
)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _wait_until(predicate, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


@pytest.fixture(autouse=True)
def disarm_faults():
    yield
    reset_faults()


@pytest.fixture(scope="module")
def model():
    return UNet(tiny_unet_config(seed=3))


@pytest.fixture(scope="module")
def stack():
    rng = np.random.default_rng(11)
    return rng.integers(0, 256, size=(9, 32, 32, 3), dtype=np.uint8)


@pytest.fixture(scope="module")
def expected(model, stack):
    with SerialBackend() as backend:
        backend.publish_model("m", model)
        return backend.predict_stack("m", stack, batch_size=4)


@fork_only
class TestBackendChaos:
    def test_worker_crash_is_retried_bit_identical(self, model, stack, expected, monkeypatch):
        # Armed *before* the fork so workers inherit the (shared) budget.
        configure_faults({"worker_crash": FaultSpec(times=1)})
        before = _segments()
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0")
        with ProcessBackend(num_workers=2) as backend:
            backend.publish_model("m", model)
            probs = backend.predict_stack("m", stack, batch_size=4)
            np.testing.assert_array_equal(probs, expected)
            info = backend.occupancy()
            assert info["dispatch_retries"] >= 1
            assert fault_stats()["worker_crash"]["fired"] == 1
            pids = info["worker_pids"]
        assert _segments() == before
        assert not any(_alive(pid) for pid in pids)

    def test_hung_worker_killed_and_span_retried(self, model, stack, expected, monkeypatch):
        configure_faults({"worker_hang": FaultSpec(times=1, param=600.0)})
        before = _segments()
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0")
        with ProcessBackend(num_workers=2, dispatch_timeout_s=1.0) as backend:
            backend.publish_model("m", model)
            start = time.monotonic()
            probs = backend.predict_stack("m", stack, batch_size=4)
            # The hang was bounded by the dispatch timeout, not the 600 s sleep.
            assert time.monotonic() - start < 30.0
            np.testing.assert_array_equal(probs, expected)
            info = backend.occupancy()
            assert info["dispatch_retries"] >= 1
            pids = info["worker_pids"]
        assert _segments() == before
        assert not any(_alive(pid) for pid in pids)

    def test_watchdog_respawns_idle_dead_worker(self, model, stack, expected, monkeypatch):
        before = _segments()
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0.1")
        with ProcessBackend(num_workers=2) as backend:
            backend.publish_model("m", model)
            victim = backend.occupancy()["worker_pids"][0]
            os.kill(victim, signal.SIGKILL)
            assert _wait_until(
                lambda: backend.occupancy()["respawns"] >= 1
                and backend.occupancy()["alive_workers"] == 2
            )
            assert not _alive(victim)
            # Respawned worker got the store republished: predictions intact.
            probs = backend.predict_stack("m", stack, batch_size=4)
            np.testing.assert_array_equal(probs, expected)
            pids = backend.occupancy()["worker_pids"]
        assert _segments() == before
        assert not any(_alive(pid) for pid in pids)

    def test_failed_attach_on_publish_respawns_the_worker(self, model, stack, expected, monkeypatch):
        """A worker whose attach fails inside the publish broadcast must not
        be left serving without the model (it used to answer every later
        predict with ``KeyError: 'm'``): it is killed, and the next checkout
        respawns it with the store republished."""
        configure_faults({"shm_attach_fail": FaultSpec(times=1)})
        before = _segments()
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0")
        with ProcessBackend(num_workers=2) as backend:
            backend.publish_model("m", model)
            assert fault_stats()["shm_attach_fail"]["fired"] == 1
            probs = backend.predict_stack("m", stack, batch_size=4)
            np.testing.assert_array_equal(probs, expected)
            info = backend.occupancy()
            assert info["respawns"] >= 1
            assert info["alive_workers"] == 2
        assert _segments() == before

    def test_repeated_crashes_exhaust_retries_cleanly(self, model, stack, monkeypatch):
        # Unlimited crash budget: every attempt dies, the retries run out,
        # and the error is surfaced instead of hanging — with no leaks.
        configure_faults({"worker_crash": FaultSpec(times=-1)})
        before = _segments()
        monkeypatch.setenv("REPRO_HEARTBEAT_S", "0")
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            with pytest.raises(Exception, match="died|killed"):
                backend.predict_stack("m", stack, batch_size=4)
        reset_faults()
        assert _segments() == before


def _request(port, method, path, body=None, timeout=30):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=None if body is None else json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), json.loads(response.read())
    finally:
        conn.close()


@pytest.fixture()
def chaos_served(tmp_path):
    """A deliberately tiny service: 1 concurrency slot, 2 queue slots, a
    50 ms request deadline — so chaos tests can saturate it instantly."""
    model = UNet(UNetConfig(depth=1, base_channels=2, dropout=0.0, seed=21))
    registry = ModelRegistry(str(tmp_path))
    registry.publish("seaice", 1, model,
                     inference=InferenceConfig(tile_size=16, apply_cloud_filter=False))
    service = InferenceService(registry, ServiceConfig(
        port=0, max_batch=1,
        request_timeout_s=0.05, max_queue=2, max_concurrent=1,
        retry_after_s=0.25,
    ))
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server.server_address[1], service
    finally:
        server.shutdown()
        server.server_close()
        service.close()
        registry.close()
        thread.join(5.0)


_TILE = np.zeros((16, 16, 3), dtype=np.uint8).tolist()


class TestServiceChaos:
    def test_slow_model_maps_deadline_to_504_with_timings(self, chaos_served):
        port, _ = chaos_served
        configure_faults({"slow_predict": FaultSpec(times=-1, param=0.3)})
        status, _, body = _request(port, "POST", "/predict", {"tile": _TILE})
        assert status == 504
        assert "deadline" in body["error"] or "stage" in body
        timings = body["stage_timings"]
        assert timings["budget_ms"] == pytest.approx(50.0)
        assert timings["total_ms"] >= 0.0
        reset_faults()
        # The wedged-looking service recovers as soon as the fault clears
        # (the worker may still be draining the abandoned slow compute).
        assert _wait_until(lambda: _request(
            port, "POST", "/predict", {"tile": _TILE})[0] == 200, timeout_s=10.0)

    def test_overload_storm_sheds_503_and_recovers(self, chaos_served):
        port, service = chaos_served
        configure_faults({"slow_predict": FaultSpec(times=-1, param=0.2)})
        statuses: list[int] = []
        lock = threading.Lock()

        def client() -> None:
            # The storm can reset a connection at the accept queue; retrying
            # is the client's job — a wedged (never-answering) server would
            # still fail the test via the 599 sentinel below.
            for _ in range(3):
                try:
                    status, headers, body = _request(port, "POST", "/predict",
                                                     {"tile": _TILE})
                except OSError:
                    time.sleep(0.1)
                    continue
                with lock:
                    statuses.append(status)
                    if status == 503:
                        assert float(headers["Retry-After"]) > 0
                        assert body["retry_after_s"] > 0
                return
            with lock:
                statuses.append(599)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        # Every request was answered; failures are only shed/deadline.
        assert len(statuses) == 8
        assert set(statuses) <= {200, 503, 504}
        assert 503 in statuses

        # Shedding is visible in /healthz (degraded) and /stats.
        status, _, health = _request(port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "degraded"
        assert any("shedding" in reason for reason in health["degraded_reasons"])
        assert health["shed"] >= 1

        status, _, stats = _request(port, "GET", "/stats")
        reliability = stats["reliability"]
        assert reliability["admission"]["shed"] + sum(
            b["shed"] for b in stats["batchers"].values()
        ) >= 1
        assert reliability["faults_enabled"] is True
        # Queues stayed bounded throughout the storm.
        for batcher in stats["batchers"].values():
            assert batcher["queue_depth"] <= batcher["max_queue"] == 2
        assert reliability["admission"]["peak_active"] <= 1

        reset_faults()
        assert _wait_until(lambda: _request(
            port, "POST", "/predict", {"tile": _TILE})[0] == 200, timeout_s=10.0)

    def test_healthz_recovers_to_ok_after_quiet_period(self, chaos_served):
        port, service = chaos_served
        # No chaos at all: a fresh service is healthy and undegraded.
        status, _, health = _request(port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["degraded_reasons"] == []
        assert health["shed"] == 0 and health["expired"] == 0


# --------------------------------------------------------------------------- #
# Elastic training chaos
# --------------------------------------------------------------------------- #
_ELASTIC_CFG = UNetConfig(depth=2, base_channels=4, dropout=0.2, seed=7)


def _elastic_loader(images, labels, seed: int = 5) -> BatchLoader:
    return BatchLoader(images, labels, batch_size=4, shuffle=True, augment=True,
                       seed=seed)


def _elastic_victim(images, labels, ckpt_dir: str) -> None:
    """Forked casualty of the SIGKILL test: trains with a checkpoint after
    every step until killed from outside at an arbitrary point."""
    loader = _elastic_loader(images, labels)
    with ElasticTrainer(num_workers=2, config=_ELASTIC_CFG, micro_shards=4,
                        seed=0, step_timeout_s=30.0, checkpoint_dir=ckpt_dir,
                        checkpoint_every=1) as trainer:
        trainer.fit(loader, epochs=3)


@pytest.fixture
def keep_every_checkpoint(monkeypatch):
    """Resume and fallback tests read older archives than the newest few the trainer keeps."""
    monkeypatch.setattr(elastic, "KEEP_CHECKPOINTS", 100)


@fork_only
class TestTrainingChaos:
    def _run(self, split, workers: int, epochs: int = 2, **kwargs):
        kwargs.setdefault("step_timeout_s", 30.0)
        train, _ = split
        loader = _elastic_loader(train.images, train.labels)
        with ElasticTrainer(num_workers=workers, config=_ELASTIC_CFG,
                            micro_shards=4, seed=0, **kwargs) as trainer:
            history = trainer.fit(loader, epochs=epochs)
            return list(history.losses), trainer.weights_digest(), trainer.stats()

    def test_kill_one_of_four_mid_epoch_matches_three_worker_run(self, tiny_split):
        """Losing 1 of 4 workers mid-epoch must complete with no hang and no
        lost batch, the lost worker back before the step returns: losses and
        final weights are bit-identical to a clean run — of 3 workers, since
        the worker count never enters the trajectory."""
        before = _segments()
        configure_faults({"trainer_worker_crash": FaultSpec(times=1)})
        start = time.monotonic()
        losses, digest, stats = self._run(tiny_split, 4)
        assert time.monotonic() - start < 60.0  # deadline-bounded, not wedged
        assert stats["ring_rebuilds"] >= 1
        assert stats["live_workers"] == stats["target_workers"] == 4
        assert fault_stats()["trainer_worker_crash"]["fired"] == 1
        reset_faults()
        clean_losses, clean_digest, clean_stats = self._run(tiny_split, 3)
        assert clean_stats["ring_rebuilds"] == 0
        assert losses == clean_losses
        assert digest == clean_digest
        assert _segments() == before

    def test_worker_crash_with_respawn_grows_back_bit_identical(self, tiny_split):
        configure_faults({"trainer_worker_crash": FaultSpec(times=1)})
        losses, digest, stats = self._run(tiny_split, 2)
        assert stats["ring_rebuilds"] >= 1
        assert stats["worker_respawns"] >= 1
        assert stats["live_workers"] == 2  # grown back to target
        reset_faults()
        clean_losses, clean_digest, _ = self._run(tiny_split, 2)
        assert losses == clean_losses
        assert digest == clean_digest

    def test_trainer_worker_hang_is_evicted_not_waited_out(self, tiny_split):
        """A worker sleeping 600 s inside a micro-shard step is killed after
        the dispatch deadline and the shard re-runs on another worker."""
        configure_faults({"trainer_worker_hang": FaultSpec(times=1, param=600.0)})
        start = time.monotonic()
        losses, digest, stats = self._run(tiny_split, 3, step_timeout_s=1.5)
        assert time.monotonic() - start < 60.0
        assert stats["ring_rebuilds"] >= 1
        reset_faults()
        clean_losses, clean_digest, _ = self._run(tiny_split, 3)
        assert losses == clean_losses
        assert digest == clean_digest

    def test_sigkill_then_resume_is_bit_identical(self, tiny_split, tmp_path, keep_every_checkpoint):
        """The acceptance gate: SIGKILL the whole training process at an
        arbitrary step, resume from the newest checkpoint in a fresh
        process, and the remaining epochs' losses and the final weights
        must equal the uninterrupted run bit-for-bit."""
        train, _ = tiny_split
        ref_losses, ref_digest, _ = self._run(tiny_split, 2, epochs=3)

        before = set(_segments())
        ctx = mp.get_context("fork")
        victim = ctx.Process(target=_elastic_victim,
                             args=(train.images, train.labels, str(tmp_path)))
        victim.start()
        assert _wait_until(lambda: len(latest_checkpoints(tmp_path)) >= 1,
                           timeout_s=60.0)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10.0)
        assert victim.exitcode == -signal.SIGKILL
        # The killed process never ran its cleanup: reap the scratch segments
        # it leaked (crash safety is about the checkpoints, not the arenas).
        for name in set(_segments()) - before:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:  # pragma: no cover - raced with tracker
                pass

        loader = _elastic_loader(train.images, train.labels)
        with ElasticTrainer(num_workers=2, config=_ELASTIC_CFG, micro_shards=4,
                            seed=0, step_timeout_s=30.0,
                            checkpoint_dir=str(tmp_path), checkpoint_every=1) as trainer:
            resumed = trainer.fit(loader, epochs=3, resume=True)
            assert trainer.resumes == 1
            assert list(resumed.losses) == ref_losses
            assert trainer.weights_digest() == ref_digest

    def test_corrupt_checkpoint_falls_back_to_older_archive(self, tiny_split, tmp_path, keep_every_checkpoint):
        train, _ = tiny_split
        final_losses, final_digest, _ = self._run(
            tiny_split, 2, checkpoint_dir=str(tmp_path), checkpoint_every=1)
        ckpts = latest_checkpoints(tmp_path)
        assert len(ckpts) >= 2
        with open(ckpts[0], "r+b") as fh:  # tear the newest archive
            fh.truncate(max(1, os.path.getsize(ckpts[0]) // 2))
        model = UNet(_ELASTIC_CFG)
        with pytest.raises(CheckpointError):
            load_checkpoint(model, Adam(model.parameters(), lr=1e-3), ckpts[0])

        loader = _elastic_loader(train.images, train.labels)
        with ElasticTrainer(num_workers=2, config=_ELASTIC_CFG, micro_shards=4,
                            seed=0, step_timeout_s=30.0,
                            checkpoint_dir=str(tmp_path)) as trainer:
            resumed = trainer.fit(loader, epochs=2, resume=True)
            assert trainer.resumes == 1
            assert list(resumed.losses) == final_losses
            assert trainer.weights_digest() == final_digest

    def test_ckpt_corrupt_write_fault_yields_rejected_archive(self, tmp_path, tiny_split, keep_every_checkpoint):
        """The torn-write fault must reach the *final* checkpoint name and be
        rejected at load time — exactly what a crash mid-write looks like."""
        train, _ = tiny_split
        configure_faults({"ckpt_corrupt_write": FaultSpec(times=1)})
        loader = _elastic_loader(train.images, train.labels)
        with ElasticTrainer(num_workers=1, config=_ELASTIC_CFG, micro_shards=2,
                            seed=0, checkpoint_dir=str(tmp_path),
                            checkpoint_every=1) as trainer:
            trainer.fit(loader, epochs=1)
        assert fault_stats()["ckpt_corrupt_write"]["fired"] == 1
        reset_faults()
        ckpts = latest_checkpoints(tmp_path)
        assert ckpts
        torn = ckpts[-1]  # the first write of the run was the torn one
        model = UNet(_ELASTIC_CFG)
        with pytest.raises(CheckpointError):
            load_checkpoint(model, Adam(model.parameters(), lr=1e-3), torn)

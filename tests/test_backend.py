"""Tests for the unified execution-backend seam (serial / fork).

The load-bearing properties: every backend produces **bit-identical**
probability maps (they all execute the same prediction seam), the fork
backend's shared-memory segments are cleaned up in every exit path
(close, release, re-publish, worker crash), and a killed worker surfaces
as a :class:`BackendError` then respawns with its models republished.
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import available_backends, run_python
from repro.backend import (
    BackendError,
    ProcessBackend,
    SerialBackend,
    make_backend,
    resolve_backend_name,
)
from repro.backend.store import SharedModelStore
from repro.cloudshadow import CloudShadowFilter
from repro.unet import InferenceConfig, SceneClassifier, UNet, tiny_unet_config
from repro.unet.inference import predict_batch_probabilities

from leaks import shm_segments as _segments

BACKENDS = ["serial", "fork"]

pytestmark = pytest.mark.skipif(
    "fork" not in available_backends(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module")
def model():
    return UNet(tiny_unet_config(seed=3))


@pytest.fixture(scope="module")
def stack():
    rng = np.random.default_rng(11)
    return rng.integers(0, 256, size=(9, 32, 32, 3), dtype=np.uint8)


def _build(name: str):
    if name == "serial":
        return SerialBackend()
    return ProcessBackend(num_workers=2)


class TestResolution:
    def test_explicit_names_resolve_to_themselves(self):
        for name in BACKENDS:
            assert resolve_backend_name(name, 1) == name

    def test_auto_uses_num_workers_heuristic(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_name("auto", 1) == "serial"
        assert resolve_backend_name("auto", 4) == "fork"

    def test_auto_honours_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert resolve_backend_name("auto", 8) == "serial"
        monkeypatch.setenv("REPRO_BACKEND", "fork")
        assert resolve_backend_name(None, 1) == "fork"
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        with pytest.raises(ValueError, match="unknown backend 'thread'"):
            resolve_backend_name("auto", 8)

    def test_unknown_name_rejected(self):
        for name in ("dask", "thread"):
            with pytest.raises(ValueError, match=f"unknown backend '{name}'.*'serial', 'fork'"):
                resolve_backend_name(name, 1)

    def test_fork_rejected_without_fork(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setattr("repro.backend.base._fork_available", lambda: False)
        with pytest.raises(ValueError, match="fork"):
            resolve_backend_name("fork", 4)
        assert resolve_backend_name("auto", 4) == "serial"

    def test_make_backend_builds_each_kind(self):
        for name, cls in [("serial", SerialBackend), ("fork", ProcessBackend)]:
            backend = make_backend(name, num_workers=2)
            assert isinstance(backend, cls)
            backend.close()


class TestCrossBackendParity:
    def test_predict_stack_bit_identical(self, model, stack):
        reference = None
        for name in BACKENDS:
            with _build(name) as backend:
                backend.publish_model("m", model, CloudShadowFilter())
                probs = backend.predict_stack("m", stack, batch_size=4)
            if reference is None:
                reference = probs
            else:
                assert np.array_equal(reference, probs), name
        # ... and identical to the raw compiled-plan seam run in-process.
        expected = np.concatenate([
            predict_batch_probabilities(stack[i : i + 4], model, CloudShadowFilter())
            for i in range(0, stack.shape[0], 4)
        ])
        assert np.array_equal(reference, expected)

    def test_predict_single_batch_bit_identical(self, model, stack):
        results = []
        for name in BACKENDS:
            with _build(name) as backend:
                backend.publish_model("m", model)
                results.append(backend.predict("m", stack[:3]))
        assert np.array_equal(results[0], results[1])

    def test_map_preserves_order_everywhere(self):
        items = list(range(23))
        for name in BACKENDS:
            with _build(name) as backend:
                assert backend.map(_square, items, chunk_size=4) == [i * i for i in items]

    def test_scene_classifier_parity(self, model):
        rng = np.random.default_rng(5)
        scene = rng.integers(0, 256, size=(96, 96, 3), dtype=np.uint8)
        maps = {}
        for name in BACKENDS:
            config = InferenceConfig(tile_size=32, batch_size=2, backend=name, num_workers=2)
            with SceneClassifier(model, config) as classifier:
                maps[name] = classifier.classify_scene(scene)
        assert np.array_equal(maps["serial"], maps["fork"])

    def test_concurrent_uncompiled_entries_race_free(self, model, stack):
        # The generic forward runs through the process-wide conv scratch
        # workspace.  Serving predicts on one thread per model version (two
        # live across a hot swap); unserialised, their uncompiled batches
        # would interleave in it and corrupt each other's GEMM inputs.
        expected = np.concatenate([
            predict_batch_probabilities(stack[i : i + 3], model)
            for i in range(0, stack.shape[0], 3)
        ])
        results: list[bool] = []

        def serve_version(key):
            with SerialBackend() as backend:
                backend.publish_model(key, model, compile_plans=False)
                for _ in range(5):
                    results.append(np.array_equal(backend.predict_stack(key, stack, batch_size=3), expected))

        threads = [threading.Thread(target=serve_version, args=(("m", version),)) for version in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [True] * 10


def _square(x: int) -> int:
    return x * x


def _twice(x):
    return x * 2


@pytest.fixture(scope="module")
def map_backends():
    """Every (backend, worker count) the map property draws from, started once."""
    backends = {("serial", 1): SerialBackend()}
    for workers in (1, 2, 3):
        backends["fork", workers] = ProcessBackend(num_workers=workers)
    try:
        yield backends
    finally:
        for backend in backends.values():
            backend.close()


_map_items = st.lists(
    st.one_of(
        st.integers(-1000, 1000),
        st.lists(st.integers(0, 255), min_size=1, max_size=6).map(
            lambda values: np.array(values, dtype=np.uint8)),
    ),
    max_size=12,
)


class TestMapProperty:
    @settings(max_examples=40, deadline=None)
    @given(items=_map_items, chunk_size=st.one_of(st.none(), st.integers(1, 16)),
           workers=st.integers(1, 3))
    def test_map_is_ordered_and_equal_across_backends(self, map_backends, items,
                                                      chunk_size, workers):
        """For any item list (empty, ints, ndarrays), any chunk size (also
        larger than the list) and 1-3 workers, every backend returns
        ``[fn(item) for item in items]`` in order."""
        expected = [_twice(item) for item in items]
        for name in BACKENDS:
            backend = map_backends[name, 1 if name == "serial" else workers]
            got = backend.map(_twice, items, chunk_size=chunk_size)
            assert len(got) == len(expected)
            for out, want in zip(got, expected):
                assert type(out) is type(want) and np.array_equal(out, want)


def _boom(x: int) -> int:
    raise ValueError(f"boom on {x}")


class TestSharedModelStore:
    def test_attach_reads_weights_zero_copy(self, model):
        store = SharedModelStore()
        try:
            spec = store.publish("m", model)
            attached = spec.attach()
            try:
                for name, param in attached.model.named_parameters().items():
                    assert not param.value.flags.writeable
                    assert np.array_equal(param.value, model.named_parameters()[name].value)
            finally:
                attached.close()
        finally:
            store.close()
        assert not _segments()

    def test_attached_prediction_matches_direct(self, model, stack):
        store = SharedModelStore()
        try:
            attached = store.publish("m", model, CloudShadowFilter()).attach()
            try:
                got = attached.predict(stack[:4])
            finally:
                attached.close()
        finally:
            store.close()
        expected = predict_batch_probabilities(stack[:4], model, CloudShadowFilter())
        assert np.array_equal(got, expected)

    def test_worker_plans_bind_the_shared_phase_pack(self, model):
        """Every GEMM operand of an attached model's plan — each conv's ``(F, k²C)`` matrix and each up-conv's
        ``(F, 9C)`` phase pack — is a view of the published segment, not a per-worker copy."""
        store = SharedModelStore()
        try:
            spec = store.publish("m", model)
            attached = spec.attach()
            try:
                plan = attached.engine.warm((2, 3, 32, 32))
                segment = np.ndarray((attached.shm.size,), dtype=np.uint8, buffer=attached.shm.buf)
                upconvs = [step for step in plan._steps if type(step).__name__ == "_UpConvStep"]
                assert len(upconvs) == model.config.depth
                for step in upconvs:
                    assert step.w_mat.shape[1] == 9 * step.reads[0].view_shape[1]
                for step in plan._steps:
                    if hasattr(step, "w_mat"):
                        assert np.shares_memory(step.w_mat, segment) and np.shares_memory(step.bias, segment)
                del segment
            finally:
                attached.close()
        finally:
            store.close()
        assert not _segments()

    def test_predict_into_out_buffer_identical(self, model, stack):
        store = SharedModelStore()
        try:
            attached = store.publish("m", model).attach()
            try:
                direct = attached.predict(stack[:4])
                out = np.empty_like(direct)
                returned = attached.predict(stack[:4], out=out)
            finally:
                attached.close()
        finally:
            store.close()
        assert returned is out
        assert np.array_equal(direct, out)

    def test_republish_replaces_segment(self, model):
        store = SharedModelStore()
        try:
            first = store.publish("m", model).segment_name
            second = store.publish("m", model).segment_name
            assert first != second
            assert len(_segments()) == 1
        finally:
            store.close()
        assert not _segments()

    def test_non_unet_rejected(self):
        store = SharedModelStore()
        with pytest.raises(TypeError, match="UNet"):
            store.publish("m", object())


class TestSharedMemoryLifecycle:
    def test_close_unlinks_model_and_io_segments(self, model, stack):
        backend = ProcessBackend(num_workers=2)
        with backend:
            backend.publish_model("m", model)
            backend.predict_stack("m", stack, batch_size=4)
            assert _segments()  # model segment + reusable I/O arena pair
        assert not _segments()

    def test_release_model_unlinks_everything_for_key(self, model, stack):
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            backend.predict_stack("m", stack, batch_size=4)
            backend.release_model("m")
            assert not _segments()
            assert not backend.has_model("m")
        assert not _segments()

    def test_io_segments_are_reused_across_calls(self, model, stack):
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            backend.predict_stack("m", stack, batch_size=4)
            first = set(_segments())
            backend.predict_stack("m", stack, batch_size=4)
            assert set(_segments()) == first

    def test_idle_worker_crash_respawns_transparently(self, model, stack):
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            before = backend.predict_stack("m", stack, batch_size=4)
            victim = backend._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5)
            # The next checkout notices the corpse, respawns the worker and
            # republishes the store — the caller never sees the crash.
            after = backend.predict_stack("m", stack, batch_size=4)
            assert np.array_equal(before, after)
            assert backend._workers[0].process.pid != victim.pid
            assert backend.occupancy()["alive_workers"] == 1
        assert not _segments()

    def test_mid_flight_worker_death_raises_backend_error(self, model, stack):
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            worker = backend._workers[0]
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(5)
            # A call already holding the worker (past checkout) hits the dead
            # pipe and surfaces it as BackendError, marking the worker dead.
            with pytest.raises(BackendError, match="died"):
                worker.call("predict_batch", "m", stack[:2])
            assert worker.dead
            # ... and the backend as a whole still recovers on the next call.
            assert backend.predict("m", stack[:2]).shape[0] == 2
        assert not _segments()

    def test_predict_stack_nocopy_returns_live_arena(self, model, stack):
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            copied = backend.predict_stack("m", stack, batch_size=4, copy=True)
            arena = backend.predict_stack("m", stack, batch_size=4, copy=False)
            assert np.array_equal(copied, arena)
            snapshot = np.array(arena)
        assert np.array_equal(copied, snapshot)


class TestLifecycleAndErrors:
    def test_closed_backend_rejects_dispatch(self, model):
        backend = SerialBackend()
        backend.close()
        with pytest.raises(BackendError, match="closed"):
            backend.map(_square, [1, 2])

    def test_close_is_idempotent(self):
        for name in BACKENDS:
            backend = _build(name).start()
            backend.close()
            backend.close()

    @pytest.mark.parametrize("var, attr, default", [
        ("REPRO_HEARTBEAT_S", "heartbeat_interval_s", 2.0),
        ("REPRO_DISPATCH_TIMEOUT_S", "dispatch_timeout_s", 30.0),
    ])
    def test_reliability_env_var_must_be_a_number(self, monkeypatch, var, attr, default):
        """A malformed value raises, naming the variable and the value, instead of
        quietly leaving the default in force; empty means the default, <= 0 disables."""
        for value in ("off", "30s", "nan"):
            monkeypatch.setenv(var, value)
            with pytest.raises(ValueError, match=f"{var}='{value}'"):
                ProcessBackend(num_workers=1)
        for value, expected in (("", default), ("  ", default), ("0", None), ("-1", None), ("1.5", 1.5)):
            monkeypatch.setenv(var, value)
            assert getattr(ProcessBackend(num_workers=1), attr) == expected
        monkeypatch.delenv(var)
        assert getattr(ProcessBackend(num_workers=1), attr) == default

    def test_occupancy_reports_models_and_workers(self, model):
        with ProcessBackend(num_workers=2) as backend:
            backend.publish_model("m", model)
            info = backend.occupancy()
            assert info["backend"] == "fork"
            assert info["workers"] == 2
            assert info["models"] == ["m"]
            assert info["alive_workers"] == 2

    def test_worker_task_error_does_not_kill_worker(self, model, stack):
        with ProcessBackend(num_workers=1) as backend:
            backend.publish_model("m", model)
            pid = backend._workers[0].process.pid
            with pytest.raises(BackendError, match="failed"):
                backend.map(_boom, [1, 2, 3])
            # Unknown model keys are rejected parent-side before dispatch.
            with pytest.raises(KeyError):
                backend.predict("missing-key", stack[:2])
            # Same worker still serves afterwards (no respawn needed).
            assert backend.predict("m", stack[:2]).shape[0] == 2
            assert backend._workers[0].process.pid == pid


_TRACKER_STOP_SCRIPT = """
import time
from multiprocessing import resource_tracker
from repro.backend import ProcessBackend

backend = ProcessBackend(2).start()
assert backend.map(abs, [-1, 2, -3]) == [1, 2, 3]
start = time.perf_counter()
resource_tracker._resource_tracker._stop()
print(time.perf_counter() - start, flush=True)
backend.close()
"""


def test_stopping_the_tracker_does_not_wait_for_live_workers():
    """The tracker exits once every holder of its pipe has closed it; a worker that kept the end it
    inherited would make ``_stop`` (what a caller runs before exit) wait until the worker is gone."""
    child = run_python(_TRACKER_STOP_SCRIPT, timeout=10)
    assert child.returncode == 0, child.stderr
    assert float(child.stdout) < 1.0

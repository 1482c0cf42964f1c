"""Tests for the reliability substrate (deadlines, backpressure, breakers,
retry, fault injection) and its integration into batching, the registry and
checkpoint serialization."""

from __future__ import annotations

import glob
import os
import struct
import time
import zipfile

import numpy as np
import pytest
from batcher_gate import GatedPredict, tagged_tile

from repro.distributed import ElasticTrainer
from repro.nn.optimizers import Adam
from repro.nn.serialization import (
    CheckpointError,
    load_checkpoint,
    load_model_state,
    read_metadata,
    save_checkpoint,
    save_weights,
)
from repro.reliability import (
    AdmissionController,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    FaultInjected,
    FaultSpec,
    OverloadedError,
    RetryPolicy,
    configure_faults,
    fault_point,
    fault_stats,
    faults_enabled,
    reset_faults,
)
from repro.reliability.faults import _parse_env
from repro.serving import MicroBatcher, ModelRegistry
from repro.unet import UNet, UNetConfig, tiny_unet_config


@pytest.fixture(autouse=True)
def disarm_faults():
    yield
    reset_faults()


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired
        assert deadline.remaining() is None
        deadline.check("anywhere")  # never raises

    def test_expires_and_check_raises_with_stage(self):
        deadline = Deadline(0.0)
        assert deadline.expired
        with pytest.raises(DeadlineExceeded, match="stage 'dispatch'") as excinfo:
            deadline.check("dispatch")
        assert excinfo.value.stage == "dispatch"
        assert isinstance(excinfo.value, TimeoutError)

    def test_remaining_clamps_at_zero(self):
        deadline = Deadline(0.0)
        assert deadline.remaining() == 0.0
        assert Deadline(60.0).remaining() > 59.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Deadline(-1.0)


class TestRetryPolicy:
    def test_exponential_backoff_capped(self):
        policy = RetryPolicy(max_retries=4, base_delay_s=0.1, max_delay_s=0.3)
        assert policy.delay_s(0) == pytest.approx(0.1)
        assert policy.delay_s(1) == pytest.approx(0.2)
        assert policy.delay_s(2) == pytest.approx(0.3)  # capped
        assert policy.delay_s(5) == pytest.approx(0.3)

    def test_sleep_clipped_to_deadline(self):
        policy = RetryPolicy(max_retries=1, base_delay_s=5.0, max_delay_s=5.0)
        start = time.monotonic()
        policy.sleep(0, deadline=Deadline(0.01))
        assert time.monotonic() - start < 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-0.1)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_fails_fast(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0,
                                 clock=lambda: clock[0])
        for _ in range(2):
            breaker.record_failure()
        breaker.check()  # still closed
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError, match="3 consecutive failures") as excinfo:
            breaker.check()
        assert 0.0 < excinfo.value.retry_after_s <= 10.0

    def test_half_open_probe_then_close_on_success(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        breaker.check()  # claims the probe slot
        assert breaker.state == "half_open"
        # Second concurrent request is held back while the probe is out.
        with pytest.raises(CircuitOpenError, match="probe"):
            breaker.check()
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.check()

    def test_half_open_failure_reopens_full_window(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        breaker.check()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.to_dict()["times_opened"] == 2

    def test_record_cancelled_frees_probe_without_verdict(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        breaker.check()
        breaker.record_cancelled()  # caller timed out — no verdict
        assert breaker.state == "half_open"
        breaker.check()  # slot is free again for the next probe

    def test_to_dict_snapshot(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        snapshot = breaker.to_dict()
        assert snapshot["state"] == "closed"
        assert snapshot["consecutive_failures"] == 1
        assert snapshot["total_failures"] == 1


class TestAdmissionController:
    def test_sheds_past_high_water_mark(self):
        admission = AdmissionController(max_concurrent=2, retry_after_s=0.5)
        with admission.acquire(), admission.acquire():
            with pytest.raises(OverloadedError, match="shed") as excinfo:
                with admission.acquire():
                    pass  # pragma: no cover - never admitted
            assert excinfo.value.retry_after_s == 0.5
            assert admission.to_dict()["active"] == 2
        assert admission.to_dict()["active"] == 0
        stats = admission.to_dict()
        assert stats["shed"] == 1 and stats["admitted"] == 2 and stats["peak_active"] == 2
        assert admission.recently_shed()

    def test_unlimited_mode_keeps_counters(self):
        admission = AdmissionController(max_concurrent=None)
        with admission.acquire():
            pass
        assert admission.to_dict()["admitted"] == 1
        assert not admission.recently_shed()

    def test_release_survives_body_exception(self):
        admission = AdmissionController(max_concurrent=1)
        with pytest.raises(RuntimeError, match="boom"):
            with admission.acquire():
                raise RuntimeError("boom")
        with admission.acquire():  # the slot came back
            pass


class TestFaultInjection:
    def test_disarmed_fault_point_is_noop(self):
        reset_faults()
        assert not faults_enabled()
        fault_point("shm_attach_fail")  # nothing raised

    def test_raise_action_fires_exactly_budgeted_times(self):
        configure_faults({"shm_attach_fail": FaultSpec(times=2)})
        assert faults_enabled()
        for _ in range(2):
            with pytest.raises(FaultInjected):
                fault_point("shm_attach_fail")
        fault_point("shm_attach_fail")  # budget exhausted → no-op
        assert fault_stats()["shm_attach_fail"]["fired"] == 2

    def test_sleep_action_uses_param(self):
        configure_faults({"slow_predict": FaultSpec(times=1, param=0.05)})
        start = time.monotonic()
        fault_point("slow_predict")
        assert time.monotonic() - start >= 0.05

    def test_env_string_parsing(self):
        specs = _parse_env("worker_crash,slow_predict:3:0.02, worker_hang:-1")
        assert specs["worker_crash"] == FaultSpec(times=1, param=None)
        assert specs["slow_predict"] == FaultSpec(times=3, param=0.02)
        assert specs["worker_hang"] == FaultSpec(times=-1, param=None)

    def test_unknown_fault_name_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            configure_faults({"meteor_strike": FaultSpec()})

    def test_corrupt_archive_read_surfaces_as_checkpoint_error(self, tmp_path):
        model = UNet(tiny_unet_config(seed=0))
        path = save_weights(model, str(tmp_path / "w.npz"))
        configure_faults({"corrupt_archive_read": FaultSpec(times=1)})
        with pytest.raises(CheckpointError, match="corrupt"):
            load_model_state(path)
        # The injected failure is transient: the next read succeeds.
        assert load_model_state(path)


class TestBatcherReliability:
    def test_timed_out_caller_cancels_and_flush_skips_it(self):
        predict = GatedPredict()
        with MicroBatcher(predict, max_batch=4) as batcher:
            blocker = predict.hold_worker(batcher, tagged_tile(0))
            with pytest.raises(TimeoutError):
                batcher.predict(tagged_tile(1), timeout=0.05)  # cancels on the way out
            predict.release()
            blocker.result(5.0)
        # close() drained the queue: the abandoned tile was dropped, never computed.
        assert batcher.stats().cancelled == 1
        assert predict.batches == [[0]]

    def test_expired_deadline_dropped_at_flush(self):
        predict = GatedPredict()
        with MicroBatcher(predict, max_batch=1) as batcher:
            blocker = predict.hold_worker(batcher, tagged_tile(0))
            doomed = batcher.submit(tagged_tile(1), deadline=Deadline(0.0))  # expired on arrival
            predict.release()
            blocker.result(5.0)
            with pytest.raises(DeadlineExceeded):
                doomed.result(5.0)
        assert batcher.stats().expired == 1
        assert predict.batches == [[0]]

    def test_bounded_queue_sheds_with_overloaded_error(self):
        predict = GatedPredict()
        with MicroBatcher(predict, max_batch=1, max_queue=2) as batcher:
            pending = [predict.hold_worker(batcher, tagged_tile(0))]
            pending += [batcher.submit(tagged_tile(t)) for t in (1, 2)]
            with pytest.raises(OverloadedError, match="queue full"):
                batcher.submit(tagged_tile(3))
            stats = batcher.stats()
            assert stats.shed == 1
            assert stats.queue_depth == stats.max_queue == 2
            predict.release()
            for p in pending:
                p.result(5.0)

    def test_deadline_forwarded_to_deadline_aware_predict_fn(self):
        seen = []

        def predict_fn(stack, deadline=None):
            seen.append(deadline)
            return np.zeros((stack.shape[0], 3, *stack.shape[1:3]), dtype=np.float32)

        tile = np.zeros((8, 8, 3), dtype=np.uint8)
        with MicroBatcher(predict_fn, max_batch=1) as batcher:
            batcher.submit(tile, deadline=Deadline(30.0)).result(5.0)
            batcher.submit(tile).result(5.0)  # unbounded entry → None
        assert len(seen) == 2
        assert isinstance(seen[0], Deadline) and seen[1] is None


class TestAtomicCheckpointWrites:
    def test_save_weights_leaves_no_temp_files(self, tmp_path):
        model = UNet(tiny_unet_config(seed=1))
        path = save_weights(model, str(tmp_path / "weights.npz"))
        assert os.path.exists(path)
        assert glob.glob(str(tmp_path / "*.tmp-*")) == []
        assert load_model_state(path)

    def test_save_checkpoint_replaces_previous_archive_atomically(self, tmp_path):
        model = UNet(tiny_unet_config(seed=2))
        optimizer = Adam(model.parameters(), lr=0.1)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, optimizer, path)
        before = load_model_state(path)
        save_checkpoint(model, optimizer, path)  # overwrite in place
        after = load_model_state(path)
        assert sorted(before) == sorted(after)
        assert glob.glob(str(tmp_path / "*.tmp-*")) == []

    def test_failed_write_keeps_previous_archive(self, tmp_path, monkeypatch):
        model = UNet(tiny_unet_config(seed=2))
        path = save_weights(model, str(tmp_path / "w.npz"))
        good = load_model_state(path)

        import repro.nn.serialization as serialization

        def explode(stream, **state):
            stream.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(serialization.np, "savez", explode)
        with pytest.raises(OSError, match="disk full"):
            save_weights(model, path)
        monkeypatch.undo()
        # The interrupted write never touched the published archive.
        recovered = load_model_state(path)
        assert sorted(recovered) == sorted(good)
        assert glob.glob(str(tmp_path / "*.tmp-*")) == []


def _flip_last_byte_of(path: str, member: str) -> None:
    """Flip one payload byte of a stored zip member in place (its recorded CRC-32 goes stale)."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    with open(path, "r+b") as fh:
        fh.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", fh.read(4))
        fh.seek(info.header_offset + 30 + name_len + extra_len + info.compress_size - 1)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0xFF]))


class TestArchiveFormats:
    """Stored archives (written now) and deflated ones (written before PR 17) are one format to every reader."""

    def _trained(self, seed: int = 4):
        model = UNet(tiny_unet_config(seed=seed))
        optimizer = Adam(model.parameters(), lr=1e-3)
        for param in model.parameters():
            param.grad[...] = 0.01
        optimizer.step()  # non-trivial moments and step count
        return model, optimizer

    def test_every_reader_gives_the_source_state(self, tmp_path, archive_writer):
        model, optimizer = self._trained()
        path = save_checkpoint(model, optimizer, str(tmp_path / "ckpt"), metadata={"kind": "test"},
                               extra_state={"cursor": [3, 1]})
        with zipfile.ZipFile(path) as archive:  # the fixture really wrote the format it names
            assert {info.compress_type for info in archive.infolist()} == {archive_writer}

        fresh = UNet(tiny_unet_config(seed=99))
        fresh_optimizer = Adam(fresh.parameters(), lr=0.5)
        assert load_checkpoint(fresh, fresh_optimizer, path) == {"cursor": [3, 1]}
        assert read_metadata(path) == {"kind": "test"}
        source, loaded, from_state = model.state_dict(), fresh.state_dict(), load_model_state(path)
        assert sorted(source) == sorted(loaded) == sorted(from_state)
        for key, value in source.items():
            np.testing.assert_array_equal(loaded[key], value)
            np.testing.assert_array_equal(from_state[key], value)
        restored = fresh_optimizer.state_dict()
        for key, value in optimizer.state_dict().items():
            np.testing.assert_array_equal(np.asarray(restored[key]), np.asarray(value))

    def test_registry_serves_both_formats_alike(self, tmp_path, archive_writer):
        model = UNet(UNetConfig(depth=1, base_channels=2, seed=6))
        registry = ModelRegistry(str(tmp_path))
        registry.publish("m", 1, model)
        try:
            served = registry.classifier("m").model.state_dict()
        finally:
            registry.close()
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(served[key], value)

    def test_fresh_archives_have_only_stored_members(self, tmp_path):
        """The structural guard that deflate does not come back: a byte fact, not a timing."""
        model, optimizer = self._trained()
        registry = ModelRegistry(str(tmp_path / "registry"))
        registry.publish("m", 1, model)
        registry.close()
        paths = [save_weights(model, str(tmp_path / "w")), save_checkpoint(model, optimizer, str(tmp_path / "c")),
                 *glob.glob(str(tmp_path / "registry" / "**" / "*.npz"), recursive=True)]
        assert len(paths) == 3
        for path in paths:
            with zipfile.ZipFile(path) as archive:
                assert archive.infolist()
                assert all(info.compress_type == zipfile.ZIP_STORED for info in archive.infolist()), path

    def test_flipped_byte_in_a_stored_tensor_is_a_checkpoint_error(self, tmp_path):
        model, optimizer = self._trained()
        path = save_checkpoint(model, optimizer, str(tmp_path / "ckpt"))
        with zipfile.ZipFile(path) as archive:
            member = next(name for name in archive.namelist() if name.startswith("model/"))
        _flip_last_byte_of(path, member)
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(model, optimizer, path)
        with pytest.raises(CheckpointError, match="CRC"):
            load_model_state(path)

    def test_resume_falls_back_past_a_flipped_and_a_torn_archive(self, tmp_path):
        # Never started: checkpointing touches only the master model and its optimiser.
        trainer = ElasticTrainer(num_workers=1, config=tiny_unet_config(seed=2),
                                 checkpoint_dir=tmp_path, keep_checkpoints=10)
        paths = {}
        for step in (1, 2, 3):
            trainer.global_step = step
            if step == 2:
                configure_faults({"ckpt_corrupt_write": FaultSpec(times=1)})
            paths[step] = trainer._save_checkpoint(0, step, {}, [], 0)
        assert fault_stats()["ckpt_corrupt_write"]["fired"] == 1
        _flip_last_byte_of(paths[3], "optim/m.0.npy")
        for step in (3, 2):
            with pytest.raises(CheckpointError):
                load_checkpoint(trainer.master, trainer.optimizer, paths[step])
        assert trainer._load_latest()["global_step"] == 1


def _publish(registry: ModelRegistry, name: str, version: int, seed: int = 0) -> None:
    registry.publish(name, version, UNet(UNetConfig(depth=1, base_channels=2, seed=seed)))


class TestRegistryGracefulDegrade:
    def test_corrupt_new_version_keeps_serving_previous(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        _publish(registry, "m", 1)
        first = registry.classifier("m")
        # A half-written v2 lands in the registry directory mid-rescan.
        bad = tmp_path / "m" / "2.npz"
        bad.write_bytes(b"this is not a zip archive")
        registry.scan()
        served = registry.classifier("m")
        assert served is first  # still the warm v1
        assert str(bad) in registry.quarantined_paths()
        registry.close()

    def test_rewritten_archive_leaves_quarantine(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        _publish(registry, "m", 1)
        registry.classifier("m")
        bad = tmp_path / "m" / "2.npz"
        bad.write_bytes(b"garbage")
        registry.classifier("m")  # quarantines v2
        assert registry.quarantined_paths()
        # Republishing v2 properly (new mtime) gets it served again.
        _publish(registry, "m", 2, seed=9)
        os.utime(bad, ns=(time.time_ns(), time.time_ns()))
        served = registry.classifier("m")
        assert registry.loaded_versions("m")[-1] == ("m", 2)
        assert served is registry.warm_classifier("m", 2)
        assert not registry.quarantined_paths()
        registry.close()

    def test_pinned_version_still_raises_on_corruption(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        _publish(registry, "m", 1)
        bad = tmp_path / "m" / "2.npz"
        bad.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            registry.classifier("m", version=2)
        registry.close()

    def test_all_versions_corrupt_raises_checkpoint_error(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        (tmp_path / "m").mkdir()
        (tmp_path / "m" / "1.npz").write_bytes(b"junk")
        registry.scan()
        with pytest.raises(CheckpointError):
            registry.classifier("m")
        # Quarantined now; the next lookup reports every version unusable.
        with pytest.raises(CheckpointError, match="quarantined"):
            registry.classifier("m")
        registry.close()

    def test_registry_close_retires_every_warm_entry(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        _publish(registry, "a", 1)
        _publish(registry, "b", 1, seed=4)
        retired = []
        registry.add_evict_listener(retired.append)
        registry.classifier("a")
        registry.classifier("b")
        registry.close()
        assert registry.warm_count() == 0
        assert sorted(retired) == [("a", 1), ("b", 1)]

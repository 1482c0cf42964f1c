"""Tests for repro.distributed (the gradient fold, the elastic data-parallel trainer, DGX model)."""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import time
import warnings
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import ProcessBackend, WorkerProcess
from repro.data import BatchLoader
from repro.distributed import (
    DGXTrainingModel,
    ElasticTrainer,
    ElasticTrainingError,
    latest_checkpoints,
    paper_table3,
)
from repro.nn import Adam, CategoricalCrossEntropy, load_checkpoint, read_metadata, save_checkpoint
from repro.nn.convgemm import NUMERICS
from repro.obs.metrics import get_registry
from repro.reliability import FaultSpec, configure_faults, fault_stats, reset_faults
from repro.unet import UNet, UNetConfig

from leaks import shm_segments
from reference_kernels import reference_train_step

HAVE_FORK = "fork" in mp.get_all_start_methods()
fork_only = pytest.mark.skipif(not HAVE_FORK, reason="fork start method unavailable")

#: Tiny elastic-trainer config shared by the elastic tests below.
ELASTIC_CONFIG = UNetConfig(depth=2, base_channels=4, dropout=0.2, seed=7)


@pytest.fixture(autouse=True)
def disarm_faults():
    yield
    reset_faults()


def _wide_slots(num_slots: int, size: int, seed: int) -> list[np.ndarray]:
    """float32 gradients spread over ~60 binary orders of magnitude: their float64 sum depends on its order."""
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=size) * 10.0 ** rng.uniform(-9, 9, size=size)).astype(np.float32)
            for _ in range(num_slots)]


def _slot_order_sum(slots) -> np.ndarray:
    """The reference reduction: ``np.add`` over the slots in index order, into float64."""
    acc = np.zeros(slots[0].size, dtype=np.float64)
    for slot in slots:
        np.add(acc, slot, out=acc)
    return acc


def _fold(slots, acc) -> np.ndarray:
    """What :meth:`ElasticTrainer._fold` leaves in ``acc`` after folding ``slots``."""
    trainer = ElasticTrainer(micro_shards=len(slots), config=UNetConfig(depth=1, base_channels=2, seed=0))
    trainer._slots, trainer._acc = list(slots), acc
    trainer._fold()
    return trainer._acc


def _applied_grads(trainer: ElasticTrainer) -> np.ndarray:
    return np.concatenate([param.grad.ravel() for _name, param in trainer._params])


def _one_step(trainer: ElasticTrainer, seed: int = 4) -> None:
    """One train_step on a fixed random batch, with the optimiser held so ``param.grad`` is what was applied."""
    rng = np.random.default_rng(seed)
    x = rng.random((10, 3, 16, 16), dtype=np.float32)
    y = rng.integers(0, 3, size=(10, 16, 16))
    with mock.patch.object(trainer.optimizer, "step"):
        assert trainer.train_step(x, y) is not None


class TestRingAllReduce:
    """The gradient all-reduce is the master's slot-order fold: a float64 left-fold over micro-shard slots."""

    def test_matches_mean(self):
        with ElasticTrainer(micro_shards=4, config=ELASTIC_CONFIG, seed=1) as trainer:
            _one_step(trainer)
            slots = trainer._slots
            expected = (_slot_order_sum(slots) * (1.0 / 4)).astype(np.float32)
            np.testing.assert_array_equal(_applied_grads(trainer), expected)
            np.testing.assert_allclose(_applied_grads(trainer), np.mean(slots, axis=0), rtol=1e-5, atol=1e-9)

    def test_sum_mode(self):
        """The fold sums (the mean is the update's) and starts over whatever the accumulator held."""
        slots = _wide_slots(3, 11, seed=0)
        np.testing.assert_array_equal(_fold(slots, np.full(11, 7.0)), _slot_order_sum(slots))
        np.testing.assert_array_equal(_fold(slots[2:], np.full(11, np.nan)), slots[2].astype(np.float64))

    def test_matches_naive_reference(self):
        """The fold runs in slot order, on data whose sum can tell the order."""
        slots = _wide_slots(6, 64, seed=1)
        expected = _slot_order_sum(slots)
        assert not np.array_equal(expected, _slot_order_sum(slots[::-1]))
        np.testing.assert_array_equal(_fold(slots, np.empty(64)), expected)

    def test_single_worker(self):
        """M = 1: the update is the shard's own float32 gradient, bit for bit."""
        with ElasticTrainer(micro_shards=1, config=ELASTIC_CONFIG, seed=1) as trainer:
            _one_step(trainer)
            np.testing.assert_array_equal(_applied_grads(trainer), trainer._slots[0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 40))
    def test_property_any_worker_count_and_size(self, micro_shards, size):
        """The master folds every slot, whatever number of workers filled them: one fold for 0 and N workers."""
        slots = _wide_slots(micro_shards, size, seed=micro_shards * 1000 + size)
        np.testing.assert_array_equal(_fold(slots, np.full(size, np.nan)), _slot_order_sum(slots))

    def test_bandwidth_optimality_traffic(self):
        """The fold moves every slot once: M·flat·4 bytes a step, whatever the worker count."""
        for workers in ((0, 1, 2) if HAVE_FORK else (0,)):
            with ElasticTrainer(num_workers=workers, micro_shards=2, config=ELASTIC_CONFIG, seed=1,
                                step_timeout_s=30.0) as trainer:
                counter = get_registry().get("repro_train_allreduce_bytes_total")
                before = counter.value()
                _one_step(trainer)
                _one_step(trainer, seed=5)
                assert counter.value() - before == 2 * 2 * trainer._flat_size * 4, workers

    def test_preserves_shape(self):
        """_apply_update cuts the accumulator into each parameter's shape, in parameter order."""
        with ElasticTrainer(micro_shards=2, config=ELASTIC_CONFIG) as trainer:
            trainer._acc[...] = np.arange(trainer._flat_size, dtype=np.float64)
            with mock.patch.object(trainer.optimizer, "step"):
                trainer._apply_update()
            offset = 0
            for _name, param in trainer._params:
                assert param.grad.shape == param.value.shape and param.grad.dtype == np.float32
                np.testing.assert_array_equal(
                    param.grad.ravel(), (np.arange(offset, offset + param.grad.size) * 0.5).astype(np.float32))
                offset += param.grad.size
            assert offset == trainer._flat_size

    @fork_only
    def test_rejects_mismatched_shapes(self):
        """The replica's segment holds each weight and slot once: the parameters' shapes and the flat
        gradient, cache-line aligned, no view overlapping another."""
        with ElasticTrainer(num_workers=1, micro_shards=3, config=ELASTIC_CONFIG, step_timeout_s=30.0) as trainer:
            assert [view.shape for view in trainer._weights] == [param.value.shape for _name, param in trainer._params]
            assert [(slot.dtype, slot.shape) for slot in trainer._slots] == [(np.float32, (trainer._flat_size,))] * 3
            views = trainer._weights + trainer._slots
            assert all(view.ctypes.data % 64 == 0 for view in views)
            spans = sorted((view.ctypes.data, view.ctypes.data + view.nbytes) for view in views)
            assert all(end <= start for (_start, end), (start, _end) in zip(spans, spans[1:]))

    @fork_only
    def test_rejects_empty(self):
        """A micro-shard whose worker dies on every attempt raises, naming the step and the slot, once the
        backend's retries are spent — in bounded time, with no segment left behind."""
        before = shm_segments()
        configure_faults({"trainer_worker_crash": FaultSpec(times=-1)})
        start = time.monotonic()
        with ElasticTrainer(num_workers=2, micro_shards=2, config=ELASTIC_CONFIG, step_timeout_s=30.0) as trainer:
            with pytest.raises(ElasticTrainingError, match=r"^step 0, micro-shard slot [01]: .*died"):
                trainer.fit(_eight_step_loader(), epochs=1)
            assert trainer.global_step == 0
        assert time.monotonic() - start < 60.0
        assert fault_stats()["trainer_worker_crash"]["fired"] == 2 * 3  # two shards, each tried 1 + 2 times
        assert shm_segments() == before

    @fork_only
    def test_pipe_ring_across_processes(self):
        """The accumulator the master folds from slots forked workers filled equals the in-process one bit for
        bit, with more shards than workers and with fewer."""
        for micro_shards in (5, 2):
            with ElasticTrainer(micro_shards=micro_shards, config=ELASTIC_CONFIG, seed=2) as local:
                _one_step(local)
                expected = local._acc.copy()
                np.testing.assert_array_equal(expected, _slot_order_sum(local._slots))
            with ElasticTrainer(num_workers=3, micro_shards=micro_shards, config=ELASTIC_CONFIG, seed=2,
                                step_timeout_s=30.0) as fleet:
                _one_step(fleet)
                np.testing.assert_array_equal(fleet._acc, expected)


@fork_only
class TestDataParallelTrainer:
    """:class:`ElasticTrainer` is the data-parallel trainer: one worker or many."""

    def test_sharding(self):
        trainer = ElasticTrainer(num_workers=2, config=UNetConfig(depth=1, base_channels=2, seed=0))
        x = np.zeros((5, 3, 8, 8), dtype=np.float32)
        y = np.zeros((5, 8, 8), dtype=np.int64)
        shards = trainer._shard_batch(x, y)
        assert [slot for slot, _x, _y in shards] == [0, 1]
        assert shards[0][1].shape[0] == 2  # 5 // 2
        assert trainer._shard_batch(x[:1], y[:1]) is None

    def test_distributed_equals_serial_training(self, tiny_split):
        """Synchronous data parallelism must match single-process training on
        the same global batches (the correctness claim behind Horovod): two
        workers averaging two shard gradients land on the weights of the plain
        full-batch step, to the rounding of a mean taken in two halves."""
        train, _ = tiny_split
        config = UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=7)
        loader = BatchLoader(train.images, train.labels, batch_size=4, shuffle=False, drop_last=True)
        batches = list(loader)[:3]

        serial = UNet(config)
        loss_fn, adam = CategoricalCrossEntropy(), Adam(serial.parameters(), lr=1e-2)
        with ElasticTrainer(num_workers=2, config=config) as parallel:
            parallel.optimizer = Adam(parallel.master.parameters(), lr=1e-2)
            for x, y in batches:
                reference_train_step(serial, loss_fn, adam, x, y)
                parallel.train_step(x, y)
            for (name_a, pa), (name_b, pb) in zip(
                serial.named_parameters().items(),
                parallel.master.named_parameters().items(),
            ):
                assert name_a == name_b
                np.testing.assert_allclose(pa.value, pb.value, atol=2e-4)

    def test_skips_too_small_batches(self):
        with ElasticTrainer(num_workers=1, micro_shards=4,
                            config=UNetConfig(depth=1, base_channels=2, seed=0)) as trainer:
            digest = trainer.weights_digest()
            x = np.zeros((2, 3, 16, 16), dtype=np.float32)
            y = np.zeros((2, 16, 16), dtype=np.int64)
            assert trainer.train_step(x, y) is None
            assert trainer.global_step == 0
            assert trainer.weights_digest() == digest

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ElasticTrainer(num_workers=-1)

    def test_checkpoint_roundtrip_with_extra_state(self, tmp_path):
        config = UNetConfig(depth=1, base_channels=2, dropout=0.0, seed=5)
        x = np.zeros((4, 3, 16, 16), dtype=np.float32)
        y = np.zeros((4, 16, 16), dtype=np.int64)
        with ElasticTrainer(num_workers=2, config=config, checkpoint_dir=tmp_path) as trainer:
            trainer.train_step(x, y)
            trainer._save_checkpoint(epoch=3, step_in_epoch=1, epoch_rng_state={},
                                     epoch_losses=[0.5], epoch_images=4)
            digest = trainer.weights_digest()
        restored = ElasticTrainer(num_workers=2, config=config, checkpoint_dir=tmp_path)
        assert restored.weights_digest() != digest
        extra = restored._load_latest()
        assert (extra["epoch"], extra["global_step"], extra["epoch_losses"]) == (3, 1, [0.5])
        assert restored.weights_digest() == digest


class TestDGXModel:
    def test_default_calibration_matches_paper(self):
        model = DGXTrainingModel()
        assert model.relative_error_vs_paper() < 0.05
        row8 = model.predict_row(8)
        assert row8["speedup"] == pytest.approx(7.21, abs=0.3)

    def test_monotone_speedup_and_throughput(self):
        model = DGXTrainingModel()
        rows = model.sweep()
        speedups = [r["speedup"] for r in rows]
        throughputs = [r["images_per_s"] for r in rows]
        assert speedups == sorted(speedups)
        assert throughputs == sorted(throughputs)

    def test_efficiency_degrades_with_gpus(self):
        """The paper observes GPU starvation from the input pipeline at high GPU counts."""
        model = DGXTrainingModel()
        eff = [model.speedup(g) / g for g in (1, 2, 4, 8)]
        assert eff[0] == pytest.approx(1.0)
        assert eff[-1] < eff[1]

    def test_paper_table3_shape(self):
        rows = paper_table3()
        assert len(rows) == 5
        assert rows[-1]["speedup"] == 7.21

    def test_allreduce_cost_grows_then_saturates(self):
        model = DGXTrainingModel()
        assert model.allreduce_time_per_step(1) == 0.0
        assert model.allreduce_time_per_step(8) > model.allreduce_time_per_step(2)

    def test_calibrated_from_measurement(self):
        model = DGXTrainingModel.calibrated_from_measurement(
            measured_epoch_time=10.0, images_per_epoch=100, model_parameters=10_000
        )
        assert model.epoch_time(1) == pytest.approx(10.0, rel=0.05)
        assert model.speedup(4) > 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            DGXTrainingModel(images_per_epoch=0)
        with pytest.raises(ValueError):
            DGXTrainingModel().epoch_time(0)
        with pytest.raises(ValueError):
            DGXTrainingModel.calibrated_from_measurement(0.0, 10, 10)


# --------------------------------------------------------------------------- #
# Elastic fault-tolerant trainer
# --------------------------------------------------------------------------- #
def _elastic_loader(split, seed: int = 5) -> BatchLoader:
    train, _ = split
    return BatchLoader(train.images, train.labels, batch_size=4,
                       shuffle=True, augment=True, seed=seed)


def _eight_step_loader() -> BatchLoader:
    rng = np.random.default_rng(11)
    images = rng.integers(0, 256, size=(32, 16, 16, 3), dtype=np.uint8)
    labels = rng.integers(0, 3, size=(32, 16, 16), dtype=np.uint8)
    return BatchLoader(images, labels, batch_size=4, shuffle=True, augment=True, seed=5)


class _IterOnlyLoader:
    """What ``fit`` may rely on when not resuming: ``__iter__`` and ``rng_state()`` — no ``len()``."""

    def __init__(self, loader: BatchLoader) -> None:
        self._loader = loader

    def __iter__(self):
        return iter(self._loader)

    def rng_state(self) -> dict:
        return self._loader.rng_state()


class TestLoaderRngState:
    def test_rng_state_roundtrip_replays_exact_batches(self, tiny_split):
        loader = _elastic_loader(tiny_split)
        state = loader.rng_state()
        first = [(x.copy(), y.copy()) for x, y in loader]
        loader.set_rng_state(state)
        second = [(x.copy(), y.copy()) for x, y in loader]
        assert len(first) == len(second) > 0
        for (xa, ya), (xb, yb) in zip(first, second):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_rng_state_is_json_serialisable(self, tiny_split):
        import json

        loader = _elastic_loader(tiny_split)
        encoded = json.loads(json.dumps(loader.rng_state()))
        loader.set_rng_state(encoded)
        assert len(list(loader)) > 0


@fork_only
class TestElasticTrainer:
    def test_bit_identical_across_worker_counts(self, tiny_split):
        """The left-fold over a fixed micro-shard count must make the
        trajectory independent of the fleet size — the property that makes
        elastic shrink/grow trajectory-preserving."""
        results = {}
        for workers in (1, 3):
            loader = _elastic_loader(tiny_split)
            with ElasticTrainer(num_workers=workers, config=ELASTIC_CONFIG,
                                micro_shards=4, seed=0, step_timeout_s=30.0) as trainer:
                history = trainer.fit(loader, epochs=2)
                results[workers] = (list(history.losses), trainer.weights_digest())
        assert results[1][0] == results[3][0]
        assert results[1][1] == results[3][1]

    def test_checkpoint_resume_bit_identical(self, tiny_split, tmp_path):
        """SIGKILL-and-resume semantics: a fresh trainer resuming from the
        newest checkpoint must reproduce the uninterrupted run bit-for-bit
        (losses and weights), including the loader's shuffle/augment draws."""
        loader = _elastic_loader(tiny_split)
        with ElasticTrainer(num_workers=2, config=ELASTIC_CONFIG, micro_shards=4,
                            seed=0, step_timeout_s=30.0) as trainer:
            reference = trainer.fit(loader, epochs=3)
            ref_losses = list(reference.losses)
            ref_digest = trainer.weights_digest()

        loader = _elastic_loader(tiny_split)
        with ElasticTrainer(num_workers=2, config=ELASTIC_CONFIG, micro_shards=4,
                            seed=0, step_timeout_s=30.0,
                            checkpoint_dir=tmp_path, checkpoint_every=1) as trainer:
            trainer.fit(loader, epochs=1)
        assert latest_checkpoints(tmp_path)

        loader = _elastic_loader(tiny_split)  # fresh process-equivalent state
        with ElasticTrainer(num_workers=2, config=ELASTIC_CONFIG, micro_shards=4,
                            seed=0, step_timeout_s=30.0,
                            checkpoint_dir=tmp_path, checkpoint_every=1) as trainer:
            resumed = trainer.fit(loader, epochs=3, resume=True)
            assert trainer.resumes == 1
            assert list(resumed.losses) == ref_losses
            assert trainer.weights_digest() == ref_digest

    def test_resume_without_checkpoints_starts_fresh(self, tiny_split, tmp_path):
        loader = _elastic_loader(tiny_split)
        with ElasticTrainer(num_workers=1, config=ELASTIC_CONFIG, micro_shards=2,
                            seed=0, checkpoint_dir=tmp_path) as trainer:
            history = trainer.fit(loader, epochs=1, resume=True)
            assert trainer.resumes == 0
            assert len(history.losses) == 1

    @pytest.mark.parametrize("key, written, resumed", [("micro_shards", 2, 4), ("seed", 3, 9)])
    def test_resume_under_another_layout_refuses(self, tmp_path, key, written, resumed):
        """The trajectory is a function of M and the seed: a checkpoint written under others must not
        be continued as if it were this run's."""
        kwargs = dict(num_workers=0, config=ELASTIC_CONFIG, micro_shards=2, seed=3, checkpoint_dir=tmp_path)
        with ElasticTrainer(**kwargs) as trainer:
            trainer.fit(_eight_step_loader(), epochs=1)
        with ElasticTrainer(**{**kwargs, key: resumed}) as trainer:
            with pytest.raises(ElasticTrainingError, match=rf"{key}={written}\b.*{key}={resumed}\b.*--micro-shards 2"):
                trainer.fit(_eight_step_loader(), epochs=2, resume=True)
            assert trainer.resumes == 0 and trainer.global_step == 0

    def test_keep_checkpoints_prunes_old_archives(self, tiny_split, tmp_path):
        loader = _elastic_loader(tiny_split)
        with ElasticTrainer(num_workers=1, config=ELASTIC_CONFIG, micro_shards=2,
                            seed=0, checkpoint_dir=tmp_path, checkpoint_every=1,
                            keep_checkpoints=2) as trainer:
            trainer.fit(loader, epochs=3)
        assert len(latest_checkpoints(tmp_path)) == 2

    def test_one_checkpoint_per_step_boundary(self, tmp_path):
        """8-step epoch, checkpoint every 4: step 4's periodic archive is written while the ranks compute
        step 5 — on disk when that step returns, not when it starts — and step 8 is written once
        (epoch-boundary form), not twice to the same path."""
        trainer_kwargs = dict(num_workers=1, config=ELASTIC_CONFIG, micro_shards=2, seed=0,
                              checkpoint_dir=tmp_path, checkpoint_every=4)
        registry = get_registry()
        with ElasticTrainer(**trainer_kwargs) as trainer:
            written = registry.get("repro_train_checkpoints_total").value()
            timed = registry.get("repro_train_checkpoint_ms").snapshot()["count"]
            on_disk = {}
            real_step = trainer.train_step

            def spying_step(x, y, meanwhile):
                before = [os.path.basename(path) for path in latest_checkpoints(tmp_path)]
                loss = real_step(x, y, meanwhile)
                on_disk[trainer.global_step] = (before, [os.path.basename(path) for path in latest_checkpoints(tmp_path)])
                return loss

            trainer.train_step = spying_step
            trainer.fit(_IterOnlyLoader(_eight_step_loader()), epochs=1)
            assert trainer.global_step == 8
            assert registry.get("repro_train_checkpoints_total").value() - written == 2
            assert registry.get("repro_train_checkpoint_ms").snapshot()["count"] - timed == 2
        assert on_disk[4] == ([], []) and on_disk[5] == ([], ["ckpt-00000004.npz"])
        assert [os.path.basename(path) for path in latest_checkpoints(tmp_path)] == [
            "ckpt-00000008.npz", "ckpt-00000004.npz"]

    def test_the_master_works_once_per_step_while_the_ranks_compute(self, tmp_path):
        """The due checkpoint and the loader's next batch happen between the last submit and the first wait:
        once a step, also when a crashed worker makes the backend re-send a shard — and the run still equals
        the undisturbed in-process one, archive for archive."""
        kwargs = dict(config=ELASTIC_CONFIG, micro_shards=2, seed=0, checkpoint_every=1, keep_checkpoints=20)
        with ElasticTrainer(num_workers=0, checkpoint_dir=tmp_path / "calm", **kwargs) as trainer:
            calm = list(trainer.fit(_eight_step_loader(), epochs=1).losses), trainer.weights_digest()
        events, sends = [], []
        real_submit, real_send, real_save = ProcessBackend.submit, WorkerProcess.send, ElasticTrainer._save_checkpoint

        def submit(backend, *msg, **kwargs):
            events.append(msg[0])
            future = real_submit(backend, *msg, **kwargs)
            result = future.result

            def awaited(timeout=None):
                events.append("recv")
                return result(timeout)

            future.result = awaited
            return future

        def send(worker, *msg):
            sends.append(msg[0])
            real_send(worker, *msg)

        def save(trainer, epoch, *cursor):
            events.append(f"save-{trainer.global_step}")
            return real_save(trainer, epoch, *cursor)

        configure_faults({"trainer_worker_crash": FaultSpec(times=1)})
        with mock.patch.object(ProcessBackend, "submit", submit), mock.patch.object(WorkerProcess, "send", send), \
                mock.patch.object(ElasticTrainer, "_save_checkpoint", save):
            with ElasticTrainer(num_workers=2, checkpoint_dir=tmp_path / "crash", step_timeout_s=30.0, **kwargs) as trainer:
                crashed = list(trainer.fit(_eight_step_loader(), epochs=1).losses), trainer.weights_digest()
                assert trainer.ring_rebuilds >= 1
        assert crashed == calm
        assert sorted(os.listdir(tmp_path / "crash")) == sorted(os.listdir(tmp_path / "calm"))
        saves = [index for index, event in enumerate(events) if event.startswith("save")]
        assert [events[index] for index in saves] == [f"save-{step}" for step in range(1, 9)]
        for index in saves[:-1]:  # the last is the epoch-boundary write, after the fold
            assert events[index - 1] == "train_step" and events[index + 1] == "recv"
        assert events.count("train_step") == 2 * 8  # the trainer submits each shard once
        assert sends.count("train_step") > 2 * 8  # the backend re-sent the crashed one

    def test_resume_from_either_kept_archive_in_either_format(self, tmp_path, archive_writer):
        """Mid-epoch (step 4) and epoch-boundary (step 8) archives, stored or deflated as the
        parent commit wrote them, both resume into the uninterrupted run's weights."""
        trainer_kwargs = dict(num_workers=1, config=ELASTIC_CONFIG, micro_shards=2, seed=0)
        with ElasticTrainer(**trainer_kwargs) as trainer:
            reference = list(trainer.fit(_eight_step_loader(), epochs=2).losses)
            reference_digest = trainer.weights_digest()
        with ElasticTrainer(checkpoint_dir=tmp_path / "run", checkpoint_every=4,
                            **trainer_kwargs) as trainer:
            trainer.fit(_eight_step_loader(), epochs=1)
        kept = latest_checkpoints(tmp_path / "run")
        assert len(kept) == 2
        for index, path in enumerate(kept):
            with zipfile.ZipFile(path) as archive:
                assert {info.compress_type for info in archive.infolist()} == {archive_writer}
            only = tmp_path / f"only-{index}"
            only.mkdir()
            shutil.copy(path, only)
            with ElasticTrainer(checkpoint_dir=only, **trainer_kwargs) as trainer:
                resumed = trainer.fit(_eight_step_loader(), epochs=2, resume=True)
                assert trainer.resumes == 1
                assert list(resumed.losses) == reference
                assert trainer.weights_digest() == reference_digest

    def test_stats_surface(self, tiny_split):
        loader = _elastic_loader(tiny_split)
        with ElasticTrainer(num_workers=2, config=ELASTIC_CONFIG, micro_shards=2,
                            seed=0) as trainer:
            trainer.fit(loader, epochs=1)
            stats = trainer.stats()
            assert stats["global_step"] >= 1
            assert stats["live_workers"] == stats["target_workers"] == 2
            assert stats["ring_rebuilds"] == 0 and stats["resumes"] == 0
            assert stats["worker_respawns"] == 0
            assert len(stats["weights_digest"]) == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            ElasticTrainer(num_workers=-1)
        with pytest.raises(ValueError):
            ElasticTrainer(num_workers=2, micro_shards=0)
        with pytest.raises(ValueError):  # the profile is of the in-process rank
            ElasticTrainer(num_workers=2).enable_profiling()


class TestInProcessRank:
    """``num_workers=0``: the trainer is its own rank.  The same step and fold, no process —
    so the worker count, zero included, never touches the trajectory."""

    def test_equals_the_reference_step_bit_for_bit(self, tiny_split):
        """One micro-shard, no dropout: the slot → float64 fold → float32 round trip is exact,
        so three augmented steps end on the weights of the plain forward/backward/Adam step."""
        config = UNetConfig(depth=2, base_channels=4, dropout=0.0, seed=7)
        loader = _elastic_loader(tiny_split)  # two batches a pass (4 + 2 tiles), shuffled and augmented
        batches = [(x.copy(), y.copy()) for _epoch in range(2) for x, y in loader][:3]
        reference = UNet(config)
        loss_fn, adam = CategoricalCrossEntropy(), Adam(reference.parameters(), lr=1e-2)
        trainer = ElasticTrainer(num_workers=0, micro_shards=1, config=config, learning_rate=1e-2)
        for x, y in batches:
            assert trainer.train_step(x, y) == reference_train_step(reference, loss_fn, adam, x, y)
        for (name, ours), theirs in zip(trainer.master.named_parameters().items(), reference.parameters()):
            np.testing.assert_array_equal(ours.value, theirs.value, err_msg=name)

    @settings(max_examples=8, deadline=None)  # every example with workers forks
    @given(workers=st.sampled_from((0, 1, 2) if HAVE_FORK else (0,)), micro_shards=st.sampled_from((1, 2, 4)),
           batch=st.integers(1, 9), steps=st.integers(1, 3), dropout=st.sampled_from((0.0, 0.3)))
    def test_property_worker_count_never_touches_the_trajectory(self, workers, micro_shards, batch, steps, dropout):
        """The paper's "without affecting the accuracy", as a bit-identity: any worker count
        reaches the weights and losses of the in-process run at equal micro-shards."""
        config = UNetConfig(depth=1, base_channels=2, dropout=dropout, seed=3)
        rng = np.random.default_rng(batch)
        batches = [(rng.random((batch, 3, 8, 8), dtype=np.float32), rng.integers(0, 3, size=(batch, 8, 8)))
                   for _ in range(steps)]

        def run(num_workers):
            with ElasticTrainer(num_workers=num_workers, micro_shards=micro_shards, config=config,
                                seed=1, step_timeout_s=30.0) as trainer:
                return [trainer.train_step(x, y) for x, y in batches], trainer.weights_digest()

        losses, digest = run(0)
        assert (None in losses) == (batch < micro_shards)  # too small to shard: skipped by every fleet
        assert run(workers) == (losses, digest)

    def test_armed_process_faults_do_not_reach_an_in_process_run(self, tiny_split):
        """``trainer_worker_crash`` exits and ``trainer_worker_hang`` sleeps a *worker*: with no worker
        process there is no boundary for them to fire on."""
        configure_faults({"trainer_worker_crash": FaultSpec(times=-1),
                          "trainer_worker_hang": FaultSpec(times=-1, param=600.0)})
        with ElasticTrainer(num_workers=0, micro_shards=2, config=ELASTIC_CONFIG) as trainer:
            history = trainer.fit(_elastic_loader(tiny_split), epochs=1)
        assert np.isfinite(history.losses).all() and trainer.global_step > 0
        assert [cell["fired"] for cell in fault_stats().values()] == [0, 0]

    def test_counts_the_images_that_were_trained(self, tmp_path):
        """13 tiles in batches of 5, 5, 3 over two micro-shards train 4 + 4 + 2: the remainder a
        step drops is not booked — in the epoch's throughput or in the checkpoint cursor, where a
        resumed run must find what the uninterrupted one wrote."""
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(13, 16, 16, 3), dtype=np.uint8)
        labels = rng.integers(0, 3, size=(13, 16, 16), dtype=np.uint8)
        kwargs = dict(num_workers=0, micro_shards=2, config=ELASTIC_CONFIG, checkpoint_every=1, keep_checkpoints=10)

        def run(directory, resume):
            loader = BatchLoader(images, labels, batch_size=5, shuffle=True, augment=True, seed=5)
            trainer = ElasticTrainer(checkpoint_dir=directory, **kwargs)
            stats = trainer.fit(loader, epochs=1, resume=resume).epochs[-1]
            cursors = {os.path.basename(path): load_checkpoint(trainer.master, trainer.optimizer, path)["epoch_images"]
                       for path in latest_checkpoints(directory)}
            return round(stats.images_per_s * stats.time_s, 6), cursors, trainer.resumes

        trained, cursors, _ = run(tmp_path / "whole", resume=False)
        assert trained == 10
        # step 3 ends the epoch: its archive is the epoch-boundary form, cursor at the next epoch's start
        assert cursors == {"ckpt-00000001.npz": 4, "ckpt-00000002.npz": 8, "ckpt-00000003.npz": 0}
        (tmp_path / "killed").mkdir()
        shutil.copy(tmp_path / "whole" / "ckpt-00000001.npz", tmp_path / "killed")
        assert run(tmp_path / "killed", resume=True) == (trained, cursors, 1)

    def test_an_epoch_that_trains_nothing_raises(self):
        """Batches of 2 cannot fill 4 micro-shards: the epoch says so instead of reporting a NaN loss."""
        trainer = ElasticTrainer(num_workers=0, micro_shards=4, config=ELASTIC_CONFIG)
        tiles = _eight_step_loader()
        loader = _IterOnlyLoader(BatchLoader(tiles.images, tiles.labels, batch_size=2))  # no batch_size to read
        with pytest.raises(ValueError, match=r"at most 2 samples, fewer than micro_shards=4"):
            trainer.fit(loader, epochs=1)
        assert trainer.global_step == 0 and not trainer.history.epochs

    @pytest.mark.parametrize("option", [{"keep_checkpoints": 0}, {"checkpoint_every": -1}])
    def test_checkpoint_options_that_lose_the_resume_are_refused(self, tmp_path, option):
        """``keep_checkpoints=0`` would delete every checkpoint as it is written."""
        with pytest.raises(ValueError, match=next(iter(option))):
            ElasticTrainer(checkpoint_dir=tmp_path, **option)

    def test_resumed_history_does_not_dilute_throughput(self, tiny_split, tmp_path):
        """Epochs restored from a checkpoint carry their loss but were not timed by this
        process: the timing means are over the epochs that were."""
        kwargs = dict(num_workers=0, micro_shards=2, config=ELASTIC_CONFIG, checkpoint_dir=tmp_path)
        ElasticTrainer(**kwargs).fit(_elastic_loader(tiny_split), epochs=1)
        trainer = ElasticTrainer(**kwargs)
        history = trainer.fit(_elastic_loader(tiny_split), epochs=3, resume=True)
        assert trainer.resumes == 1 and len(history.losses) == 3
        restored, *timed = history.epochs
        assert restored.time_s == 0.0 and all(stats.time_s > 0 for stats in timed)
        assert history.mean_throughput == pytest.approx(np.mean([stats.images_per_s for stats in timed]))
        assert history.mean_throughput >= min(stats.images_per_s for stats in timed)


class TestNumericsGeneration:
    """Checkpoints say which generation of the float arithmetic wrote them; resuming across one is loud."""

    KWARGS = dict(num_workers=0, micro_shards=2, config=ELASTIC_CONFIG)

    def _trained_epoch(self, directory) -> str:
        ElasticTrainer(checkpoint_dir=directory, **self.KWARGS).fit(_eight_step_loader(), epochs=1)
        (path,) = latest_checkpoints(directory)
        assert read_metadata(path)["numerics"] == NUMERICS
        return path

    def test_same_generation_resume_is_silent(self, tmp_path):
        self._trained_epoch(tmp_path)
        trainer = ElasticTrainer(checkpoint_dir=tmp_path, **self.KWARGS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trainer.fit(_eight_step_loader(), epochs=2, resume=True)
        assert trainer.resumes == 1

    @pytest.mark.parametrize("written_by", [1, NUMERICS + 1])
    def test_cross_generation_resume_warns_once_and_resumes(self, tmp_path, written_by):
        path = self._trained_epoch(tmp_path)
        trainer = ElasticTrainer(checkpoint_dir=tmp_path, **self.KWARGS)
        extra = load_checkpoint(trainer.master, trainer.optimizer, path)
        # generation 1 never wrote the key
        metadata = {"kind": "elastic-trainer", **({} if written_by == 1 else {"numerics": written_by})}
        save_checkpoint(trainer.master, trainer.optimizer, path, metadata=metadata, extra_state=extra)
        with pytest.warns(UserWarning, match=f"generation {written_by}, under generation {NUMERICS}") as caught:
            history = trainer.fit(_eight_step_loader(), epochs=2, resume=True)
        assert len(caught) == 1 and trainer.resumes == 1 and len(history.losses) == 2


class TestLatestCheckpoints:
    def test_orders_newest_first_and_ignores_strangers(self, tmp_path):
        for name in ("ckpt-00000002.npz", "ckpt-00000010.npz", "ckpt-00000001.npz",
                     "weights.npz", "ckpt-123.npz", "notes.txt"):
            (tmp_path / name).write_bytes(b"x")
        found = latest_checkpoints(tmp_path)
        assert [os.path.basename(p) for p in found] == [
            "ckpt-00000010.npz", "ckpt-00000002.npz", "ckpt-00000001.npz"]

    def test_missing_directory_is_empty(self, tmp_path):
        assert latest_checkpoints(tmp_path / "nope") == []

"""Tests for the micro-batching request queue.

No test here depends on timing: coalescing is staged with a gated predictor
(see ``batcher_gate.py``) that holds one flush in flight while the test
queues exactly what the next flush should see.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from batcher_gate import GatedPredict, stub_probs, tagged_tile
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import Deadline, DeadlineExceeded, OverloadedError
from repro.serving import MicroBatcher
from repro.unet import UNet, predict_batch_probabilities, tiny_unet_config


@pytest.fixture()
def tiles(rng):
    return rng.integers(0, 255, size=(24, 16, 16, 3), dtype=np.uint8)


class TestFlushRule:
    """Idle → flush what is queued now; busy → the queue fills until the flush returns."""

    def test_lone_tile_flushes_alone_without_waiting(self, tiles):
        predict = GatedPredict(open=True)
        with MicroBatcher(predict, max_batch=4) as batcher:
            probs = batcher.predict(tiles[0], timeout=10.0)
        assert probs.shape == (2, 16, 16)
        assert predict.calls == [1]

    @pytest.mark.parametrize("queued, max_batch, flushes", [
        (1, 8, [1]), (5, 8, [5]), (8, 8, [8]), (11, 8, [8, 3]), (9, 4, [4, 4, 1]), (3, 1, [1, 1, 1]),
    ])
    def test_tiles_queued_behind_a_flush_go_out_together(self, tiles, queued, max_batch, flushes):
        predict = GatedPredict()
        with MicroBatcher(predict, max_batch=max_batch) as batcher:
            blocker = predict.hold_worker(batcher, tiles[0])
            pending = [batcher.submit(tile) for tile in tiles[1:1 + queued]]
            assert batcher.stats().queue_depth == queued
            predict.release()
            results = [p.result(10.0) for p in [blocker, *pending]]
        # Each flush reaches predict_fn padded up to a power of two (capped at max_batch).
        assert predict.calls == [1, *(min(1 << (n - 1).bit_length(), max_batch) for n in flushes)]
        np.testing.assert_array_equal(np.stack(results), stub_probs(tiles[:1 + queued]))
        stats = batcher.stats()
        assert (stats.requests, stats.batches) == (1 + queued, 1 + len(flushes))
        assert stats.max_batch_size == max(flushes)
        assert stats.queue_depth == 0

    @pytest.mark.parametrize("max_batch, flushes", [(8, [8]), (16, [8]), (4, [4, 4]), (3, [3, 3, 2])])
    def test_submit_many_is_one_flush_per_max_batch_tiles(self, tiles, max_batch, flushes):
        """A request's tiles enter the queue atomically, so even an idle worker sees them whole."""
        predict = GatedPredict(open=True)
        with MicroBatcher(predict, max_batch=max_batch) as batcher:
            pending = batcher.submit_many(tiles[:8])
            results = np.stack([p.result(10.0) for p in pending])
        assert predict.calls == flushes
        np.testing.assert_array_equal(results, stub_probs(tiles[:8]))

    def test_requests_are_taken_whole_while_they_fit(self):
        predict = GatedPredict()
        with MicroBatcher(predict, max_batch=4) as batcher:
            predict.hold_worker(batcher, tagged_tile(0))
            pending = batcher.submit_many([tagged_tile(t) for t in (1, 2, 3)])
            pending += batcher.submit_many([tagged_tile(t) for t in (4, 5, 6)])
            pending += batcher.submit_many([tagged_tile(7)])
            predict.release()
            for p in pending:
                p.result(10.0)
        # 3 + 3 does not fit in 4: the second request waits for the next
        # flush instead of being split 1 + 2; the single tile then joins it.
        # The flush of 3 is padded to 4 with its last tile.
        assert predict.batches == [[0], [1, 2, 3, 3], [4, 5, 6, 7]]

    def test_mixed_tile_shapes_grouped_into_one_call_each(self, rng):
        small = rng.integers(0, 255, size=(16, 16, 3), dtype=np.uint8)
        big = rng.integers(0, 255, size=(32, 32, 3), dtype=np.uint8)
        predict = GatedPredict()
        with MicroBatcher(predict, max_batch=8) as batcher:
            predict.hold_worker(batcher, small)
            pending = [batcher.submit(t) for t in (small, big, small, big)]
            predict.release()
            shapes = [p.result(10.0).shape for p in pending]
        assert shapes == [(2, 16, 16), (2, 32, 32), (2, 16, 16), (2, 32, 32)]
        assert predict.calls == [1, 2, 2]  # one flush of 4, one call per shape
        assert batcher.stats().batches == 2

    def test_cancelled_and_expired_entries_are_dropped_not_computed(self):
        predict = GatedPredict()
        with MicroBatcher(predict, max_batch=8) as batcher:
            predict.hold_worker(batcher, tagged_tile(0))
            kept = batcher.submit(tagged_tile(1))
            cancelled = batcher.submit(tagged_tile(2))
            doomed = batcher.submit(tagged_tile(3), deadline=Deadline(0.0))  # expired on arrival
            assert cancelled.cancel()
            predict.release()
            kept.result(10.0)
            with pytest.raises(RuntimeError, match="cancelled"):
                cancelled.result(10.0)
            with pytest.raises(DeadlineExceeded):
                doomed.result(10.0)
        assert predict.batches == [[0], [1]]
        stats = batcher.stats()
        assert (stats.requests, stats.cancelled, stats.expired) == (2, 1, 1)


class TestMicroBatcher:
    def test_many_threads_share_one_batcher(self, tiles):
        predict = GatedPredict(open=True)
        results: dict[int, np.ndarray] = {}
        with MicroBatcher(predict, max_batch=8) as batcher:
            def client(i: int) -> None:
                results[i] = batcher.predict(tiles[i], timeout=10.0)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
        assert sorted(results) == list(range(16))
        assert batcher.stats().requests == 16 and max(predict.calls) <= 8
        for i, probs in results.items():
            np.testing.assert_array_equal(probs, stub_probs(tiles[i:i + 1])[0])

    def test_predict_fn_error_propagates_to_callers(self, tiles):
        def boom(stack: np.ndarray) -> np.ndarray:
            raise RuntimeError("model exploded")

        with MicroBatcher(boom, max_batch=4) as batcher:
            pending = batcher.submit(tiles[0])
            with pytest.raises(RuntimeError, match="model exploded"):
                pending.result(10.0)

    def test_submit_after_close_raises(self, tiles):
        batcher = MicroBatcher(GatedPredict(open=True), max_batch=2)
        batcher.close()
        batcher.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(tiles[0])
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit_many(tiles[:3])

    def test_rejects_bad_tiles_and_bad_options(self, tiles):
        with MicroBatcher(GatedPredict(open=True), max_batch=2) as batcher:
            with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
                batcher.submit(tiles)  # a whole stack, not one tile
            with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
                batcher.submit_many([tiles[0], tiles[0][..., :2]])
            assert batcher.stats().queue_depth == 0  # the valid tile was not left behind
            assert batcher.submit_many([]) == []
        with pytest.raises(ValueError):
            MicroBatcher(GatedPredict(open=True), max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(GatedPredict(open=True), max_queue=0)

    def test_the_batch_window_is_gone(self):
        with pytest.raises(TypeError, match="max_delay_s"):
            MicroBatcher(GatedPredict(open=True), max_delay_s=0.005)

    def test_real_model_through_batcher_matches_direct(self, rng):
        """The batcher glued to the shared prediction seam is exact."""
        model = UNet(tiny_unet_config(seed=31))
        tiles = rng.integers(0, 255, size=(5, 32, 32, 3), dtype=np.uint8)
        with MicroBatcher(lambda s: predict_batch_probabilities(s, model), max_batch=5) as batcher:
            batched = np.stack([p.result(30.0) for p in batcher.submit_many(tiles)])
        np.testing.assert_array_equal(batched, predict_batch_probabilities(tiles, model))

    def test_results_do_not_pin_the_whole_batch(self, tiles):
        """Each returned map must own its memory, not view the batch array."""
        with MicroBatcher(GatedPredict(open=True), max_batch=8) as batcher:
            results = [p.result(10.0) for p in batcher.submit_many(tiles[:4])]
        assert all(result.base is None for result in results)


class TestBoundedQueueAndClose:
    def test_racing_submitters_cannot_overshoot_max_queue(self):
        """The bound check and the append are one critical section: of N
        threads racing for the last slot exactly one gets it."""
        racers, max_queue = 8, 4
        predict = GatedPredict()
        batcher = MicroBatcher(predict, max_batch=1, max_queue=max_queue)
        admitted: list = []
        shed: list = []
        barrier = threading.Barrier(racers)

        def racer(tag: int) -> None:
            barrier.wait(10.0)
            try:
                admitted.append(batcher.submit(tagged_tile(tag)))
            except OverloadedError as exc:
                shed.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pending = [predict.hold_worker(batcher, tagged_tile(0))]
            pending += batcher.submit_many([tagged_tile(t) for t in range(1, max_queue)])
            assert batcher.stats().queue_depth == max_queue - 1
            threads = [threading.Thread(target=racer, args=(100 + i,)) for i in range(racers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10.0)
            assert not any(t.is_alive() for t in threads)
            stats = batcher.stats()
            assert len(admitted) == 1 and len(shed) == racers - 1
            assert stats.shed == racers - 1
            assert stats.queue_depth == max_queue
            assert "queue full" in str(shed[0])
            predict.release()
            for p in pending + admitted:
                p.result(10.0)
        finally:
            sys.setswitchinterval(interval)
            predict.release()
            batcher.close()
        assert batcher.stats().requests == max_queue + 1

    def test_a_request_that_does_not_fit_is_shed_whole(self):
        predict = GatedPredict()
        with MicroBatcher(predict, max_batch=4, max_queue=4) as batcher:
            predict.hold_worker(batcher, tagged_tile(0))
            kept = batcher.submit_many([tagged_tile(t) for t in (1, 2)])
            with pytest.raises(OverloadedError, match="queue full"):
                batcher.submit_many([tagged_tile(t) for t in (3, 4, 5)])
            stats = batcher.stats()
            assert (stats.shed, stats.queue_depth) == (3, 2)
            kept += batcher.submit_many([tagged_tile(t) for t in (6, 7)])  # exactly to the bound
            predict.release()
            for p in kept:
                p.result(10.0)
        assert predict.batches == [[0], [1, 2, 6, 7]]

    def test_close_at_high_water_resolves_every_queued_caller(self):
        """close() needs no queue slot: a full queue is drained, nobody is stranded."""
        predict = GatedPredict()
        batcher = MicroBatcher(predict, max_batch=2, max_queue=5)
        pending = [predict.hold_worker(batcher, tagged_tile(0))]
        pending += batcher.submit_many([tagged_tile(t) for t in range(1, 6)])
        assert batcher.stats().queue_depth == 5
        closer = threading.Thread(target=batcher.close)
        closer.start()
        predict.release()
        closer.join(10.0)
        assert not closer.is_alive() and not batcher._worker.is_alive()
        assert [p.result(0).shape for p in pending] == [(2, 8, 8)] * 6
        assert predict.calls == [1, 2, 2, 1]
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(tagged_tile(9))


class TestBucketBatching:
    @pytest.mark.parametrize("live, max_batch, padded", [(3, 8, 4), (5, 8, 8), (5, 6, 6), (6, 6, 6), (1, 8, 1)])
    def test_flushes_pad_to_power_of_two_capped_at_max_batch(self, tiles, live, max_batch, padded):
        predict = GatedPredict(open=True)
        with MicroBatcher(predict, max_batch=max_batch) as batcher:
            maps = np.stack([p.result(10.0) for p in batcher.submit_many(tiles[:live])])
        assert predict.calls == [padded]
        # Callers see only their own map, never a padded row.
        np.testing.assert_array_equal(maps, stub_probs(tiles[:live]))
        assert batcher.stats().requests == live


# ---------------------------------------------------------------------- #
# Property: any traffic staged behind one in-flight flush
# ---------------------------------------------------------------------- #
SHAPES = [(8, 8), (8, 16)]
LIVE, CANCEL = 0, 1

requests_strategy = st.lists(
    st.tuples(
        st.lists(st.sampled_from([LIVE, LIVE, CANCEL]), min_size=1, max_size=7),  # per-tile fate
        st.sampled_from(SHAPES),
        st.booleans(),  # request deadline already expired
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(max_batch=st.integers(1, 6), max_queue=st.one_of(st.none(), st.integers(1, 12)), requests=requests_strategy)
def test_property_staged_traffic(max_batch, max_queue, requests):
    predict = GatedPredict()
    batcher = MicroBatcher(predict, max_batch=max_batch, max_queue=max_queue)
    submitted = 1  # the blocker
    depth = 0
    groups = []  # (tags that must be served, request size) per admitted request
    outcomes = []  # (pending, tag, fate)
    try:
        blocker = predict.hold_worker(batcher, tagged_tile(0))
        tag = 0
        for fates, shape, expired in requests:
            tags = list(range(tag + 1, tag + 1 + len(fates)))
            tag += len(fates)
            submitted += len(fates)
            request_tiles = [tagged_tile(t, shape) for t in tags]
            deadline = Deadline(0.0) if expired else None
            if max_queue is not None and depth + len(fates) > max_queue:
                with pytest.raises(OverloadedError):
                    batcher.submit_many(request_tiles, deadline=deadline)
                continue
            pending = batcher.submit_many(request_tiles, deadline=deadline)
            depth += len(fates)
            served = []
            for p, t, fate in zip(pending, tags, fates):
                if fate == CANCEL:
                    assert p.cancel()
                    outcomes.append((p, t, "cancelled"))
                elif expired:
                    outcomes.append((p, t, "expired"))
                else:
                    outcomes.append((p, t, "served"))
                    served.append(t)
            groups.append((served, len(fates)))
        assert batcher.stats().queue_depth == depth
        predict.release()

        np.testing.assert_array_equal(blocker.result(10.0), stub_probs(tagged_tile(0)[None])[0])
        for p, t, fate in outcomes:
            if fate == "served":  # every result is predict_fn on the caller's own tile
                expected = stub_probs(tagged_tile(t, p.tile.shape[:2])[None])[0]
                np.testing.assert_array_equal(p.result(10.0), expected)
            else:
                with pytest.raises(DeadlineExceeded if fate == "expired" else RuntimeError):
                    p.result(10.0)
    finally:
        predict.release()
        batcher.close()

    # Every call is a power of two, or max_batch itself.
    assert all(size <= max_batch and (size & (size - 1) == 0 or size == max_batch) for size in predict.calls)
    # A request that fits in one flush is never split: its live tiles share one
    # call.  Only a request larger than max_batch is served in slices.
    for served, size in groups:
        touched = sum(1 for batch in predict.batches if set(batch) & set(served))
        assert touched <= -(-size // max_batch)
        if served and size <= max_batch:
            assert touched == 1
    # Every live tile is computed exactly once (padding rows only repeat a tag
    # inside one call and never reach a caller).
    live_tags = [t for served, _ in groups for t in served]
    seen = [t for batch in predict.batches[1:] for t in dict.fromkeys(batch)]
    assert sorted(seen) == sorted(live_tags)
    stats = batcher.stats()
    ends = [fate for *_ignored, fate in outcomes]
    assert stats.requests == 1 + ends.count("served")
    assert stats.cancelled == ends.count("cancelled")
    assert stats.expired == ends.count("expired")
    assert stats.requests + stats.cancelled + stats.expired + stats.shed == submitted
    assert stats.queue_depth == 0

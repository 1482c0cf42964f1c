"""Tests for the compiled-plan machinery: arena slots, liveness packing, plan cache behaviour."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.nn import Conv2D
from repro.nn.plan import INPUT, PlanBuilder, PlanCache, Slot, _BorderStep


class _FakePlan:
    """Stands in for a CompiledPlan: the cache only needs arena_nbytes."""

    def __init__(self, shape):
        self.input_shape = shape
        self.arena_nbytes = 128

    def run(self, x):
        return x


class TestSlot:
    def test_resolve_and_channel_slice(self):
        arena = np.arange(2 * 4 * 3 * 3, dtype=np.float32)
        slot = Slot(0, (2, 4, 3, 3))
        full = slot.resolve(arena)
        assert full.shape == (2, 4, 3, 3) and full.base is arena

        sliced = slot.slice(1, 3)
        view = sliced.resolve(arena)
        assert view.shape == (2, 2, 3, 3)
        np.testing.assert_array_equal(view, full[:, 1:3])
        assert sliced.view_shape == (2, 2, 3, 3)

    def test_slice_validation(self):
        slot = Slot(0, (1, 4, 2, 2))
        with pytest.raises(ValueError, match="channel slice"):
            slot.slice(2, 5)
        with pytest.raises(ValueError, match="already-sliced"):
            slot.slice(0, 2).slice(0, 1)


    def test_bordered_slot_resolves_interior_ring_and_slices(self):
        slot = Slot(0, (1, 2, 3, 3))
        slot.pad = 2
        arena = np.arange(1 * 2 * 7 * 7, dtype=np.float32)
        assert slot.storage_shape == (1, 2, 7, 7) and slot.view_shape == (1, 2, 3, 3)
        whole = slot.resolve(arena, border=2)
        assert whole.shape == (1, 2, 7, 7) and whole.base is arena
        np.testing.assert_array_equal(slot.resolve(arena), whole[:, :, 2:-2, 2:-2])
        np.testing.assert_array_equal(slot.resolve(arena, border=1), whole[:, :, 1:-1, 1:-1])
        sliced = slot.slice(1, 2)  # shares the root's border, whenever that is decided
        assert sliced.storage_shape == (1, 2, 7, 7)
        np.testing.assert_array_equal(sliced.resolve(arena, border=1), whole[:, 1:2, 1:-1, 1:-1])

    def test_concat_turns_unread_sources_into_slices_of_one_buffer(self):
        b = PlanBuilder((1, 3, 8, 8))
        a = b.conv2d(INPUT, Conv2D(3, 2, kernel_size=3, padding=1))
        up, skip = b.conv2d(a, Conv2D(2, 4, kernel_size=3, padding=1)), b.conv2d(a, Conv2D(2, 3, kernel_size=3, padding=1))
        merged = b.concat(up, skip)
        assert merged.shape == (1, 7, 8, 8)
        assert (up.root, up.channels, skip.root, skip.channels) == (merged, (0, 4), merged, (4, 7))
        with pytest.raises(ValueError, match="no convolution has read"):
            b.concat(a, b.conv2d(a, Conv2D(2, 1, kernel_size=1)))  # a's border is decided
        with pytest.raises(ValueError, match="no convolution has read"):
            b.concat(INPUT, b.conv2d(a, Conv2D(2, 1, kernel_size=1)))
        with pytest.raises(ValueError, match="cannot concat"):
            b.concat(b.maxpool(merged, 2), b.conv2d(a, Conv2D(2, 1, kernel_size=1)))


class TestLivenessPacking:
    @staticmethod
    def _chain(convs: int):
        """INPUT -> ``convs`` 3×3 same-padding convolutions -> pointwise head -> softmax."""
        b = PlanBuilder((1, 4, 16, 16))
        slots, x = [], INPUT
        for i in range(convs):
            x = b.conv2d(x, Conv2D(4, 4, kernel_size=3, padding=1, seed=i), relu=True)
            slots.append(x)
        b.softmax_output(b.conv2d(x, Conv2D(4, 2, kernel_size=1, seed=99)))
        return b, slots

    def test_a_chain_needs_two_buffers_however_long_it_is(self):
        short, long = self._chain(3)[0].finalize(), self._chain(9)[0].finalize()
        assert long.arena_nbytes == short.arena_nbytes

    def test_source_and_destination_of_a_step_never_alias(self):
        b, slots = self._chain(4)
        b.finalize()
        buffer = 4 * 18 * 18  # 4 channels of 16 + 2×1 border
        for src, dst in zip(slots, slots[1:]):
            assert abs(src.offset - dst.offset) >= buffer
        assert slots[0].offset == slots[2].offset  # dead by the time the third conv writes

    def test_only_borders_that_share_bytes_are_rezeroed(self):
        b = PlanBuilder((1, 4, 16, 16))  # input copy -> conv -> softmax: both buffers live at the conv
        b.softmax_output(b.conv2d(INPUT, Conv2D(4, 2, kernel_size=3, padding=1)))
        plan = b.finalize()
        assert not any(isinstance(step, _BorderStep) for step in plan._steps)
        assert plan.arena_nbytes >= 4 * (4 * 18 * 18 + 2 * 16 * 16)
        b, slots = self._chain(4)
        plan = b.finalize()
        rezeroed = [step.writes[0] for step in plan._steps if isinstance(step, _BorderStep)]
        assert set(slots[:3]) <= set(rezeroed) and slots[3] not in rezeroed


class TestPlanCache:
    def test_miss_compiles_then_hits(self):
        compiled: list[tuple] = []

        def compile_fn(shape):
            compiled.append(shape)
            return _FakePlan(shape)

        cache = PlanCache(compile_fn, max_plans=4)
        a = cache.get((1, 3, 8, 8))
        b = cache.get((1, 3, 8, 8))
        assert a is b and compiled == [(1, 3, 8, 8)]
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["plans"] == 1
        assert info["arena_bytes"] == 128

    def test_lru_eviction_order(self):
        cache = PlanCache(_FakePlan, max_plans=2)
        s1, s2, s3 = (1, 3, 8, 8), (2, 3, 8, 8), (4, 3, 8, 8)
        cache.get(s1)
        cache.get(s2)
        cache.get(s1)  # s1 is now most recent: s2 must be the eviction victim
        cache.get(s3)
        assert cache.shapes() == [s1, s3]
        assert cache.info()["evictions"] == 1
        # Re-requesting the evicted shape recompiles (a miss, not a hit).
        before = cache.info()["misses"]
        cache.get(s2)
        assert cache.info()["misses"] == before + 1

    def test_clear_drops_plans(self):
        cache = PlanCache(_FakePlan, max_plans=4)
        cache.get((1, 3, 8, 8))
        cache.clear()
        assert len(cache) == 0
        cache.get((1, 3, 8, 8))
        assert cache.info()["misses"] == 2

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="max_plans"):
            PlanCache(_FakePlan, max_plans=0)

    def test_concurrent_gets_build_one_plan_per_shape(self):
        compiled: list[tuple] = []
        lock = threading.Lock()

        def compile_fn(shape):
            with lock:
                compiled.append(shape)
            return _FakePlan(shape)

        cache = PlanCache(compile_fn, max_plans=8)
        shapes = [(n, 3, 8, 8) for n in (1, 2, 4)] * 8
        results: dict[tuple, list] = {shape: [] for shape in shapes}
        threads = [threading.Thread(target=lambda s=s: results[s].append(cache.get(s))) for s in shapes]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # One compile per distinct shape, and every caller got the same object.
        assert sorted(compiled) == sorted(set(shapes))
        for shape, plans in results.items():
            assert all(p is plans[0] for p in plans)

"""The shared-memory leak probe counts this process tree's segments, not another test run's."""

from __future__ import annotations

import os

import pytest
from leaks import shm_segments

from repro.backend.store import SEGMENT_PREFIX


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="POSIX shared memory lives in /dev/shm on Linux only")
@pytest.mark.skipif(os.getpid() == 1, reason="pid 1 must be a live process outside this one's tree")
def test_segments_of_a_live_foreign_process_are_not_counted():
    ours = f"{SEGMENT_PREFIX}{os.getpid():x}_0_probe"
    foreign = f"{SEGMENT_PREFIX}1_0_probe"  # pid 1 (init) is alive and never below a test run
    paths = [os.path.join("/dev/shm", name) for name in (ours, foreign)]
    try:
        for path in paths:
            open(path, "wb").close()
        found = shm_segments()
        assert ours in found
        assert foreign not in found
    finally:
        for path in paths:
            if os.path.exists(path):
                os.unlink(path)

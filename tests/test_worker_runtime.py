"""The worker-process runtime on its own (no model, no backend, no trainer).

Everything the fork backend relies on the runtime for (the elastic
trainer's ranks are residents on its workers): typed errors with the child still serving, deadlines that kill, EOF
that marks dead, a stop that cannot wedge, metric deltas that
arrive exactly once, and pipes that EOF when the parent is SIGKILLed.
"""

from __future__ import annotations

import ast
import functools
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import available_backends
from leaks import gone
from repro.backend import BackendError, WorkerLost, WorkerProcess
from repro.backend.worker import Reply, serve
from repro.obs import get_registry

pytestmark = pytest.mark.skipif(
    "fork" not in available_backends(), reason="fork start method unavailable"
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _echo(value):
    return value


def _boom():
    raise ValueError("bad input")


def _count(amount):
    get_registry().counter("repro_test_runtime_events_total", "runtime test counter").inc(amount)


def _timed(value):
    return Reply(value, compute_ms=12.5, trace_id="tid-7")


def _main(conn, inherited, cleanup_marker=None):
    def cleanup():
        if cleanup_marker is not None:
            Path(cleanup_marker).write_text("clean")

    serve(conn, inherited, {
        "echo": _echo, "boom": _boom, "count": _count, "timed": _timed,
        "sleep": time.sleep, "unpicklable": lambda: (lambda: None),
    }, cleanup)


@pytest.fixture()
def worker():
    proc = WorkerProcess(_main)
    yield proc
    proc.stop()
    assert not proc.process.is_alive()


class TestRoundTrip:
    def test_echo_ping_and_meta(self, worker):
        assert worker.call("echo", {"a": [1, 2, 3]}) == {"a": [1, 2, 3]}
        assert worker.call("ping", timeout=5.0) == worker.process.pid
        assert worker.last_meta["pid"] == worker.process.pid
        assert worker.call("timed", 3) == 3
        assert worker.last_meta["compute_ms"] == 12.5
        assert worker.last_meta["trace_id"] == "tid-7"

    def test_handler_exception_is_typed_and_worker_keeps_serving(self, worker):
        with pytest.raises(BackendError, match="'boom' failed: ValueError: bad input") as excinfo:
            worker.call("boom")
        assert not isinstance(excinfo.value, WorkerLost)
        with pytest.raises(BackendError, match="unknown op 'nope'"):
            worker.call("nope")
        with pytest.raises(BackendError, match="'unpicklable' failed"):
            worker.call("unpicklable")
        assert worker.alive
        assert worker.call("echo", 7) == 7

    def test_send_all_then_recv_all(self):
        first = WorkerProcess(_main)
        second = WorkerProcess(_main, siblings=[first])
        try:
            for tag, proc in enumerate((first, second)):
                proc.send("echo", tag)
            assert [proc.recv(5.0) for proc in (first, second)] == [0, 1]
        finally:
            first.stop()
            second.stop()


class TestLoss:
    def test_missed_deadline_kills_the_child(self, worker):
        pid = worker.process.pid
        start = time.monotonic()
        worker.send("sleep", 600.0)
        with pytest.raises(WorkerLost, match="hung.*killed"):
            worker.recv(0.3)
        assert time.monotonic() - start < 5.0
        assert worker.dead and not worker.alive
        assert not worker.process.is_alive()
        assert worker.process.exitcode == -signal.SIGKILL
        with pytest.raises(WorkerLost):  # and it stays lost
            worker.call("echo", 1)
        assert worker.process.pid == pid

    def test_sigkilled_child_is_lost_on_the_next_call(self, worker):
        os.kill(worker.process.pid, signal.SIGKILL)
        worker.process.join(5.0)
        with pytest.raises(WorkerLost, match="died"):
            worker.call("echo", 1, timeout=5.0)
        assert worker.dead

    def test_stop_returns_within_its_timeout_behind_a_hung_child(self):
        proc = WorkerProcess(_main)
        proc.send("sleep", 600.0)
        start = time.monotonic()
        proc.stop(timeout=0.3)
        assert time.monotonic() - start < 3.0
        assert not proc.process.is_alive()

    def test_cleanup_runs_on_stop_and_on_parent_eof(self, tmp_path):
        for how in ("stop", "eof"):
            marker = tmp_path / how
            proc = WorkerProcess(functools.partial(_main, cleanup_marker=str(marker)))
            assert proc.call("echo", 1) == 1
            if how == "stop":
                proc.stop()
            else:
                proc.conn.close()
                proc.process.join(5.0)
            assert not proc.process.is_alive()
            assert marker.read_text() == "clean"


class TestMetricsPiggyback:
    def test_child_counter_reaches_the_parent_exactly_once(self, worker):
        counter = get_registry().counter("repro_test_runtime_events_total", "runtime test counter")
        counter.inc(100.0)  # pre-fork parent counts must not be re-reported by the child
        fresh = WorkerProcess(_main, siblings=[worker])
        try:
            before = counter.value()
            fresh.call("count", 2.0)
            fresh.call("count", 3.0)
            assert counter.value() == before + 5.0
            fresh.call("ping")
            fresh.call("echo", 0)
            assert counter.value() == before + 5.0
            assert "metrics" not in fresh.last_meta
        finally:
            fresh.stop()


_ORPHAN_SCRIPT = """
import time
from repro.backend.worker import WorkerProcess, serve

def main(conn, inherited):
    serve(conn, inherited, {})

workers = []
for _ in range(3):
    workers.append(WorkerProcess(main, siblings=workers))
print(" ".join(str(w.process.pid) for w in workers), flush=True)
time.sleep(600)
"""


def test_sigkilled_parent_leaves_no_worker_alive():
    """Every child closes the parent-side pipe ends it inherited, so when the
    parent is SIGKILLed each pipe EOFs and each worker exits — no orphan is
    kept alive by a sibling holding its pipe open."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    parent = subprocess.Popen([sys.executable, "-c", _ORPHAN_SCRIPT], env=env,
                              stdout=subprocess.PIPE, text=True)
    try:
        pids = [int(token) for token in parent.stdout.readline().split()]
        assert len(pids) == 3 and not any(gone(pid) for pid in pids)
    finally:
        parent.kill()
        parent.wait(10.0)
        parent.stdout.close()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and not all(gone(pid) for pid in pids):
        time.sleep(0.05)
    orphans = [pid for pid in pids if not gone(pid)]
    for pid in orphans:  # do not let a failure of this test leak them
        os.kill(pid, signal.SIGKILL)
    assert not orphans, f"orphaned workers: {orphans}"


# One runtime, structurally: a second fork/pipe/metrics loop cannot creep back
# in under src/repro without one of these patterns appearing in a new file.
_ONLY_IN = {
    r"\.Process\(": {"backend/worker.py"},
    r"\.Pipe\(": {"backend/worker.py"},
    r"resource_tracker\.ensure_running": {"backend/worker.py"},
    r"registry\(\)\.reset\(\)|\.drain\(\)|\.merge\(": {"backend/worker.py"},
    r"start_method": set(),
}


@pytest.mark.parametrize("pattern", sorted(_ONLY_IN))
def test_there_is_one_worker_runtime(pattern):
    root = SRC / "repro"
    found = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if "obs" not in path.relative_to(root).parts and re.search(pattern, path.read_text())
    }
    assert found == _ONLY_IN[pattern]


def test_only_the_backend_forks_workers():
    """The trainer's ranks are residents on the fork backend's workers: no module outside ``backend/``
    builds a ``WorkerProcess``, and the trainer imports nothing of the worker runtime."""
    root = SRC / "repro"
    builders = {path.relative_to(root).as_posix() for path in root.rglob("*.py")
                if re.search(r"WorkerProcess\(", path.read_text())}
    assert builders and all(path.startswith("backend/") for path in builders), builders
    tree = ast.parse((root / "distributed" / "elastic.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [node.module for node in imports if node.module.endswith("worker")]
    runtime = {"worker", "WorkerProcess", "WorkerLost", "Reply", "serve"}
    assert not [alias.name for node in imports for alias in node.names if alias.name in runtime]


def test_there_is_one_path_per_job():
    """Predictions reach a model only through a backend's store entry (which alone
    builds a compiled engine, besides the profiler), the ``nn`` layers have no
    engine switch, and there is no second auto-label runner."""
    root = SRC / "repro"

    def callers(pattern):
        return {path.relative_to(root).as_posix() for path in root.rglob("*.py")
                if re.search(pattern, path.read_text())}

    assert callers(r"(?<!def )predict_batch_probabilities\(") == {"backend/base.py"}
    assert callers(r"CompiledUNet\(") == {"backend/base.py", "obs/profile.py"}
    for layers in ("nn/conv.py", "nn/layers.py"):
        assert not re.search(r"\bengine\b", (root / layers).read_text()), layers
    assert not (root / "parallel").exists()


def test_there_is_one_training_loop():
    """A gradient is computed and applied in one module: the second trainer is gone,
    and what is left of it is an oracle under ``tests/``."""
    root = SRC / "repro"
    steppers = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if re.search(r"(loss_fn|model|master)\.backward\(|optimizer\.step\(\)", path.read_text())
    }
    assert steppers == {"distributed/elastic.py"}
    assert not (root / "unet" / "trainer.py").exists()
    import repro.unet

    assert not [name for name in repro.unet.__all__ if name.endswith("Trainer")]

"""The worker-process runtime: one forked child behind one duplex pipe.

A fork backend worker is a forked child that answers requests over a pipe;
whatever it holds — an attached model, an elastic-trainer replica — is a
resident the backend published to it.  This module is that child, once, and
:mod:`repro.backend.process` is its only owner.  The contract the backend
relies on and never re-implements:

* **Every wait is bounded.**  :meth:`WorkerProcess.recv` takes a timeout;
  :meth:`WorkerProcess.stop` polls for the acknowledgement instead of
  blocking on it, so shutdown cannot wedge behind a hung child.
* **Silence means kill.**  A child that misses a reply deadline is
  SIGKILLed on the spot and reported as :class:`WorkerLost`; so is one
  whose pipe hits EOF.  What to do next (respawn the slot, retry the op)
  is the backend's policy, not the runtime's.
* **Errors are typed.**  An exception inside a handler comes back as
  :class:`~repro.backend.base.BackendError` carrying ``"Type: message"``;
  the child keeps serving.
* **Metrics piggyback.**  Every reply carries the child's pid and whatever
  metric deltas it accumulated since its last reply; :meth:`recv` merges
  them into the parent registry on the thread that owns the reply, so the
  metrics hot path never takes a cross-process lock.

Children are always forked: fault budgets, the shared-memory tracker and
whatever the caller put in module state before the fork (the auto-label
job registers its tile stack there) are inherited, never pickled.  What a
request carries is pickled: ``Backend.map`` sends each chunk of items
through the pipe, so the job's map over the inherited stack sends spans.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from multiprocessing import resource_tracker
from typing import Callable, Mapping, Sequence

from ..obs.metrics import get_registry
from ..obs.trace import record as _trace_record
from .base import BackendError

__all__ = ["Reply", "WorkerLost", "WorkerProcess", "serve"]


class WorkerLost(BackendError):
    """The worker crashed, hit EOF or missed a reply deadline (and was killed)."""


class Reply:
    """A handler result that adds fields (``compute_ms``, ``trace_id``) to the reply meta."""

    __slots__ = ("payload", "meta")

    def __init__(self, payload=None, **meta) -> None:
        self.payload = payload
        self.meta = meta


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #
class WorkerProcess:
    """Parent-side handle of one forked worker.

    ``target(conn, inherited, *args)`` runs in the child and is expected to
    build its state and then call :func:`serve` with the same ``conn`` and
    ``inherited``.  ``siblings`` are the workers forked earlier by the same
    owner: the child inherits the parent's end of each of their pipes and
    must close them, or a sibling holding the fd open keeps ``recv()`` from
    ever seeing EOF after the parent dies — orphans that pin the
    shared-memory segments forever.
    """

    def __init__(self, target: Callable, siblings: Sequence["WorkerProcess"] = ()) -> None:
        # The tracker must run *before* the fork so the child inherits its
        # fd; otherwise a child's first shared-memory attach spawns a private
        # tracker whose cache never sees the parent's unlink.
        resource_tracker.ensure_running()
        ctx = mp.get_context("fork")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        inherited = tuple(s.conn for s in siblings) + (self.conn,)
        self.process = ctx.Process(target=target, args=(child_conn, inherited), daemon=True)
        self.process.start()
        child_conn.close()
        self.dead = False
        #: meta of the most recent reply (pid, trace-id echo, compute time) —
        #: an observability peek, not part of the data path
        self.last_meta: dict | None = None

    @property
    def alive(self) -> bool:
        return not self.dead and self.process.is_alive()

    def send(self, *msg) -> None:
        """Post one ``(op, *args)`` request; a broken pipe is a lost worker."""
        try:
            self.conn.send(msg)
        except OSError as exc:
            self.kill()
            raise WorkerLost(
                f"worker (pid {self.process.pid}) died before {msg[0]!r}: {exc!r}"
            ) from exc

    def recv(self, timeout: float | None = None):
        """One reply's payload, waiting at most ``timeout`` seconds (``None`` = forever)."""
        try:
            if timeout is not None and not self.conn.poll(timeout):
                self.kill()
                raise WorkerLost(
                    f"worker (pid {self.process.pid}) hung: no reply within "
                    f"{timeout:.1f}s; killed"
                )
            status, payload, meta = self.conn.recv()
        except (EOFError, OSError) as exc:
            self.kill()
            raise WorkerLost(f"worker (pid {self.process.pid}) died: {exc!r}") from exc
        self.last_meta = meta
        drained = meta.get("metrics")
        if drained:
            get_registry().merge(drained)
        compute_ms = meta.get("compute_ms")
        if compute_ms is not None:
            _trace_record("compute_ms", compute_ms)
        if status != "ok":
            raise BackendError(payload)
        return payload

    def call(self, *msg, timeout: float | None = None):
        """One request/response round trip."""
        self.send(*msg)
        return self.recv(timeout)

    def kill(self) -> None:
        """SIGKILL the child (its state is re-creatable by whoever owns the slot)."""
        self.dead = True
        if self.process.is_alive():
            self.process.kill()
        self.process.join(1.0)
        self.conn.close()

    def stop(self, timeout: float = 2.0) -> None:
        """Ask the child to exit; kill it if it has not within ``timeout``."""
        if self.alive:
            try:
                self.conn.send(("stop",))
                if self.conn.poll(timeout):
                    self.conn.recv()
            except (EOFError, OSError):
                pass
        self.process.join(timeout)
        self.kill()


# ---------------------------------------------------------------------- #
# Child side
# ---------------------------------------------------------------------- #
def serve(conn, inherited: Sequence, handlers: Mapping[str, Callable],
          cleanup: Callable[[], None] | None = None) -> None:
    """Blocking request loop of one worker (runs in the child until stop/EOF).

    ``handlers[op](*args)`` answers an ``(op, *args)`` request; ``stop`` and
    ``ping`` (→ pid) are built in.  ``cleanup`` runs when the loop ends,
    however it ends.
    """
    for end in inherited:
        end.close()
    # The fork cloned the parent's metric cells; zero them, or every count
    # the parent accumulated before the fork is double-reported by this
    # child's first drained delta.
    registry = get_registry()
    registry.reset()
    pid = os.getpid()
    try:
        while True:
            try:
                op, *args = conn.recv()
            except (EOFError, OSError):
                break
            meta = {"pid": pid}
            try:
                if op in ("stop", "ping"):
                    result = pid
                elif op in handlers:
                    result = handlers[op](*args)
                else:
                    raise LookupError(f"unknown op {op!r}")
                if isinstance(result, Reply):
                    meta.update(result.meta)
                    result = result.payload
                reply = ("ok", result)
            except Exception as exc:  # report, keep serving
                reply = ("err", f"worker task {op!r} failed: {type(exc).__name__}: {exc}")
            drained = registry.drain()
            if drained:
                meta["metrics"] = drained
            try:
                conn.send(reply + (meta,))
            except OSError:  # the parent is gone
                break
            except Exception as exc:  # the result would not pickle; nothing was written
                conn.send(("err", f"worker task {op!r} failed: {type(exc).__name__}: {exc}", meta))
            if op == "stop":
                break
    finally:
        if cleanup is not None:
            cleanup()
        conn.close()

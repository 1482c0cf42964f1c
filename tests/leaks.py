"""The leak probe shared by the backend / chaos / drain suites and the session-end check."""

from __future__ import annotations

import os

from repro.backend.store import SEGMENT_PREFIX


def _creator(name: str) -> int | None:
    """The pid a segment name carries (the hex after the prefix), or ``None`` if it carries none."""
    try:
        return int(name[len(SEGMENT_PREFIX):].split("_", 1)[0], 16)
    except ValueError:
        return None


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # signal 0: an existence check, nothing is sent
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _process_tree(root: int) -> set[int]:
    """``root`` and every live process below it, from the parent pid in each ``/proc/<pid>/stat``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                parent = int(stat.read().rsplit(")", 1)[1].split()[1])  # "pid (comm) state ppid ..."
        except (OSError, IndexError, ValueError):  # exited while we looked
            continue
        children.setdefault(parent, []).append(int(entry))
    tree, stack = set(), [root]
    while stack:
        pid = stack.pop()
        tree.add(pid)
        stack.extend(children.get(pid, ()))
    return tree


def shm_segments() -> set[str]:
    """Names of the ``repro_ms_*`` shared-memory segments in ``/dev/shm`` that this process may have leaked.

    A segment counts if the pid in its name is this process, one of its descendants, or no longer
    alive (nobody can unlink it any more); one a live process outside this tree made -- another test
    run sharing ``/dev/shm`` -- is that process's business.  A name without a pid counts.
    """
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    names = {name for name in os.listdir("/dev/shm") if name.startswith(SEGMENT_PREFIX)}
    if not names:
        return names
    tree = _process_tree(os.getpid())
    return {name for name in names if (pid := _creator(name)) is None or pid <= 0 or pid in tree or not _alive(pid)}

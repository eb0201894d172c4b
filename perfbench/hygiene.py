"""Process hygiene for the live workload, read from ``/proc``.

The live backend spawns worker processes, and the spawn context starts a
``multiprocessing`` resource tracker beside them.  ``LiveJob.shutdown()``
joins the workers but leaves the tracker running, so once the benchmark
exits it would be orphaned.  These helpers find every descendant of the
benchmark process, read worker peak RSS while the workers are alive, stop
the tracker, and kill (and count) anything still alive after a round.
"""

from __future__ import annotations

import gc
import os
import signal
import threading

WORKER_MARK = "spawn_main"


def _parents() -> dict[int, int]:
    """pid -> parent pid for every visible process."""
    table: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # "pid (comm) state ppid ...": comm may hold spaces or ")".
        fields = stat[stat.rfind(")") + 2:].split()
        table[int(entry)] = int(fields[1])
    return table


def descendants(root: int | None = None) -> list[int]:
    """Pids of every live descendant of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for pid, ppid in _parents().items():
        children.setdefault(ppid, []).append(pid)
    found: list[int] = []
    stack = [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            found.append(child)
            stack.append(child)
    return found


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def peak_rss_mb(pid: int) -> float:
    """A process's peak resident set (``VmHWM``) in MB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def worker_peak_rss_mb() -> list[float]:
    """Peak RSS of each live worker process (spawned by multiprocessing)."""
    return [peak_rss_mb(pid) for pid in descendants()
            if WORKER_MARK in cmdline(pid)]


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker this process started.

    Queue feeder threads hold the queues' semaphores until they exit,
    so they are joined and the queues collected first; a semaphore
    still alive when the tracker stops would be reported leaked and
    unlinked under its owner.  ``_stop`` closes the tracker's pipe (it
    exits on EOF) and waits for it.  The tracker restarts on its own
    the next time it is needed."""
    from multiprocessing import resource_tracker
    for thread in threading.enumerate():
        if thread.name == "QueueFeederThread":
            thread.join(timeout=10)
    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def reap_leftovers() -> list[str]:
    """Kill and reap every descendant still alive; returns a description
    of each one found (an empty list is the healthy outcome)."""
    found = []
    for pid in descendants():
        found.append(f"{pid}: {cmdline(pid) or '?'}")
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
    for pid in descendants():
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # a grandchild: its own parent was killed and reaps it
    return found

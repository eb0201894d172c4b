"""Outside-in layer tracer: spans around the public functions of each layer.

The tracer wraps public methods of the program's classes from outside
(nothing in ``src/`` knows about it) and records one span per call:
name, start, end and the enclosing span on the same thread.  Spans are
kept in flat per-thread arrays while the round runs and analysed after
it: a span's self time is its duration minus the time its child spans
cover.  A call that re-enters the same layer (``put_many`` calling
``put``) is not a new layer boundary and records no span.

Only the traced run installs the wrappers; :meth:`Tracer.uninstall`
puts every original back.
"""

from __future__ import annotations

import threading
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: Span name -> layer.  Nested calls within one layer record no span.
SPANS = {
    "simulator.run": "simulator",
    "simulator.net_send": "network",
    "transport.send": "transport",
    "transport.on_message": "transport",
    "engine.processor": "engine",
    "engine.master": "engine",
    "engine.ingester": "engine",
    "store.write": "store",
    "store.read": "store",
    "program.gather": "program",
    "program.scatter": "program",
    "live.unpickle": "pickle",
    "live.pickle": "pickle",
    "live.converge": "live",
    "live.finalize": "live",
}
NAMES = list(SPANS)
CODE = {name: code for code, name in enumerate(NAMES)}


class _Buffer:
    """One thread's spans as parallel arrays.  ``value`` carries a
    per-span number: bytes for pickling, 1/0 for gathers that did or did
    not change the vertex value."""

    def __init__(self) -> None:
        self.name = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.stack: list[int] = []


@dataclass
class Spans:
    """All spans of a traced round, merged across threads."""

    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    value: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration minus the time covered by direct children (children
        of one span run one after another on its thread)."""
        covered = np.zeros(len(self.name))
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent],
                  self.duration[has_parent])
        return self.duration - covered

    def by_name(self) -> dict[str, dict[str, float]]:
        """name -> calls, total seconds, self seconds, summed value."""
        self_time = self.self_time()
        out = {}
        for code, name in enumerate(NAMES):
            mask = self.name == code
            out[name] = {"calls": int(mask.sum()),
                         "total_s": float(self.duration[mask].sum()),
                         "self_s": float(self_time[mask].sum()),
                         "value": float(self.value[mask].sum())}
        return out


class Tracer:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def _wrap(self, name: str, fn: Callable[..., Any],
              value_of: Callable[[Any, tuple], float] | None = None
              ) -> Callable[..., Any]:
        code = CODE[name]
        layer = SPANS[name]
        buffer_of = self._buffer
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            buffer = buffer_of()
            stack = buffer.stack
            if stack and SPANS[NAMES[buffer.name[stack[-1]]]] == layer:
                return fn(*args, **kwargs)
            index = len(buffer.name)
            buffer.name.append(code)
            buffer.parent.append(stack[-1] if stack else -1)
            buffer.value.append(0.0)
            buffer.end.append(0.0)
            stack.append(index)
            buffer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buffer.end[index] = clock()
                stack.pop()
            if value_of is not None:
                buffer.value[index] = value_of(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, cls: type, attr: str, name: str,
               value_of: Callable[[Any, tuple], float] | None = None
               ) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            bound = getattr(cls, attr)
            traced = self._wrap(name, bound, value_of)
            setattr(cls, attr, classmethod(
                lambda _cls, *args, **kwargs: traced(*args, **kwargs)))
        elif isinstance(raw, staticmethod) or not hasattr(raw, "__get__"):
            setattr(cls, attr, staticmethod(
                self._wrap(name, getattr(cls, attr), value_of)))
        else:
            setattr(cls, attr, self._wrap(name, raw, value_of))
        self._patched.append((cls, attr, raw))

    # --------------------------------------------------------- installation
    def install(self, program_class: type) -> None:
        """Wrap every layer's public entry points (see the README's map)."""
        from multiprocessing.reduction import ForkingPickler

        from repro.core.ingester import Ingester
        from repro.core.master import Master
        from repro.core.processor import Processor
        from repro.core.transport import ReliableEndpoint
        from repro.live.job import LiveJob
        from repro.simulator import Network, Simulator
        from repro.storage import VersionedStore

        self._patch(Simulator, "run", "simulator.run")
        self._patch(Simulator, "run_until", "simulator.run")
        self._patch(Network, "send", "simulator.net_send")
        self._patch(ReliableEndpoint, "send", "transport.send")
        self._patch(ReliableEndpoint, "on_message", "transport.on_message")
        self._patch(Processor, "handle", "engine.processor")
        self._patch(Master, "handle", "engine.master")
        self._patch(Ingester, "handle", "engine.ingester")
        for attr in sorted(VersionedStore.__dict__):
            if attr.startswith("put"):
                self._patch(VersionedStore, attr, "store.write")
            elif attr.startswith(("get", "snapshot")):
                self._patch(VersionedStore, attr, "store.read")
        self._patch(program_class, "gather", "program.gather",
                    lambda changed, _args: 1.0 if changed else 0.0)
        self._patch(program_class, "scatter", "program.scatter")
        self._patch(ForkingPickler, "loads", "live.unpickle",
                    lambda _obj, args: float(len(args[0])))
        self._patch(ForkingPickler, "dumps", "live.pickle",
                    lambda buf, _args: float(len(buf)))
        self._patch(LiveJob, "run_until_converged", "live.converge")
        self._patch(LiveJob, "finalize", "live.finalize")

    def uninstall(self) -> None:
        for cls, attr, raw in reversed(self._patched):
            setattr(cls, attr, raw)
        self._patched.clear()

    # ------------------------------------------------------------- analysis
    def collect(self) -> Spans:
        """Merge and clear every thread's spans (parents re-indexed)."""
        with self._lock:
            buffers, self._buffers = self._buffers, []
        self._local = threading.local()
        parts, offset = [], 0
        for buffer in buffers:
            parent = np.frombuffer(buffer.parent, dtype=np.int64).copy()
            parent[parent >= 0] += offset
            parts.append((np.frombuffer(buffer.name, dtype=np.int8),
                          parent,
                          np.frombuffer(buffer.start, dtype=np.float64),
                          np.frombuffer(buffer.end, dtype=np.float64),
                          np.frombuffer(buffer.value, dtype=np.float64)))
            offset += len(buffer.name)
        if not parts:
            empty = np.zeros(0)
            return Spans(empty.astype(np.int8), empty.astype(np.int64),
                         empty, empty, empty)
        return Spans(*(np.concatenate(column).copy()
                       for column in zip(*parts)))


def save(spans: Spans, path: str) -> None:
    """Write a round's spans (compressed numpy arrays plus the name
    table) for analysis after the run."""
    np.savez_compressed(path, names=np.array(NAMES), name=spans.name,
                        parent=spans.parent, start=spans.start,
                        end=spans.end, value=spans.value)

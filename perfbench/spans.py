"""In-memory span tracer and the wrappers that feed it.

A span is one call of a wrapped function: name, start, end, parent span,
thread and run id.  Every span is folded into per-name aggregates
(calls, total time, self time) as it closes, so the per-layer table is
exact however many calls a run makes.  Only the first ``keep`` spans are
also stored verbatim for the Chrome trace-event file; the file records
how many were left out.

Wrappers are installed with :class:`Patcher`, which remembers what it
replaced and puts it back on :meth:`Patcher.restore`, so code that runs
outside a traced region is the program's own, unwrapped code.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

#: Attribute set on every wrapper; tests use it to prove code is unwrapped.
WRAPPED_MARKER = "__perfbench_wrapped__"


class Tracer:
    """Collects spans from any number of threads."""

    #: Spans stored verbatim for the trace file (the rest are only counted).
    keep = 50_000

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: name -> [calls, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        #: (name, start_ns, end_ns, parent_index, tid, request_id)
        self.spans: list[tuple] = []
        #: Event counts observed at span boundaries (e.g. arbiter wins).
        self.counts: dict[str, int] = {}
        self.dropped = 0
        self.origin_ns = time.perf_counter_ns()
        self._stacks: dict[int, list[list]] = {}
        self._lock = threading.Lock()
        self._index = itertools.count()

    # -- recording ---------------------------------------------------

    def enter(self, name: str, request_id: str | None = None) -> list:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        index = next(self._index)
        parent = stack[-1][3] if stack else -1
        if request_id is None and stack:
            request_id = stack[-1][5]
        # [name, start_ns, child_ns, index, parent_index, request_id, tid]
        frame = [name, time.perf_counter_ns(), 0, index, parent, request_id, tid]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stacks[frame[6]]
        stack.pop()
        name, start, child_ns, index, parent, request_id, tid = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0, 0, 0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_ns
            if len(self.spans) < self.keep:
                self.spans.append((name, start, end, index, parent, tid, request_id))
            else:
                self.dropped += 1

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, request_id: str | None = None):
        """Context manager recording one span around a ``with`` block."""
        return _SpanContext(self, name, request_id)

    # -- reading -----------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e9

    def self_table(self) -> list[dict]:
        """Per-name rows sorted by self time, largest first."""
        rows = [
            {
                "name": name,
                "calls": calls,
                "total_s": total / 1e9,
                "self_s": self_ns / 1e9,
            }
            for name, (calls, total, self_ns) in self.stats.items()
        ]
        rows.sort(key=lambda row: row["self_s"], reverse=True)
        return rows

    def trace_events(self, pid: int, label: str) -> list[dict]:
        """Chrome trace-event ``X`` records (microseconds since origin)."""
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": label},
            }
        ]
        for name, start, end, index, parent, tid, request_id in self.spans:
            args = {"span": index, "parent": parent, "run_id": self.run_id}
            if request_id is not None:
                args["request_id"] = request_id
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (start - self.origin_ns) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "pid": pid,
                    "tid": tid % 1_000_000,
                    "args": args,
                }
            )
        return events


class _SpanContext:
    __slots__ = ("tracer", "name", "request_id", "frame")

    def __init__(self, tracer: Tracer, name: str, request_id: str | None) -> None:
        self.tracer = tracer
        self.name = name
        self.request_id = request_id

    def __enter__(self):
        self.frame = self.tracer.enter(self.name, self.request_id)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.frame)


def write_chrome_trace(path, events: list[dict], metadata: dict) -> None:
    """Write a Perfetto-loadable trace-event JSON file."""
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata},
            handle,
        )


def _wrap(tracer: Tracer, name: str, fn, observe=None):
    enter = tracer.enter
    exit_ = tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(frame)
        if observe is not None:
            observe(args, result)
        return result

    setattr(wrapper, WRAPPED_MARKER, fn)
    return wrapper


def _defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


class Patcher:
    """Installs span wrappers on classes and modules, and removes them.

    Methods are wrapped on the class that defines them, once, so a check
    such as ``type(x).method is Base.method`` answers as it does
    unwrapped, and a method shared by several subclasses gets one span.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self._done: set[tuple[int, str]] = set()

    def method(self, cls: type, attr: str, name: str, observe=None) -> None:
        owner = _defining_class(cls, attr)
        if (id(owner), attr) in self._done:
            return
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrap(self.tracer, name, raw.__func__, observe))
        else:
            wrapped = _wrap(self.tracer, name, raw, observe)
        self._install(owner, attr, raw, wrapped)

    def function(self, modules, attr: str, name: str, observe=None) -> None:
        """Wrap a module-level function in every module that binds it."""
        wrapper = None
        for module in modules:
            raw = getattr(module, attr)
            if wrapper is None:
                wrapper = _wrap(self.tracer, name, raw, observe)
            self._install(module, attr, raw, wrapper)

    def _install(self, owner, attr: str, raw, wrapped) -> None:
        self._saved.append((owner, attr, raw))
        self._done.add((id(owner), attr))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        self._done.clear()

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

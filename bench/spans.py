"""In-memory span recorder for the traced benchmark run, and its arithmetic.

The recorder wraps module attributes that the program calls through and
records one span per call: its name, wall-clock start and end, the CPU time
its thread spent inside it, its thread and its parent (the innermost open
span on the same thread).  Spans live in per-thread typed arrays, so a run
with a million stem calls stays a few tens of megabytes.

A span's busy time is that CPU time: with worker threads, wall time inside a
span also counts the time the thread waited for the interpreter lock while
another thread ran.  A span's self time is its busy time minus the busy time
of its children; those run on its own thread, one after another, so they
never overlap.  Work on worker threads forms its own trees: a span there has
no parent on the thread that submitted it, and busy time summed over threads
may exceed wall time when threads run at once.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np


class _ThreadLog:
    __slots__ = ("thread", "names", "starts", "ends", "cpu", "parents", "open")

    def __init__(self, thread: int):
        self.thread = thread
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.cpu = array("d")
        self.parents = array("q")
        self.open: list[int] = []


@dataclass
class Spans:
    """Recorded spans as parallel arrays; ``parent`` indexes these arrays, -1 for a root."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    cpu: np.ndarray
    thread: np.ndarray
    parent: np.ndarray


class SpanRecorder:
    """Records spans around wrapped callables; ``restore`` undoes every patch."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.names: list[str] = []
        self.distinct: dict[str, set] = {}
        self.absent: list[str] = []
        self._logs: list[_ThreadLog] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(self, fn, name: str, keyed: bool = False):
        """``fn`` recording a ``name`` span per call.

        With ``keyed``, the distinct first arguments of the calls are collected too.
        """
        name_id = len(self.names)
        self.names.append(name)
        keys = self.distinct.setdefault(name, set()) if keyed else None
        clock, cpu_clock, thread_log = self.clock, self.cpu_clock, self._log

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(args[0] if args else None)
            log = thread_log()
            index = len(log.names)
            log.names.append(name_id)
            log.parents.append(log.open[-1] if log.open else -1)
            log.ends.append(0.0)
            log.open.append(index)
            log.starts.append(clock())
            log.cpu.append(cpu_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                log.cpu[index] = cpu_clock() - log.cpu[index]
                log.ends[index] = clock()
                log.open.pop()

        return traced

    def patch(self, owner, attr: str, name: str, keyed: bool = False) -> None:
        """Replace ``owner.attr`` with a traced wrapper; record a missing one as absent."""
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, keyed))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self) -> Spans:
        cols: list[list[np.ndarray]] = [[], [], [], [], [], []]
        offset = 0
        for log in self._logs:
            parent = np.array(log.parents, dtype=np.int64)
            parent[parent >= 0] += offset
            for col, values in zip(cols, (np.array(log.names, dtype=np.int64),
                                          np.array(log.starts), np.array(log.ends),
                                          np.array(log.cpu),
                                          np.full(len(log.names), log.thread, dtype=np.int64),
                                          parent)):
                col.append(values)
            offset += len(log.names)
        return Spans(list(self.names),
                     *(np.concatenate(col) if col else np.zeros(0, dtype=np.int64) for col in cols))


def self_times(spans: Spans) -> np.ndarray:
    """Each span's busy time minus the summed busy time of its children."""
    child = spans.parent >= 0
    covered = np.bincount(spans.parent[child], weights=spans.cpu[child],
                          minlength=len(spans.cpu))
    return spans.cpu - covered


def union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    """Length of the union of the intervals [start, end]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: Spans) -> dict[str, dict]:
    """Per span name: calls; busy, self and wall time summed over threads; active window."""
    own = self_times(spans)
    duration = spans.end - spans.start
    out = {}
    for name_id, name in enumerate(spans.names):
        mask = spans.name == name_id
        calls = int(mask.sum())
        out[name] = {
            "calls": calls,
            "busy_s": float(spans.cpu[mask].sum()),
            "self_s": float(own[mask].sum()),
            "wall_s": float(duration[mask].sum()),
            "window_s": float(spans.end[mask].max() - spans.start[mask].min()) if calls else 0.0,
        }
    return out


def root_coverage(spans: Spans, wall_s: float) -> float:
    """Share of ``wall_s`` during which at least one root span was open."""
    roots = spans.parent < 0
    return union_length(spans.start[roots], spans.end[roots]) / wall_s

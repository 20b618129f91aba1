"""Compact recorded traces of program runs.

A :class:`Trace` stores an event stream in columnar numpy arrays so the
several analyses that need the same run (call-loop profiling, interval
splitting, BBV collection, cache simulation) can each replay it cheaply
instead of re-executing the program.

Packed encoding (kind, a, b, c):

========  ==========  ===========  ==========
kind      a           b            c
========  ==========  ===========  ==========
K_BLOCK   block_id    address      size
K_BRANCH  address     target       taken(0/1)
K_CALL    site_addr   callee_id    0
K_RETURN  proc_id     0            0
========  ==========  ===========  ==========

Two recording paths produce the same columnar form:

* the **object path** — :meth:`Trace.from_events` consumes the event
  objects yielded by :meth:`Machine.run`; retained as the reference the
  fast path is differentially verified against (``repro verify``'s
  ``trace-pipeline`` check);
* the **fast path** — :meth:`Machine.record`, which records row ids
  through compiled row templates (:mod:`repro.engine.recorder`) and
  builds the columns with one ``take`` each, allocating no per-event
  objects.

A trace can also carry its **span index** (``opens``): where every
call-loop edge opens, as :class:`repro.callloop.spans.EdgeOpens`.  The
profile's span-builder pass attaches it, the trace store spills it with
the columns, and the VLI split gathers marker firings from it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.engine.events import (
    K_BLOCK,
    K_BRANCH,
    K_CALL,
    K_RETURN,
    BlockEvent,
    BranchEvent,
    CallEvent,
    ReturnEvent,
)
from repro.telemetry import get_telemetry

#: default rows per chunk of :meth:`Trace.iter_chunks` (the streaming feed)
DEFAULT_CHUNK_ROWS = 4096


def packed_rows(events: Iterable[object]) -> Iterator[Tuple[int, int, int, int]]:
    """Map event objects to packed ``(kind, a, b, c)`` rows, lazily: the
    event-to-row mapping :meth:`Trace.from_events` records through."""
    for ev in events:
        t = type(ev)
        if t is BlockEvent:
            yield (K_BLOCK, ev.block_id, ev.address, ev.size)
        elif t is BranchEvent:
            yield (K_BRANCH, ev.address, ev.target, 1 if ev.taken else 0)
        elif t is CallEvent:
            yield (K_CALL, ev.site_address, ev.callee_id, 0)
        elif t is ReturnEvent:
            yield (K_RETURN, ev.proc_id, 0, 0)
        else:
            raise TypeError(f"unknown event {t.__name__}")


class Trace:
    """A recorded run: columnar event storage plus summary statistics.

    ``opens`` is the span index (:class:`repro.callloop.spans.EdgeOpens`),
    the reason the span builder declined the trace, or ``None`` until
    one is built (:func:`repro.callloop.spans.index_trace`).  A new
    ``Trace`` over existing columns starts without one.
    """

    def __init__(self, kinds: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray):
        if not (len(kinds) == len(a) == len(b) == len(c)):
            raise ValueError("column length mismatch")
        self.kinds = kinds
        self.a = a
        self.b = b
        self.c = c
        self.opens = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[object]) -> "Trace":
        kinds, a, b, c = [], [], [], []
        for kind, x, y, z in packed_rows(events):
            kinds.append(kind)
            a.append(x)
            b.append(y)
            c.append(z)
        return cls(
            np.asarray(kinds, dtype=np.int8),
            np.asarray(a, dtype=np.int64),
            np.asarray(b, dtype=np.int64),
            np.asarray(c, dtype=np.int64),
        )

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def total_instructions(self) -> int:
        """Total dynamic instructions (sum of block sizes)."""
        mask = self.kinds == K_BLOCK
        return int(self.c[mask].sum())

    @property
    def num_block_events(self) -> int:
        return int((self.kinds == K_BLOCK).sum())

    def block_ids(self) -> np.ndarray:
        """Executed block ids in order."""
        mask = self.kinds == K_BLOCK
        return self.a[mask]

    def block_sizes(self) -> np.ndarray:
        """Sizes of the executed blocks, aligned with :meth:`block_ids`."""
        mask = self.kinds == K_BLOCK
        return self.c[mask]

    def replay(self) -> Iterator[object]:
        """Yield the recorded events as event objects."""
        kinds, a, b, c = self.kinds, self.a, self.b, self.c
        for i in range(len(kinds)):
            k = kinds[i]
            if k == K_BLOCK:
                yield BlockEvent(int(a[i]), int(b[i]), int(c[i]))
            elif k == K_BRANCH:
                yield BranchEvent(int(a[i]), int(b[i]), bool(c[i]))
            elif k == K_CALL:
                yield CallEvent(int(a[i]), int(b[i]))
            else:
                yield ReturnEvent(int(a[i]))

    def iter_packed(self) -> Iterator[Tuple[int, int, int, int]]:
        """Yield packed (kind, a, b, c) tuples — the fast replay path."""
        return zip(
            self.kinds.tolist(), self.a.tolist(), self.b.tolist(), self.c.tolist()
        )

    def iter_chunks(
        self, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(kinds, a, b, c)`` column views of at most
        *chunk_rows* rows each — the incremental feed used by the
        streaming profiler, so recording and streaming share one
        packed-row chunk representation (the views alias the trace's
        columns; no copies)."""
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        n = len(self.kinds)
        for start in range(0, n, chunk_rows):
            stop = min(start + chunk_rows, n)
            yield (
                self.kinds[start:stop],
                self.a[start:stop],
                self.b[start:stop],
                self.c[start:stop],
            )

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Persist the trace to a compressed ``.npz`` file.

        Profiling is the expensive step of the pipeline; saved traces let
        analyses run offline (the profile-once / analyze-many workflow of
        the paper's ATOM tooling).
        """
        np.savez_compressed(
            path, kinds=self.kinds, a=self.a, b=self.b, c=self.c
        )

    @classmethod
    def load(cls, path) -> "Trace":
        """Load a trace saved with :meth:`save`."""
        with np.load(path) as data:
            return cls(data["kinds"], data["a"], data["b"], data["c"])


def record_trace(source) -> Trace:
    """Record a run into a :class:`Trace`.

    *source* is either an event iterable (the object path, e.g.
    ``Machine(...).run()`` or a hand-built event list) or a
    :class:`~repro.engine.machine.Machine` instance — the latter takes
    the fast path (:meth:`Machine.record`).  Both paths produce
    bit-identical traces (the ``trace-pipeline`` verify check).  Under
    telemetry the fast path counts its loop entries by recorder path
    (``engine.record.loops.tiled`` / ``.drawn`` / ``.per_iteration``).
    """
    from repro.engine.machine import Machine

    tm = get_telemetry()
    fast = isinstance(source, Machine)
    if not tm.enabled:
        return source.record() if fast else Trace.from_events(source)
    with tm.span("engine.record_trace", recorder="rows" if fast else "objects"):
        if fast:
            trace = source.record()
            for path, entries in source.loop_entries.items():
                tm.counter(f"engine.record.loops.{path}", entries)
        else:
            trace = Trace.from_events(source)
        tm.counter("engine.trace.events", len(trace))
        tm.counter("engine.trace.instructions", trace.total_instructions)
    return trace

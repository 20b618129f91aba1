"""Compact recorded traces of program runs.

A :class:`Trace` stores an event stream compactly so the several
analyses that need the same run (call-loop profiling, interval
splitting, BBV collection, cache simulation) can each replay it cheaply
instead of re-executing the program.

Every row of a run is one of its program's few *static rows* — a block,
a back-edge taken or exited, an arm's branch, a call, a return — so a
trace is a narrow column of row ids (``ids``: int16 when the table has
at most 32,767 rows, else int32) over a static row table (``table``:
one ``(kind, a, b, c)`` int64 row per id) in the packed encoding:

========  ==========  ===========  ==========
kind      a           b            c
========  ==========  ===========  ==========
K_BLOCK   block_id    address      size
K_BRANCH  address     target       taken(0/1)
K_CALL    site_addr   callee_id    0
K_RETURN  proc_id     0            0
========  ==========  ===========  ==========

The columns ``kinds`` (int8), ``a``, ``b`` and ``c`` (int64) are derived
from the two on each access, one ``take`` each, and not kept; the
record, profile and BBV stages read the ids and the table directly.

Two recording paths produce the same rows:

* the **object path** — :meth:`Trace.from_events` consumes the event
  objects yielded by :meth:`Machine.run` and numbers their distinct rows
  with one ``np.unique``; retained as the reference the fast path is
  differentially verified against (``repro verify``'s ``trace-pipeline``
  check, which compares the derived columns);
* the **fast path** — :meth:`Machine.record`, which records row ids
  through compiled row templates (:mod:`repro.engine.recorder`) and
  returns them with the recorder's own table, allocating no per-event
  objects.

A trace can also carry its **span index** (``opens``): where every
call-loop edge opens, as :class:`repro.callloop.spans.EdgeOpens`.  The
profile's span-builder pass attaches it, the trace store spills it with
the ids and the table, and the VLI split gathers marker firings from it.
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


def id_dtype(table_rows: int):
    """The id dtype of a table with *table_rows* rows: int16 up to
    32,767 rows, else int32."""
    return np.int16 if table_rows <= np.iinfo(np.int16).max else np.int32


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


def _derived(column: np.ndarray) -> np.ndarray:
    """A derived column, read-only: writing to it could not change the
    trace it came from."""
    column.flags.writeable = False
    return column


class Trace:
    """A recorded run: row ids over a static row table.

    *ids* is a one-dimensional integer array indexing *table*, an
    ``(rows, 4)`` int64 array of ``(kind, a, b, c)``.  The ids are
    trusted to lie in the table; the trace store checks them when it
    maps an entry back.

    ``opens`` is the span index (:class:`repro.callloop.spans.EdgeOpens`),
    the reason the span builder declined the trace, or ``None`` until
    one is built (:func:`repro.callloop.spans.index_trace`).  A new
    ``Trace`` over existing ids starts without one.
    """

    def __init__(self, ids: np.ndarray, table: np.ndarray):
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ValueError(
                f"row ids must be one integer column, got {ids.dtype} {ids.shape}"
            )
        if table.ndim != 2 or table.shape[1] != 4 or table.dtype != np.int64:
            raise ValueError(
                f"row table must be (rows, 4) int64, got {table.dtype} {table.shape}"
            )
        self.ids = ids
        self.table = table
        self.opens = None

    # -- construction --------------------------------------------------------

    @classmethod
    def _from_rows(cls, rows: np.ndarray) -> "Trace":
        """The trace of an ``(n, 4)`` int64 array of packed rows: its
        table is their distinct rows, ascending, and its ids each row's
        place there."""
        table, ids = np.unique(rows, axis=0, return_inverse=True)
        return cls(ids.reshape(-1).astype(id_dtype(len(table))), table)

    @classmethod
    def from_columns(cls, kinds, a, b, c) -> "Trace":
        """The trace of four equal-length columns (kinds, a, b, c)."""
        if not (len(kinds) == len(a) == len(b) == len(c)):
            raise ValueError("column length mismatch")
        return cls._from_rows(np.stack([kinds, a, b, c], axis=1).astype(np.int64))

    @classmethod
    def from_events(cls, events: Iterable[object]) -> "Trace":
        rows = np.array(list(packed_rows(events)), dtype=np.int64)
        return cls._from_rows(rows.reshape(-1, 4))

    # -- derived columns -----------------------------------------------------

    @property
    def kinds(self) -> np.ndarray:
        """Each row's kind (int8)."""
        return _derived(self.table[:, 0].astype(np.int8).take(self.ids))

    @property
    def a(self) -> np.ndarray:
        return _derived(self.table[:, 1].take(self.ids))

    @property
    def b(self) -> np.ndarray:
        return _derived(self.table[:, 2].take(self.ids))

    @property
    def c(self) -> np.ndarray:
        return _derived(self.table[:, 3].take(self.ids))

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

    def _id_counts(self) -> np.ndarray:
        """How many rows of the trace each table row is."""
        return np.bincount(self.ids, minlength=len(self.table))

    @property
    def total_instructions(self) -> int:
        """Total dynamic instructions (sum of block sizes)."""
        table = self.table
        sizes = np.where(table[:, 0] == K_BLOCK, table[:, 3], 0)
        return int(self._id_counts() @ sizes)

    @property
    def num_block_events(self) -> int:
        return int(self._id_counts()[self.table[:, 0] == K_BLOCK].sum())

    def _block_column(self, j: int) -> np.ndarray:
        """Column *j* of the block rows, in order."""
        is_block = self.table[:, 0] == K_BLOCK
        return self.table[:, j].take(self.ids[is_block.take(self.ids)])

    def block_ids(self) -> np.ndarray:
        """Executed block ids in order."""
        return self._block_column(1)

    def block_sizes(self) -> np.ndarray:
        """Sizes of the executed blocks, aligned with :meth:`block_ids`."""
        return self._block_column(3)

    def replay(self) -> Iterator[object]:
        """Yield the recorded events as event objects."""
        for k, a, b, c in self.iter_packed():
            if k == K_BLOCK:
                yield BlockEvent(a, b, c)
            elif k == K_BRANCH:
                yield BranchEvent(a, b, bool(c))
            elif k == K_CALL:
                yield CallEvent(a, b)
            else:
                yield ReturnEvent(a)

    def iter_packed(self) -> Iterator[Tuple[int, int, int, int]]:
        """Yield packed (kind, a, b, c) tuples — the fast replay path."""
        rows = [tuple(row) for row in self.table.tolist()]
        return map(rows.__getitem__, self.ids.tolist())

    def iter_chunks(
        self, chunk_rows: int = DEFAULT_CHUNK_ROWS
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(kinds, a, b, c)`` columns of at most *chunk_rows*
        rows each — the incremental feed used by the streaming profiler.
        Each chunk is derived from its ids with one ``take`` per column,
        so the feed never holds more than one chunk's columns."""
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        table = self.table
        kinds = table[:, 0].astype(np.int8)
        a, b, c = (np.ascontiguousarray(table[:, j]) for j in (1, 2, 3))
        for start in range(0, len(self.ids), chunk_rows):
            ids = self.ids[start : start + chunk_rows]
            yield kinds.take(ids), a.take(ids), b.take(ids), c.take(ids)


def record_trace(source) -> Trace:
    """Record a run into a :class:`Trace`.

    *source* is either an event iterable (the object path, e.g.
    ``Machine(...).run()`` or a hand-built event list) or a
    :class:`~repro.engine.machine.Machine` instance — the latter takes
    the fast path (:meth:`Machine.record`).  Both paths produce traces
    with bit-identical derived columns (the ``trace-pipeline`` verify
    check); their tables may number the rows differently.  Under
    telemetry the fast path counts its loop entries by recorder path
    (``engine.record.loops.tiled`` / ``.drawn`` / ``.per_iteration``)
    and each per-iteration entry by the reason its loop took that path
    (``engine.record.loops.per_iteration.<reason>``).
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
            for reason, entries in source.per_iteration.items():
                if entries:
                    tm.counter(f"engine.record.loops.per_iteration.{reason}", entries)
        else:
            trace = Trace.from_events(source)
        tm.counter("engine.trace.events", len(trace))
        tm.counter("engine.trace.instructions", trace.total_instructions)
    return trace

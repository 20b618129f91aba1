"""Push-based incremental shadow-stack walking of a live event stream.

A live stream has no end until the producer says so, so it cannot be
handed to :meth:`~repro.callloop.walker.ContextWalker.walk` as one
trace.  :class:`IncrementalWalker` is a
:class:`~repro.callloop.walker.ContextWalker` started at construction:
packed rows arrive through :meth:`~repro.callloop.walker.ContextWalker.feed`
/ :meth:`~repro.callloop.walker.ContextWalker.feed_rows` (the same
``(kind, a, b, c)`` column representation a recorded
:class:`~repro.engine.tracing.Trace` stores and
:meth:`~repro.engine.tracing.Trace.iter_chunks` serves, so recording and
streaming share one column format), and the unwind happens only on
:meth:`~repro.callloop.walker.ContextWalker.finish`.  Each chunk takes
the batch walker's bulk row loop or its scalar loop, chosen per chunk.

Callback-for-callback equivalence with the batch walker's scalar loop —
same ``on_edge_open`` / ``on_edge_close`` sequence, same row cursor,
same total — is pinned by the ``streaming`` verify check on every fuzz
iteration (:func:`repro.verify.diff.diff_streaming`), for a block
observer and an edge-only handler alike.
"""

from __future__ import annotations

from typing import Optional

from repro.callloop.graph import NodeTable
from repro.callloop.walker import ContextHandler, ContextWalker
from repro.ir.program import Program


class IncrementalWalker(ContextWalker):
    """Consumes packed rows one chunk at a time, reporting edge spans.

    Construction opens the entry procedure's edges (exactly as the batch
    walker does before its first row); each ``feed`` processes one
    packed row; ``finish`` unwinds whatever is still active and returns
    the total dynamic instruction count.  A finished walker rejects
    further rows.

    The handler contract is :class:`~repro.callloop.walker.ContextHandler`;
    ``walker.row`` is the row currently being processed, mirroring the
    batch walker's cursor, and ``walker.iter_rows`` holds the absolute
    rows of a batched back-edge run during ``on_edge_iterations``.
    """

    def __init__(
        self,
        program: Program,
        table: Optional[NodeTable] = None,
        handler: Optional[ContextHandler] = None,
    ):
        super().__init__(program, table or NodeTable(program))
        self.start(handler if handler is not None else ContextHandler())

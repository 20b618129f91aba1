"""Streaming phase detection: incremental profiling over live streams.

The batch pipeline records a complete trace, profiles it, selects
markers, and only then can a monitor apply them.  This package collapses
that into a single online pass with bounded memory (ROADMAP item 1):

* :class:`IncrementalWalker` — the batch shadow-stack walker, started
  at construction; packed rows in, edge-span callbacks out, O(1) per
  event.
* :class:`StreamingWindow` — a bounded sliding window of per-slot exact
  edge moments; associativity makes any windowed merge bit-consistent.
* :class:`DriftDetector` — per-marker-edge CoV drift against the
  baseline captured at selection time.
* :class:`StreamingPhaseMonitor` — applies the current marker set
  online (same semantics as the batch monitor) and hot-swaps it on
  rolling re-selection.

See ``docs/STREAMING.md`` for the window model, the re-selection
contract, and the batch-equivalence guarantee.
"""

from repro.streaming.drift import DriftDetector
from repro.streaming.monitor import (
    Reselection,
    StreamingConfig,
    StreamingPhaseMonitor,
    stream_trace,
)
from repro.streaming.walker import IncrementalWalker
from repro.streaming.window import StreamingWindow

__all__ = [
    "DriftDetector",
    "IncrementalWalker",
    "Reselection",
    "StreamingConfig",
    "StreamingPhaseMonitor",
    "StreamingWindow",
    "stream_trace",
]

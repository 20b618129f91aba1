"""Streaming phase detection: incremental profiling over live streams.

The batch pipeline records a complete trace, profiles it, selects
markers, and only then can a monitor apply them.  This package collapses
that into a single online pass with bounded memory, pushing packed rows
through the batch shadow-stack walker
(:class:`~repro.callloop.walker.ContextWalker`) one chunk at a time:

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
from repro.streaming.window import StreamingWindow

__all__ = [
    "DriftDetector",
    "Reselection",
    "StreamingConfig",
    "StreamingPhaseMonitor",
    "StreamingWindow",
    "stream_trace",
]

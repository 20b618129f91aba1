"""Phase markers: selected call-loop edges and their runtime matching.

A software phase marker is a call-loop graph edge chosen by the selection
algorithm; executing the corresponding code location (call site, loop
entry, or loop back-edge) signals the start of a new behavior interval.
Marker identity is source-stable (node identities are proc names and loop
source lines), so a :class:`MarkerSet` selected on one binary can be
applied to another compilation of the same source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.callloop.graph import Node, NodeTable
from repro.ir.program import SourceLoc


@dataclass(frozen=True)
class PhaseMarker:
    """One selected marker.

    ``merge_iterations`` > 1 means the marker sits on a loop's head->body
    edge and fires only every Nth iteration (Section 5.2's grouping of
    consecutive loop iterations).  ``forced`` flags markers inserted by the
    max-limit heuristic rather than by the CoV test.
    """

    marker_id: int
    src: Node
    dst: Node
    avg_interval: float
    cov: float
    max_interval: float
    merge_iterations: int = 1
    forced: bool = False
    site_sources: Tuple[SourceLoc, ...] = ()

    @property
    def edge_key(self) -> Tuple[Node, Node]:
        return (self.src, self.dst)

    def describe(self) -> str:
        """Human-readable location, e.g. ``work[body] -> inner[loop-head]``."""
        extra = f" x{self.merge_iterations}" if self.merge_iterations > 1 else ""
        flag = " (forced)" if self.forced else ""
        return f"#{self.marker_id} {self.src} -> {self.dst}{extra}{flag}"


@dataclass
class MarkerSet:
    """All markers selected for one program under one parameterization."""

    program_name: str
    variant: str
    ilower: float
    max_limit: Optional[float]
    markers: List[PhaseMarker] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_edge: Dict[Tuple[Node, Node], PhaseMarker] = {
            m.edge_key: m for m in self.markers
        }
        if len(self._by_edge) != len(self.markers):
            raise ValueError("duplicate markers on the same edge")

    def __len__(self) -> int:
        return len(self.markers)

    def __iter__(self):
        return iter(self.markers)

    def marker_for(self, src: Node, dst: Node) -> Optional[PhaseMarker]:
        return self._by_edge.get((src, dst))

    @property
    def num_phase_ids(self) -> int:
        """Phase ids: one per marker, plus phase 0 for the unmarked prologue."""
        return len(self.markers) + 1

    def describe(self) -> str:
        lines = [
            f"{len(self.markers)} markers for {self.program_name} "
            f"({self.variant}), ilower={self.ilower:g}"
            + (f", max_limit={self.max_limit:g}" if self.max_limit else "")
        ]
        lines.extend("  " + m.describe() for m in self.markers)
        return "\n".join(lines)


class MarkerTracker:
    """Runtime marker matching against walker edge-open notifications.

    Used by the VLI splitter and the cross-binary marker tracer.  The
    tracker resolves markers to the *target* program's node table (which
    may belong to a different compilation than the markers were selected
    on) and implements every-Nth-iteration firing for merged loop markers.
    """

    def __init__(self, marker_set: MarkerSet, table: NodeTable):
        self.marker_set = marker_set
        self.table = table
        self._by_pair: Dict[Tuple[int, int], PhaseMarker] = {}
        self._counters: Dict[Tuple[int, int], int] = {}
        self._reset_on_head: Dict[int, List[Tuple[int, int]]] = {}
        self.unmapped: List[PhaseMarker] = []
        node_index = {node: i for i, node in enumerate(table.nodes)}
        for marker in marker_set:
            src = node_index.get(marker.src)
            dst = node_index.get(marker.dst)
            if src is None or dst is None:
                self.unmapped.append(marker)
                continue
            pair = (src, dst)
            self._by_pair[pair] = marker
            if marker.merge_iterations > 1:
                self._counters[pair] = 0
                # reset the counter whenever the loop is (re-)entered
                self._reset_on_head.setdefault(src, []).append(pair)

    def reset(self) -> None:
        """Zero the merged-iteration counters (fresh-run state).

        Callers that reuse a tracker across independent runs (e.g.
        :meth:`repro.runtime.monitor.PhaseMonitor.run`) call this so a
        merged marker's every-Nth cadence restarts with the stream.
        """
        for pair in self._counters:
            self._counters[pair] = 0

    def watches(self, src: int, dst: int) -> bool:
        """Whether opening edge ``(src, dst)`` can fire a marker or reset
        a merged marker's counter; when not, :meth:`edge_opened` on it
        changes nothing and returns ``None``."""
        return (src, dst) in self._by_pair or dst in self._reset_on_head

    def edge_opened(self, src: int, dst: int) -> Optional[PhaseMarker]:
        """Returns the marker that fires on this edge opening, if any."""
        resets = self._reset_on_head.get(dst)
        if resets is not None:
            for pair in resets:
                self._counters[pair] = 0
        pair = (src, dst)
        marker = self._by_pair.get(pair)
        if marker is None:
            return None
        n = marker.merge_iterations
        if n <= 1:
            return marker
        count = self._counters[pair]
        self._counters[pair] = count + 1
        if count % n == 0:
            return marker
        return None

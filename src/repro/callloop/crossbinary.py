"""Cross-binary phase markers (paper Section 6.2.1 and Figure 4).

Markers are selected on one binary, mapped "back to source code level,
using debug line number information", and applied to a different
compilation of the same source (different optimization level or ISA).
Because our node identities are already source-anchored (procedure names
and loop back-edge source lines), mapping reduces to re-resolving each
marker's nodes against the target binary's discovered structure — exactly
the role debug info plays in the paper — and reporting anything that
"compiled away".

:func:`marker_trace` produces the executed-marker sequence used both for
the Figure 4 time-varying overlay and for the Section 6.2.1 identity
check (the paper verifies the two binaries produce "the exact same number
of phase markers, and the exact same order").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.callloop.graph import NodeTable
from repro.callloop.markers import MarkerSet, PhaseMarker, marker_firings
from repro.engine.machine import Machine
from repro.engine.tracing import Trace, record_trace
from repro.ir.program import Program, ProgramInput


@dataclass
class MappingReport:
    """Result of mapping a marker set onto a target binary."""

    markers: MarkerSet
    mapped: List[PhaseMarker] = field(default_factory=list)
    unmapped: List[PhaseMarker] = field(default_factory=list)

    @property
    def fully_mapped(self) -> bool:
        return not self.unmapped


def map_markers(marker_set: MarkerSet, target: Program) -> MappingReport:
    """Map *marker_set* onto *target* (a recompilation of the same source).

    A marker maps iff both its endpoint nodes exist in the target binary's
    call-loop structure; node identity carries the source anchoring.
    """
    table = NodeTable(target)
    known = set(table.nodes)
    mapped: List[PhaseMarker] = []
    unmapped: List[PhaseMarker] = []
    for marker in marker_set:
        if marker.src in known and marker.dst in known:
            mapped.append(marker)
        else:
            unmapped.append(marker)
    result = MarkerSet(
        program_name=target.name,
        variant=target.variant,
        ilower=marker_set.ilower,
        max_limit=marker_set.max_limit,
        markers=mapped,
    )
    return MappingReport(markers=result, mapped=mapped, unmapped=unmapped)


@dataclass(frozen=True)
class MarkerFiring:
    """One executed marker: which marker, at what instruction count."""

    marker_id: int
    t: int


def marker_trace(
    program: Program,
    program_input: ProgramInput,
    marker_set: MarkerSet,
    trace: Optional[Trace] = None,
    max_instructions: Optional[int] = None,
) -> List[MarkerFiring]:
    """Run (or replay) the program and return the executed-marker
    sequence: :func:`~repro.callloop.markers.marker_firings`, one
    :class:`MarkerFiring` each."""
    if trace is None:
        trace = record_trace(
            Machine(program, program_input, max_instructions=max_instructions)
        )
    _, ts, mids = marker_firings(program, trace, marker_set)
    return [MarkerFiring(m, t) for m, t in zip(mids.tolist(), ts.tolist())]


def traces_identical(
    a: List[MarkerFiring], b: List[MarkerFiring]
) -> bool:
    """Section 6.2.1's check: same markers, same order (counts included).

    Instruction counts are *expected* to differ between binaries; only the
    id sequence must match.
    """
    return [f.marker_id for f in a] == [f.marker_id for f in b]

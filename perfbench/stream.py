"""``stream-drift``: online phase detection starting cold.

A ``StreamingPhaseMonitor`` with no markers, a bounded window and drift
re-selection on consumes seeded ref traces (recorded during setup) chunk
by chunk, as a live stream would deliver them.  One operation is one
chunk fed; its time includes any slot seal or re-selection it set off.

Each stream's re-selection log and phase-change digest are checked
against ``refs/stream.json``, made by feeding the same rows one at a
time through ``StreamingPhaseMonitor.feed``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.callloop import SelectionParams
from repro.engine import Machine
from repro.engine.tracing import DEFAULT_CHUNK_ROWS, record_trace
from repro.streaming import StreamingConfig, StreamingPhaseMonitor
from repro.workloads import get_workload

from perfbench.common import (
    INPUT_CLASSES,
    HostClock,
    Outcome,
    load_refs,
    repeat_passes,
    seeded_input,
    span,
)

NAME = "stream-drift"
IMPORTS = ("repro.streaming", "repro.engine", "repro.workloads")

WORKLOADS = ("art", "bzip2", "gcc", "gzip", "mcf", "vortex")

#: chunks fed between two host-speed probes
CHUNKS_PER_PROBE = 32

CONFIG = StreamingConfig(
    slot_instructions=20_000,
    window_slots=8,
    drift_threshold=0.25,
    selection=SelectionParams(ilower=10_000),
)


def summary(monitor: StreamingPhaseMonitor) -> Dict[str, object]:
    """What a stream is checked on: every re-selection, and a digest of
    the phase-change sequence."""
    changes = [[c.t, c.previous_phase, c.new_phase] for c in monitor.changes]
    return {
        "reselections": [
            [r.t, r.slot, r.num_markers, r.drifted_edges]
            for r in monitor.reselections
        ],
        "phase_changes": len(changes),
        "phase_digest": hashlib.sha256(json.dumps(changes).encode()).hexdigest(),
    }


@dataclass
class State:
    #: (name, program, trace)
    streams: List[Tuple[str, object, object]]
    refs: Dict[str, Dict[str, object]]


def setup(seed: int, only: Optional[List[str]] = None) -> State:
    refs = load_refs("stream.json")
    if refs["input_classes"] != INPUT_CLASSES:
        raise ValueError("stream references were made for another class count")
    streams = []
    for name in only or WORKLOADS:
        wl = get_workload(name)
        program = wl.build()
        trace = record_trace(Machine(program, seeded_input(wl, seed)))
        streams.append((name, program, trace))
    return State(streams, refs["classes"][str(seed % INPUT_CLASSES)])


def teardown(state: State) -> None:
    state.streams.clear()


def _flush(out: Outcome, group: list, scale: float, busy: float, raw: float):
    """Record a group of timed chunks at the host scale measured around
    it; ``None`` keys (the stream's finish) count as work, not chunks."""
    for key, seconds in group:
        if key is not None:
            out.record(key, seconds * scale)
        busy += seconds * scale
        raw += seconds
    group.clear()
    return busy, raw


def measure(
    state: State,
    seconds: Optional[float] = None,
    units: Optional[int] = None,
    tracer=None,
) -> Outcome:
    out = Outcome(op_label=f"chunk of {DEFAULT_CHUNK_ROWS} rows fed")
    clock = HostClock()
    out.host_scales = clock.factors

    def one_pass() -> None:
        instructions, busy, raw = 0, 0.0, 0.0
        for name, program, trace in state.streams:
            with span(tracer, "bench.program", program=name):
                monitor = StreamingPhaseMonitor(program, None, CONFIG)
                clock.probe()
                group = []
                for i, chunk in enumerate(trace.iter_chunks(DEFAULT_CHUNK_ROWS)):
                    t = time.perf_counter()
                    monitor.feed_rows(*chunk)
                    group.append(((name, i), time.perf_counter() - t))
                    if len(group) == CHUNKS_PER_PROBE:
                        busy, raw = _flush(out, group, clock.scale(), busy, raw)
                t = time.perf_counter()
                monitor.finish()
                group.append((None, time.perf_counter() - t))
                busy, raw = _flush(out, group, clock.scale(), busy, raw)
                with span(tracer, "bench.check"):
                    out.check(summary(monitor) == state.refs[name])
            instructions += int(trace.total_instructions)
        out.end_unit(instructions, busy, raw)

    repeat_passes(out, one_pass, seconds, units)
    return out

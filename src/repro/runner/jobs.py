"""Pure, picklable profiling jobs — the unit of parallel fan-out.

A :class:`ProfileJob` names one (workload, input) profile by its
registry spec name, which is all that crosses to a worker.  Running it
builds the program and acquires the profiled trace through
:func:`~repro.runner.traces.acquire_trace` — the trace store's entry
when the job carries a ``trace_root`` and the entry exists, else a
fresh recording, spilled there with its span index — entirely
self-contained, with no shared state, so jobs can run in any process.
Results carry the *serialized* graph (plain dicts and floats), which
crosses the process boundary cheaply and reconstructs exactly (see
:mod:`repro.callloop.serialization`); a spilled trace stays in the
store, where the parent maps it by key.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.callloop.profiler import CallLoopProfiler
from repro.callloop.serialization import graph_to_dict
from repro.runner.traces import TraceStore, acquire_trace
from repro.workloads import get_workload


@dataclass(frozen=True)
class ProfileJob:
    """One (workload, input) call-loop profile to compute.

    ``spec`` is a registry name or "name/input" label; ``which`` selects
    the input ("ref", "train", or an explicit input name).

    ``trace_root`` (optional) is the root directory of a
    :class:`~repro.runner.traces.TraceStore`: the worker reads the
    recording from there, or spills a fresh one there, so the parent
    memory-maps the columns rather than recording the run again.

    ``run_id`` (optional) is the parent session's telemetry run id:
    the worker's local session inherits it, so spans shipped back in
    the result snapshot stitch into one identified run (see
    :meth:`repro.telemetry.Telemetry.merge_snapshot`).  It never
    affects results, only observability.
    """

    spec: str
    which: str = "ref"
    trace_root: Optional[str] = None
    run_id: Optional[str] = field(default=None, compare=False)


@dataclass
class ProfileJobResult:
    """A completed job: the serialized graph plus timing provenance.

    ``telemetry`` carries the worker's session snapshot (spans +
    metrics; see :meth:`repro.telemetry.Telemetry.snapshot`) back across
    the process boundary, so pool workers report their spans through the
    job result and the parent can fold them into its own session.  It is
    ``None`` when the job ran inline under an already-active session
    (the spans were recorded there directly).
    """

    spec: str
    which: str
    graph_data: Dict[str, Any]
    seconds: float
    worker_pid: int
    telemetry: Optional[Dict[str, Any]] = None


def run_profile_job(job: ProfileJob) -> ProfileJobResult:
    """Execute one job start-to-finish (build, acquire the profiled
    trace, serialize).

    This is the worker entry point handed to the process pool; it is a
    module-level function of picklable arguments by design.
    """
    from repro import telemetry

    with telemetry.worker_session(job.run_id) as local:
        tm = telemetry.get_telemetry()
        start = time.perf_counter()
        with tm.span("runner.profile_job", spec=job.spec, which=job.which):
            workload = get_workload(job.spec)
            program = workload.build()
            profiler = CallLoopProfiler(program)
            store = TraceStore(job.trace_root) if job.trace_root is not None else None
            acquire_trace(
                job.spec,
                job.which,
                program,
                workload.input_for(job.which),
                store,
                profiler=profiler,
            )
        seconds = time.perf_counter() - start
    return ProfileJobResult(
        spec=job.spec,
        which=job.which,
        graph_data=graph_to_dict(profiler.graph),
        seconds=seconds,
        worker_pid=os.getpid(),
        telemetry=local.snapshot() if local is not None else None,
    )

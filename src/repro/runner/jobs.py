"""Pure, picklable profiling jobs — the unit of parallel fan-out.

A :class:`ProfileJob` names one (workload, input) profile; running it
builds the program, executes it, and folds the trace into a call-loop
graph — entirely self-contained, with no shared state, so jobs can run
in any process.  Results carry the *serialized* graph (plain dicts and
floats), which crosses the process boundary cheaply and reconstructs
exactly (see :mod:`repro.callloop.serialization`).

Jobs normally reference a workload by its registry spec name, which is
trivially picklable.  An ad-hoc :class:`~repro.workloads.base.Workload`
object can be attached instead, but then the whole object must survive
pickling; :func:`ensure_picklable` turns the otherwise-baffling pickle
traceback into a :class:`UnpicklableJobError` that says which job is the
problem and what to do about it.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.callloop.profiler import CallLoopProfiler
from repro.callloop.serialization import graph_to_dict
from repro.engine.machine import Machine
from repro.engine.tracing import record_trace
from repro.runner.traces import TraceHandle, TraceStore
from repro.workloads import get_workload
from repro.workloads.base import Workload


class UnpicklableJobError(TypeError):
    """A profile job cannot be sent to a worker process."""


@dataclass(frozen=True)
class ProfileJob:
    """One (workload, input) call-loop profile to compute.

    ``spec`` is a registry name or "name/input" label; ``which`` selects
    the input ("ref", "train", or an explicit input name).  ``workload``
    optionally bypasses the registry with an ad-hoc workload object —
    which must then be picklable to run in a worker process.

    ``trace_root`` (optional) is the root directory of a
    :class:`~repro.runner.traces.TraceStore`: the worker spills the
    recorded trace there and the result carries a
    :class:`~repro.runner.traces.TraceHandle` instead of the trace
    itself, so the parent memory-maps the columns rather than having
    them pickled back through the pool's result pipe.

    ``run_id`` (optional) is the parent session's telemetry run id:
    the worker's local session inherits it, so spans shipped back in
    the result snapshot stitch into one identified run (see
    :meth:`repro.telemetry.Telemetry.merge_snapshot`).  It never
    affects results, only observability.
    """

    spec: str
    which: str = "ref"
    workload: Optional[Workload] = field(default=None, compare=False)
    trace_root: Optional[str] = None
    run_id: Optional[str] = field(default=None, compare=False)

    def resolve_workload(self) -> Workload:
        return self.workload if self.workload is not None else get_workload(self.spec)


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
    #: where the worker spilled the recorded trace (set iff the job
    #: carried a ``trace_root``); load with ``trace_handle.load()``
    trace_handle: Optional["TraceHandle"] = None


def run_profile_job(job: ProfileJob) -> ProfileJobResult:
    """Execute one job start-to-finish (build, run, profile, serialize).

    This is the worker entry point handed to the process pool; it is a
    module-level function of picklable arguments by design.
    """
    from repro import telemetry

    with telemetry.worker_session(job.run_id) as local:
        tm = telemetry.get_telemetry()
        start = time.perf_counter()
        trace_handle: Optional[TraceHandle] = None
        with tm.span("runner.profile_job", spec=job.spec, which=job.which):
            workload = job.resolve_workload()
            program = workload.build()
            program_input = workload.input_for(job.which)
            trace = None
            store = None
            if job.trace_root is not None:
                store = TraceStore(job.trace_root)
                key = store.trace_key(job.spec, job.which, program_input)
                trace = store.load(key)
            if trace is None:
                trace = record_trace(Machine(program, program_input))
            profiler = CallLoopProfiler(program)
            profiler.profile_trace(trace)
            if store is not None:
                # a fresh recording spills with the span index the
                # profile attached; a stored one reuses its entry
                trace_handle = store.store(key, trace, program)
        seconds = time.perf_counter() - start
    return ProfileJobResult(
        spec=job.spec,
        which=job.which,
        graph_data=graph_to_dict(profiler.graph),
        seconds=seconds,
        worker_pid=os.getpid(),
        telemetry=local.snapshot() if local is not None else None,
        trace_handle=trace_handle,
    )


def ensure_picklable(job: ProfileJob) -> None:
    """Raise :class:`UnpicklableJobError` if *job* cannot cross to a worker.

    Checked *before* submission so the failure names the job and the fix
    instead of surfacing as a pickle traceback from inside the pool.
    """
    try:
        pickle.dumps(job)
    except Exception as exc:
        name = job.workload.name if job.workload is not None else job.spec
        raise UnpicklableJobError(
            f"profile job for workload {name!r} (input {job.which!r}) cannot be "
            f"sent to a worker process: {exc}. Parallel profiling pickles each "
            "job; pass a registered workload spec name (see `repro list`) "
            "instead of an ad-hoc workload object, or run serially with jobs=1."
        ) from exc

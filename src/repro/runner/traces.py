"""Shared-memory trace handoff: spilled row-id traces + mmap loads.

A recorded :class:`~repro.engine.tracing.Trace` of a long run is a
column of row ids over a small static row table.  Pickling it across a
process pool copies every byte through the pipe twice; holding many of
them in the runner's memo keeps the whole suite's traces resident.  The
trace store fixes both by spilling each trace to its own
content-addressed directory: a pool worker spills its recording, and
the parent finds the entry by the same key.  Loading an entry
memory-maps the ids (``np.load(mmap_mode="r")``), so replaying processes
share the page cache instead of private heap copies, and the OS can
evict cold trace pages under pressure.  :func:`acquire_trace` is the one
rule by which the experiments Runner, profile jobs and serving get a
trace: a store hit, else a fresh recording, profiled first when a
profile is wanted, then spilled with its span index and mapped back.

The mapped arrays are read-only and never remapped, which also makes
them safe for *concurrent* readers: pool workers and serving workers
replaying the same trace share one set of mapped pages without any
copies or locks.  See ``docs/PARALLELISM.md`` for the full concurrency
model.

Layout mirrors :class:`~repro.runner.cache.ProfileCache`: two-level
fan-out directories keyed by a SHA-256 fingerprint, atomic writes via a
temp directory + ``rename``, and anything corrupt counting as a miss.
An entry holds:

* ``ids.npy`` — the row ids (int16, or int32 past 32,767 table rows),
  memory-mapped on load;
* ``table.npy`` — the ``(rows, 4)`` int64 static row table, read whole;
* the trace's span index (:class:`~repro.callloop.spans.EdgeOpens`): its
  ``open_rows.npy``, ``open_ts.npy``, ``open_runs.npy`` and
  ``open_resets.npy`` arrays, mapped like the ids;
* ``opens.json`` with the row count, the instruction total and each
  edge's node identities and range of runs — or, for a trace the span
  builder declines, its reason.

So an entry maps at most five ``.npy`` files.  A load checks that the
table has four int64 columns and that every id lies in it, so a
truncated or mismatched file is a miss, never a wrong row; past that
check, a split of a stored trace reads the marked edges' opens and no
row id.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

from repro.callloop.serialization import node_from_dict, node_to_dict
from repro.callloop.spans import EdgeOpens, index_trace
from repro.engine import tracing
from repro.engine.machine import Machine
from repro.engine.tracing import Trace
from repro.ir.program import Program, ProgramInput
from repro.telemetry import get_telemetry

#: bump to invalidate every spilled trace after a format change
TRACE_SCHEMA_VERSION = 3

_OPEN_ARRAYS = ("rows", "ts", "runs", "resets")
_INDEX = "opens.json"


def _write(directory: str, trace: Trace) -> None:
    """Every file of *trace*'s entry, into *directory*."""
    opens = trace.opens
    # np.save writes uncompressed .npy — mmap-able on load
    np.save(os.path.join(directory, "ids.npy"), trace.ids)
    np.save(os.path.join(directory, "table.npy"), trace.table)
    doc: dict = {"rows": len(trace)}
    if isinstance(opens, str):
        doc["declined"] = opens
    else:
        nodes: dict = {}
        edges = [
            [nodes.setdefault(src, len(nodes)), nodes.setdefault(dst, len(nodes)), lo, hi]
            for (src, dst), (lo, hi) in opens.edges.items()
        ]
        doc.update(
            total=opens.total, nodes=[node_to_dict(n) for n in nodes], edges=edges
        )
        for name in _OPEN_ARRAYS:
            np.save(os.path.join(directory, f"open_{name}.npy"), getattr(opens, name))
    with open(os.path.join(directory, _INDEX), "w") as f:
        json.dump(doc, f)


def _read(path: Path) -> Trace:
    """The trace of the entry at *path*, its ids and span index
    memory-mapped; ``ValueError`` or ``OSError`` when a file is missing,
    truncated or disagrees with the others."""
    try:
        ids = np.load(path / "ids.npy", mmap_mode="r")
        trace = Trace(ids, np.load(path / "table.npy"))
    except EOFError as exc:  # an empty file
        raise ValueError(f"empty trace file in {path}: {exc}") from exc
    if len(ids) and (int(ids.min()) < 0 or int(ids.max()) >= len(trace.table)):
        raise ValueError(f"row ids of {path} fall outside its table")
    try:
        doc = json.loads((path / _INDEX).read_text())
        if doc["rows"] != len(trace):
            raise ValueError(
                f"span index of {path} has {doc['rows']} rows, "
                f"the ids {len(trace)}"
            )
        if "declined" in doc:
            trace.opens = str(doc["declined"])
            return trace
        rows, ts, runs, resets = (
            np.load(path / f"open_{name}.npy", mmap_mode="r") for name in _OPEN_ARRAYS
        )
        n = len(rows)
        if len(ts) != n or runs.ndim != 2 or runs.shape[1] != 2:
            raise ValueError(f"span index arrays of {path} disagree in shape")
        if len(runs) and (runs.min() < 0 or runs.max() > n):
            raise ValueError(f"span index of {path} has a run past its opens")
        nodes = [node_from_dict(d) for d in doc["nodes"]]
        edges = {}
        for src, dst, lo, hi in doc["edges"]:
            if not 0 <= lo < hi <= len(runs):
                raise ValueError(f"span index of {path} has a bad range of runs")
            edges[(nodes[src], nodes[dst])] = (lo, hi)
        trace.opens = EdgeOpens(edges, runs, rows, ts, resets, int(doc["total"]))
    except (KeyError, TypeError, IndexError, EOFError) as exc:
        raise ValueError(f"malformed span index at {path}: {exc!r}") from exc
    return trace


def default_trace_dir() -> Path:
    """``$REPRO_TRACE_DIR``, else a ``traces`` sibling of the profile
    cache location."""
    env = os.environ.get("REPRO_TRACE_DIR")
    if env:
        return Path(env)
    from repro.runner.cache import default_cache_dir

    return default_cache_dir().parent / "traces"


@dataclass(frozen=True)
class TraceHandle:
    """A pointer to a spilled trace, as :meth:`TraceStore.store` returns
    it: the entry's path and row count, a short picklable record;
    :meth:`load` memory-maps the ids back.
    """

    path: str
    rows: int

    def load(self) -> Trace:
        """Map the trace this handle points to, span index included."""
        trace = _read(Path(self.path))
        if len(trace) != self.rows:
            raise ValueError(
                f"spilled trace at {self.path} has {len(trace)} rows, "
                f"handle says {self.rows}"
            )
        tm = get_telemetry()
        if tm.enabled:
            tm.counter("runner.trace.mmap_loads")
            tm.counter("runner.trace.mmap_rows", self.rows)
        return trace


class TraceStore:
    """Content-addressed on-disk store of spilled traces."""

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_trace_dir()
        self.spills = 0
        self.loads = 0

    # -- keys -----------------------------------------------------------------

    def trace_key(
        self,
        workload: str,
        which: str,
        program_input: ProgramInput,
        variant: str = "base",
    ) -> str:
        """Fingerprint of one recorded run (workload, input, variant)."""
        from repro.runner.cache import _code_version

        fields = {
            "kind": "trace",
            "schema": TRACE_SCHEMA_VERSION,
            "code_version": _code_version(),
            "workload": workload,
            "which": which,
            "variant": variant,
            "input": {
                "name": program_input.name,
                "seed": program_input.seed,
                "params": sorted(
                    (str(k), json.dumps(v, sort_keys=True, default=repr))
                    for k, v in program_input.params.items()
                ),
            },
        }
        blob = json.dumps(fields, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def path_for(self, key: str) -> Path:
        """Directory holding the entry for *key* (two-level fan-out)."""
        return self.root / key[:2] / key

    def identity(self, key: str) -> Optional[tuple]:
        """Each entry file's (name, inode, size, mtime in ns), sorted by
        name, or None when there is no entry.  A reader keeping the trace
        it mapped compares this with the identity it took before the
        load: any difference — a file replaced, truncated, added or
        removed — means its mapping may no longer match the disk, and it
        must drop the mapping without reading it."""
        try:
            with os.scandir(self.path_for(key)) as entries:
                files = []
                for entry in entries:
                    st = entry.stat(follow_symlinks=False)
                    files.append((entry.name, st.st_ino, st.st_size, st.st_mtime_ns))
        except OSError:
            return None
        return tuple(sorted(files))

    # -- store / load ---------------------------------------------------------

    def store(self, key: str, trace: Trace, program: Program) -> TraceHandle:
        """Spill *trace*, a recording of *program*, under *key*; returns
        the handle.

        The entry carries the trace's span index: the one a profile
        attached, else one :func:`~repro.callloop.spans.index_trace`
        builds and attaches.  The write is atomic: the ids, the table and
        the index land in a temp directory which is renamed into place, so a
        crash never leaves a partial entry.  An existing entry is reused
        as-is (the store is content-addressed — same key means same
        bytes).
        """
        path = self.path_for(key)
        if path.is_dir():
            return TraceHandle(str(path), len(trace))
        index_trace(program, trace)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = tempfile.mkdtemp(dir=path.parent, suffix=".tmp")
        try:
            _write(tmp, trace)
            try:
                os.replace(tmp, path)
            except OSError:
                # lost a race to a concurrent writer; its entry is equivalent
                shutil.rmtree(tmp, ignore_errors=True)
                if not path.is_dir():
                    raise
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self.spills += 1
        tm = get_telemetry()
        if tm.enabled:
            tm.counter("runner.trace.spills")
            tm.counter("runner.trace.spill_rows", len(trace))
        return TraceHandle(str(path), len(trace))

    def load(self, key: str) -> Optional[Trace]:
        """The spilled trace for *key*, span index included, or None on a
        miss.

        An entry with a missing, corrupt or truncated file — the ids, the
        table or the index — or with an id outside its table counts as a
        miss and is removed so the caller
        re-records and re-spills.
        """
        path = self.path_for(key)
        if not path.is_dir():
            return None
        try:
            trace = _read(path)
        except (ValueError, OSError):
            shutil.rmtree(path, ignore_errors=True)
            return None
        self.loads += 1
        tm = get_telemetry()
        if tm.enabled:
            tm.counter("runner.trace.mmap_loads")
            tm.counter("runner.trace.mmap_rows", len(trace))
        return trace

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> int:
        """Delete every spilled trace; returns the number of entries removed."""
        removed = 0
        if self.root.exists():
            for entry in self.root.glob("*/*"):
                if entry.is_dir():
                    shutil.rmtree(entry, ignore_errors=True)
                    removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceStore({str(self.root)!r}: {self.spills} spills, {self.loads} loads)"


def acquire_trace(
    spec: str,
    which: str,
    program: Program,
    program_input: ProgramInput,
    store: Optional[TraceStore] = None,
    *,
    variant: str = "base",
    profiler=None,
    load: Optional[Callable[[str], Optional[Trace]]] = None,
) -> Trace:
    """The recorded run of *program* (*spec*'s *variant* binary) on
    *program_input* (its input *which*), profiled into *profiler* when
    one is given.

    A trace-store hit is the stored trace, its span index included.
    Otherwise the run is recorded; a profile of the fresh recording runs
    before it spills, so the profile's span-builder pass also builds the
    index the entry stores, and the trace returned is the entry mapped
    back from the store.  *load* reads the store's entry for a key
    (default :meth:`TraceStore.load`); a caller that keeps mapped
    entries across calls passes its own.
    """
    trace = None
    if store is not None:
        key = store.trace_key(spec, which, program_input, variant)
        trace = (load or store.load)(key)
    fresh = trace is None
    if fresh:
        # looked up at call time, so a replaced
        # ``repro.engine.tracing.record_trace`` sees every recording
        trace = tracing.record_trace(Machine(program, program_input))
    if profiler is not None:
        profiler.profile_trace(trace)
    if fresh and store is not None:
        # keep the mapped copy: its pages are shared with every other
        # reader of the entry, and the OS can drop them under pressure
        trace = store.store(key, trace, program).load()
    return trace

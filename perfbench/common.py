"""Shared pieces of the benchmark: outcomes, percentiles, digests, host."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"
#: everything a run writes (results, traces, scratch stores); git-ignored
OUT_DIR = BENCH_DIR / "out"

#: seeded inputs come in this many classes (``seed % INPUT_CLASSES``),
#: each with committed reference digests
INPUT_CLASSES = 8


def nproc() -> int:
    from repro.runner.parallel import available_cpus

    return available_cpus()


def seeded_input(workload, seed: int):
    """The workload's reference input re-seeded for input class
    ``seed % INPUT_CLASSES`` (class 0 is the unmodified ref input)."""
    ref = workload.ref_input
    return ref.with_seed(ref.seed + seed % INPUT_CLASSES)


def span(tracer, name: str, **attrs):
    """A tracer span, or nothing when the run is untraced."""
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


def load_refs(name: str) -> Dict[str, Any]:
    return json.loads((REFS_DIR / name).read_text())


def digest(*arrays, dtype=np.int64) -> str:
    """SHA-256 over the arrays' bytes at a fixed dtype."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return h.hexdigest()


# -- host speed ------------------------------------------------------------------

#: seconds :func:`kernel` takes on the nominal host all times are scaled to
REFERENCE_KERNEL_S = 0.005


def kernel():
    """A fixed piece of interpreter and NumPy work, independent of the
    program under test, whose time tracks the host's current speed."""
    table: Dict[int, int] = {}
    for i in range(15000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
    column = np.arange(50000, dtype=np.int64)
    for _ in range(4):
        column = np.cumsum(column % 977)
    return table, column


class HostClock:
    """Scales measured times to the nominal host.

    A shared host's speed drifts by up to 2x over seconds, far more than
    the changes the benchmark must see.  Every stretch of measured work
    is bracketed by two runs of :func:`kernel`; its time is multiplied by
    ``REFERENCE_KERNEL_S`` over their mean, so drift that slows program
    and kernel alike cancels.  Raw times stay in the result note.
    """

    def __init__(self) -> None:
        kernel()  # first call pays one-time costs
        self.last = self.probe()
        #: every factor handed out, for the result note
        self.factors: List[float] = []

    def probe(self) -> float:
        start = time.perf_counter()
        kernel()
        self.last = time.perf_counter() - start
        return self.last

    def scale(self) -> float:
        """The factor for work done since the previous probe (probes again)."""
        before = self.last
        factor = REFERENCE_KERNEL_S / ((before + self.probe()) / 2)
        self.factors.append(factor)
        return factor


@dataclass
class Outcome:
    """What one measurement of a workload produced."""

    attempted: int = 0
    failed: int = 0
    #: seconds of each run of each operation (program, spec, chunk,
    #: request), keyed by what the operation is; repeats of one key
    #: come from repeated passes over the same input
    ops: Dict[Hashable, List[float]] = field(default_factory=dict)
    #: simulated instructions processed, and the host seconds that took
    #: as measured (unscaled)
    instructions: int = 0
    raw_busy_s: float = 0.0
    #: work units done (passes), so a traced run can repeat exactly them
    units: int = 0
    #: simulated instructions per host second of each unit
    unit_rates: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    #: host-speed factors applied to the times (see HostClock)
    host_scales: List[float] = field(default_factory=list)
    #: per-layer figures only this workload can produce
    layer: Dict[str, float] = field(default_factory=dict)
    #: what an operation is here, for the stated sample count
    op_label: str = "op"

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def record(self, key: Hashable, seconds: float) -> None:
        self.ops.setdefault(key, []).append(seconds)

    def best_op_s(self) -> List[float]:
        """Each operation's fastest run: the minimum of k passes, so a
        slow stretch of a shared host moves the figures less."""
        return [min(times) for times in self.ops.values()]

    def end_unit(self, instructions: int, busy_s: float, raw_busy_s: float) -> None:
        """Close one unit of work that processed *instructions* in
        *busy_s* scaled (*raw_busy_s* measured) host seconds."""
        self.units += 1
        self.instructions += instructions
        self.raw_busy_s += raw_busy_s
        self.unit_rates.append(instructions / busy_s)


def repeat_passes(
    out: Outcome,
    one_pass: Callable[[], None],
    seconds: Optional[float] = None,
    units: Optional[int] = None,
) -> None:
    """Run *one_pass* (which closes one unit of *out*) exactly *units*
    times, or until the next pass would end over half a pass past
    *seconds*; at least once."""
    start = time.perf_counter()
    while True:
        one_pass()
        out.wall_s = time.perf_counter() - start
        if units is not None:
            if out.units >= units:
                return
        elif out.wall_s * (1 + 0.5 / out.units) > seconds:
            return


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``.  Below 20 samples that percentile would not
    reach the median, so the maximum stands in."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def end_to_end(outcome: Outcome, setup_s: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced measurement."""
    import resource

    best = outcome.best_op_s()
    tail_s, _ = tail(best)
    return {
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        # the fastest pass, for the same reason as best_op_s
        "minstr_per_s": max(outcome.unit_rates) / 1e6,
    }


def sample_note(outcome: Outcome) -> Dict[str, Any]:
    _, pct = tail(outcome.best_op_s())
    return {
        "operation": outcome.op_label,
        "samples": len(outcome.ops),
        "runs_per_sample": max(len(t) for t in outcome.ops.values()),
        "tail_percentile": round(pct, 2),
        "units": outcome.units,
        "instructions": outcome.instructions,
        "raw_minstr_per_s": outcome.instructions / outcome.raw_busy_s / 1e6,
        "host_scale_median": statistics.median(outcome.host_scales),
    }


# -- host fingerprint -----------------------------------------------------------


def _git_commit() -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown"
    in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """Identifies the measured code where no git commit is available."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(seed: int) -> Dict[str, Any]:
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "seed": seed,
        "unix_time": int(time.time()),
        "pid": os.getpid(),
    }


def finite(metrics: Dict[str, float]) -> Dict[str, float]:
    """Fail loudly rather than print a NaN/inf the driver cannot read."""
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is {value}")
    return metrics

"""Reuse-distance (locality) phase marker selection — the Shen baseline.

The pipeline, following Shen et al. [ASPLOS'04] as the paper describes it:

1. compute the data reuse-distance trace of a profiling run;
2. wavelet-filter the (log-scaled, windowed) distance signal and flag
   abrupt changes as candidate phase boundaries;
3. run Sequitur over the boundary signature sequence; the grammar's
   compression measures whether the boundaries form a *repeating* pattern
   ("regular" programs compress well, gcc/vortex do not);
4. select basic blocks whose executions correlate with the boundaries
   (high precision: the block rarely executes away from a boundary) as
   the phase markers.

The honest failure mode is part of the reproduction: on irregular
programs the method reports ``structure_found=False`` — the paper's
motivation for code-structure markers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.engine.events import K_BLOCK
from repro.engine.memory import MemorySystem
from repro.engine.tracing import Trace
from repro.intervals.base import IntervalSet
from repro.reuse.distance import bounded_log_distances, reuse_distances
from repro.reuse.sequitur import Grammar
from repro.reuse.wavelet import haar_smooth


@dataclass(frozen=True)
class ReuseMarkerParams:
    """Tuning of the locality phase detector."""

    window: Optional[int] = None  #: accesses per sample (None: auto-size
    #: toward ``target_samples`` samples over the whole run)
    target_samples: int = 512
    smooth_level: int = 2  #: Haar denoising level before detection
    wavelet_level: int = 2  #: Haar scale used for change detection
    z_threshold: float = 2.5  #: robust z-score for an abrupt change
    signature_bins: int = 6  #: quantization levels for the boundary pattern
    #: candidate phase granularities (in samples); like Shen et al.'s
    #: multi-scale wavelet hierarchy, the detector searches scales and
    #: keeps the one whose boundary pattern compresses best
    segment_scales: Tuple[int, ...] = (4, 6, 8, 12, 16)
    min_precision: float = 0.5  #: fraction of a marker block's executions
    #: that must align with detected boundaries
    min_boundaries: int = 4  #: fewer detected boundaries => no structure
    min_compression: float = 1.5  #: Sequitur ratio below this => irregular
    max_access_cap: int = 2_000_000  #: safety cap on analyzed accesses


@dataclass
class ReusePhaseResult:
    """Output of the locality phase detector."""

    structure_found: bool
    marker_blocks: List[int] = field(default_factory=list)
    boundary_count: int = 0
    compression_ratio: float = 1.0
    reason: str = ""

    def describe(self) -> str:
        if not self.structure_found:
            return f"no locality phase structure found ({self.reason})"
        return (
            f"{len(self.marker_blocks)} reuse-distance marker blocks, "
            f"{self.boundary_count} boundaries, "
            f"Sequitur compression {self.compression_ratio:.2f}x"
        )


def _access_stream(
    trace: Trace, memory: MemorySystem, cap: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(addresses, owning block-event row) for every data access, through
    the block event whose accesses reach *cap*."""
    memory.reset()
    mask = trace.kinds == K_BLOCK
    rows = np.nonzero(mask)[0]
    ids = trace.a[mask]
    stop = memory.executions_to_reach(ids, cap)
    addresses = memory.addresses_for_blocks(ids[:stop])
    return addresses, np.repeat(rows[:stop], memory.accesses_for_blocks(ids[:stop]))


def select_reuse_markers(
    trace: Trace,
    memory: MemorySystem,
    params: ReuseMarkerParams = ReuseMarkerParams(),
) -> ReusePhaseResult:
    """Detect locality phases and select their marker blocks."""
    addresses, access_rows = _access_stream(trace, memory, params.max_access_cap)
    window = params.window
    if window is None:
        window = max(16, len(addresses) // params.target_samples)
    if len(addresses) < window * 8:
        return ReusePhaseResult(False, reason="too few data accesses")

    distances = reuse_distances(addresses)
    signal_raw = bounded_log_distances(distances)
    # window the per-access signal down to per-sample means
    n_samples = len(signal_raw) // window
    signal = signal_raw[: n_samples * window].reshape(n_samples, window).mean(
        axis=1
    )
    smooth = haar_smooth(signal, params.smooth_level)
    # Quantize the filtered locality signal into levels (robust range:
    # 5th..95th percentile) and call a *debounced* level change a phase
    # boundary — Shen et al.'s "reuse distance phases at the finest
    # granularity", with the wavelet filtering absorbing access noise.
    lo, hi = np.percentile(smooth, [5.0, 95.0])
    span = max(float(hi - lo), 1e-9)
    bins = np.clip(
        ((smooth - lo) / span * params.signature_bins).astype(np.int64),
        0,
        params.signature_bins - 1,
    )
    warmup = max(2, n_samples // 20)  # skip cold-start distances
    changes: List[int] = []
    i = warmup
    while i < n_samples - 1:
        if bins[i] != bins[i - 1] and bins[i + 1] == bins[i]:
            changes.append(i)
            i += 2  # debounce: a boundary settles for >= 2 samples
        else:
            i += 1
    # Segments between boundaries, cleaned at a candidate granularity:
    # segments shorter than the scale are transition noise (absorbed by
    # the following segment) and adjacent segments at the same quantized
    # level are one phase.  Each boundary's signature is the quantized
    # *median* locality of the segment it opens.  Following Shen et al.'s
    # multi-scale hierarchy, every scale is tried and the one whose
    # boundary pattern compresses best under Sequitur wins.
    def level_of(start: int, end: int) -> int:
        level = float(np.median(smooth[start:end]))
        return int(
            np.clip((level - lo) / span * params.signature_bins, 0,
                    params.signature_bins - 1)
        )

    raw_ends = changes[1:] + [n_samples]
    best_ratio = 0.0
    best_changes: List[int] = []
    for scale in params.segment_scales:
        kept: List[int] = []
        signatures: List[int] = []
        for start, end in zip(changes, raw_ends):
            if end - start < scale:
                continue  # transition blip: absorbed by the next segment
            signature = level_of(start, end)
            if signatures and signatures[-1] == signature:
                continue  # same locality level: not a phase change
            kept.append(start)
            signatures.append(signature)
        if len(kept) < params.min_boundaries:
            continue
        ratio = Grammar.from_sequence(signatures).compression_ratio
        if ratio > best_ratio:
            best_ratio = ratio
            best_changes = kept
    if len(best_changes) < params.min_boundaries:
        return ReusePhaseResult(
            False,
            boundary_count=len(best_changes),
            reason=f"only {len(best_changes)} stable reuse phases detected",
        )
    if best_ratio < params.min_compression:
        return ReusePhaseResult(
            False,
            boundary_count=len(best_changes),
            compression_ratio=best_ratio,
            reason=(
                f"boundary pattern does not repeat "
                f"(compression {best_ratio:.2f}x)"
            ),
        )
    changes = best_changes

    # Correlate code with the boundaries: a block is a marker when most of
    # its executions land near a boundary in the access stream.  The
    # access position of a block event is interpolated from the stream
    # (blocks without memory operations — e.g. call sites — inherit the
    # position of the surrounding accesses).
    boundary_access = np.minimum(
        np.array(changes, dtype=np.int64) * window, len(access_rows) - 1
    )
    block_mask = trace.kinds == K_BLOCK
    block_rows = np.nonzero(block_mask)[0]
    block_ids = trace.a[block_mask]
    # access position before each block event: count accesses whose trace
    # row precedes the event's row
    event_access_pos = np.searchsorted(access_rows, block_rows, side="left")

    tolerance = window * 4
    boundary_sorted = np.sort(boundary_access)
    boundary_rows = access_rows[boundary_access]

    # candidate blocks: any block executing within the tolerance of some
    # boundary (by access position)
    candidates: set = set()
    for b in boundary_sorted.tolist():
        lo_e = np.searchsorted(event_access_pos, b - tolerance, side="left")
        hi_e = np.searchsorted(event_access_pos, b + tolerance, side="right")
        candidates.update(block_ids[lo_e:hi_e].tolist())

    markers: List[int] = []
    for block in sorted(candidates):
        positions = event_access_pos[block_ids == block]
        if len(positions) < 2:
            continue
        nearest = np.searchsorted(boundary_sorted, positions)
        big = np.iinfo(np.int64).max
        dist_right = np.where(
            nearest < len(boundary_sorted),
            np.abs(
                boundary_sorted[np.minimum(nearest, len(boundary_sorted) - 1)]
                - positions
            ),
            big,
        )
        dist_left = np.where(
            nearest > 0,
            np.abs(positions - boundary_sorted[np.maximum(nearest - 1, 0)]),
            big,
        )
        aligned = np.minimum(dist_left, dist_right) <= tolerance
        if aligned.mean() >= params.min_precision:
            markers.append(int(block))
    if not markers:
        return ReusePhaseResult(
            False,
            boundary_count=len(changes),
            compression_ratio=best_ratio,
            reason="no block correlates with the reuse boundaries",
        )
    return ReusePhaseResult(
        True,
        marker_blocks=markers,
        boundary_count=len(changes),
        compression_ratio=best_ratio,
    )


def split_at_block_markers(
    trace: Trace,
    marker_blocks: List[int],
    program_name: str = "",
    min_interval: int = 0,
) -> IntervalSet:
    """Partition a run into VLIs at executions of the marker blocks.

    The phase id of each interval is the block id of the marker that
    opened it (0 for the prologue).  ``min_interval`` suppresses firings
    that would create an interval shorter than the given instruction
    count (markers in tight loops).
    """
    marker_set = set(marker_blocks)
    mask = trace.kinds == K_BLOCK
    rows = np.nonzero(mask)[0]
    ids = trace.a[mask]
    sizes = trace.c[mask]
    cum_before = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    total = int(sizes.sum())

    bounds: List[Tuple[int, int, int]] = []  # (row, t, phase)
    last_t = 0
    for k in range(len(rows)):
        bid = int(ids[k])
        if bid in marker_set:
            t = int(cum_before[k])
            if t == 0:
                continue
            if t - last_t < min_interval:
                continue
            if bounds and bounds[-1][1] == t:
                bounds[-1] = (bounds[-1][0], t, bid)
            else:
                bounds.append((int(rows[k]), t, bid))
            last_t = t

    row_bounds = np.array(
        [0] + [b[0] for b in bounds] + [len(trace)], dtype=np.int64
    )
    start_ts = np.array([0] + [b[1] for b in bounds], dtype=np.int64)
    ends = np.concatenate((start_ts[1:], [total]))
    lengths = (ends - start_ts).astype(np.int64)
    phase_ids = np.array([0] + [b[2] for b in bounds], dtype=np.int64)
    return IntervalSet(program_name, "vli", row_bounds, start_ts, lengths, phase_ids)

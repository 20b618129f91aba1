"""Struct-of-arrays edge view and the vectorized selection kernels.

The call-loop graph stores one :class:`~repro.callloop.graph.Edge`
object per edge, which is the right shape for construction (the profiler
folds observations in one at a time) but the wrong shape for analysis:
both selection passes, the threshold rule, and the per-program CoV
statistics are elementwise formulas over every edge.  This module gives
the graph a parallel-array view — ``avg``, ``cov``, ``max``, ``count``,
``total`` plus node-kind masks, all keyed by a **stable edge index**
(the graph's insertion order, which never changes because edges are only
ever added) — and the NumPy kernels that replace the per-edge Python
loops.

Exactness contract: every kernel here reproduces its scalar counterpart
bit-for-bit.  The derived statistics use the ``batch_*`` forms from
:mod:`repro.callloop.stats` (IEEE divide/sqrt are correctly rounded, and
the non-finite corner cases mirror Python's ``max``/comparison
semantics); the threshold kernel applies the same clip/affine formula as
``selection._cov_threshold``; candidate and traversal ordering reproduce
the scalar two-pass iteration order edge-for-edge.  ``repro.verify``
diff-checks the two engines on every run, and the golden corpus pins the
selections byte-for-byte.

The inputs are as reproducible as the kernels: edge statistics are
derived from exact integer moments
(:class:`~repro.callloop.stats.MomentStats`), so the arrays built here
are identical whether the profile came from the batch walk or the
streaming window's slot merges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.callloop.graph import CallLoopGraph, Edge, Node, NodeKind
from repro.callloop.stats import batch_cov, batch_std

EdgeKey = Tuple[Node, Node]


@dataclass
class EdgeArrays:
    """Parallel per-edge arrays over a graph's edges, in insertion order.

    ``edges[i]`` is the Edge object behind index ``i``; ``index`` maps an
    edge's ``(src, dst)`` key back to its position.  The float arrays are
    bit-identical to the corresponding Edge properties.
    """

    edges: List[Edge]
    index: Dict[EdgeKey, int]
    count: np.ndarray  #: (E,) int64 traversal counts
    avg: np.ndarray  #: (E,) float64 average hierarchical count
    cov: np.ndarray  #: (E,) float64 CoV of the hierarchical count
    max: np.ndarray  #: (E,) float64 maximum hierarchical count
    total: np.ndarray  #: (E,) float64 total hierarchical count
    src_kind: np.ndarray  #: (E,) int8 NodeKind of the source node
    dst_kind: np.ndarray  #: (E,) int8 NodeKind of the destination node
    dst_is_loop: np.ndarray  #: (E,) bool — destination is a loop node

    def __len__(self) -> int:
        return len(self.edges)


def build_edge_arrays(graph: CallLoopGraph) -> EdgeArrays:
    """The struct-of-arrays view of *graph* (see ``graph.edge_arrays()``
    for the cached accessor)."""
    edges = graph.edges
    n = len(edges)
    count = np.fromiter((e.stats.count for e in edges), dtype=np.int64, count=n)
    mean = np.fromiter((e.stats.mean for e in edges), dtype=np.float64, count=n)
    m2 = np.fromiter((e.stats.m2 for e in edges), dtype=np.float64, count=n)
    max_value = np.fromiter(
        (e.stats.max_value for e in edges), dtype=np.float64, count=n
    )
    std = batch_std(count, m2)
    return EdgeArrays(
        edges=edges,
        index={e.key(): i for i, e in enumerate(edges)},
        count=count,
        avg=mean,
        cov=batch_cov(mean, std),
        max=max_value,
        total=mean * count,
        src_kind=np.fromiter(
            (int(e.src.kind) for e in edges), dtype=np.int8, count=n
        ),
        dst_kind=np.fromiter(
            (int(e.dst.kind) for e in edges), dtype=np.int8, count=n
        ),
        dst_is_loop=np.fromiter(
            (e.dst.kind.is_loop for e in edges), dtype=bool, count=n
        ),
    )


def candidate_mask(
    arrays: EdgeArrays, ilower: float, procedures_only: bool
) -> np.ndarray:
    """Pass-1 filter over all edges: structurally eligible and ``avg >=
    ilower`` (a NaN average fails the comparison, as in the scalar path)."""
    eligible = arrays.src_kind != int(NodeKind.ROOT)
    if procedures_only:
        eligible &= ~arrays.dst_is_loop
    with np.errstate(invalid="ignore"):
        return eligible & (arrays.avg >= ilower)


def traversal_indices(
    graph: CallLoopGraph, arrays: EdgeArrays, order: Sequence[Node]
) -> np.ndarray:
    """Edge indices in the two-pass iteration order: nodes in *order*,
    each node's in-edges in insertion order.

    Every edge appears exactly once (it has one destination node).  The
    result depends only on the edge set, so it is cached on the graph
    keyed by the edge count.
    """
    cached = graph._analysis_cache.get("traversal")
    if cached is not None and cached[0] == graph.num_edges:
        return cached[1]
    index = arrays.index
    flat: List[int] = []
    for node in order:
        for edge in graph.in_edges(node):
            flat.append(index[edge.key()])
    trav = np.array(flat, dtype=np.int64)
    graph._analysis_cache["traversal"] = (graph.num_edges, trav)
    return trav


def cov_threshold_kernel(
    avg: np.ndarray,
    ilower: float,
    avg_hi: float,
    base: float,
    spread: float,
    cov_floor: float,
) -> np.ndarray:
    """Pass-2 thresholds for every candidate at once.

    The batch form of ``max(_cov_threshold(avg, ...), cov_floor)``:
    linear in ``avg`` between ``base`` (at ``ilower``) and ``base +
    spread`` (at ``avg_hi``), clipped to that range, floored at
    ``cov_floor``.  Candidate averages are finite-or-``+inf`` by
    construction (a NaN average is never a candidate), so ``np.clip``
    matches the scalar min/max pair exactly.
    """
    if avg_hi <= ilower:
        thresholds = np.full(avg.shape, float(base))
    else:
        scale = np.clip((avg - ilower) / (avg_hi - ilower), 0.0, 1.0)
        thresholds = base + spread * scale
    return np.maximum(thresholds, cov_floor)


def finite_cov_stats(covs: np.ndarray) -> Tuple[float, float]:
    """Mean and standard deviation of the finite candidate CoVs.

    Non-finite CoVs (zero-observation edges round-tripped through
    serialization can carry inf/NaN moments) are excluded: a single
    ``inf`` would otherwise drive the per-program threshold base to
    ``inf`` and its spread to NaN, deselecting every marker.
    """
    covs = np.asarray(covs, dtype=np.float64)
    finite = covs[np.isfinite(covs)]
    if finite.size == 0:
        return 0.0, 0.0
    # hand-rolled population std: same pairwise summation as
    # ndarray.std (bit-identical) without its reduction dispatch cost
    mean = float(finite.mean())
    dev = finite - mean
    return mean, math.sqrt(float((dev * dev).mean()))

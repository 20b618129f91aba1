"""The hierarchical call-loop graph (paper Section 4).

A call graph extended with loop nodes.  Every procedure and every loop is
represented by a *head* node and a *body* node:

* ``PROC_HEAD -> PROC_BODY``: head spans an outermost activation (elapsed
  time for recursive procedures); body spans each activation.
* ``LOOP_HEAD -> LOOP_BODY``: head spans loop entry to exit; body spans
  each iteration.

Edges carry the traversal count ``C``, and the average ``A``, standard
deviation / CoV, and maximum of the *hierarchical* dynamic instruction
count per traversal — the number of instructions executed between the
edge opening and closing, including everything called underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.callloop.loops import StaticLoop, discover_loops
from repro.callloop.stats import RunningStats
from repro.ir.program import Program, SourceLoc, TermKind


class NodeKind(IntEnum):
    ROOT = 0
    PROC_HEAD = 1
    PROC_BODY = 2
    LOOP_HEAD = 3
    LOOP_BODY = 4

    @property
    def is_head(self) -> bool:
        return self in (NodeKind.PROC_HEAD, NodeKind.LOOP_HEAD)

    @property
    def is_loop(self) -> bool:
        return self in (NodeKind.LOOP_HEAD, NodeKind.LOOP_BODY)


@dataclass(frozen=True)
class Node:
    """A call-loop graph node.

    Identity is *source-stable*: procedures are identified by name and
    loops by their ``uid`` (procedure + back-edge source line), so the same
    node exists in the graphs of different compilations of one source.
    """

    kind: NodeKind
    proc: str
    loop_uid: str = ""
    label: str = ""

    def __str__(self) -> str:
        if self.kind is NodeKind.ROOT:
            return "<root>"
        base = f"{self.proc}:{self.label}" if self.kind.is_loop else self.proc
        suffix = {
            NodeKind.PROC_HEAD: "head",
            NodeKind.PROC_BODY: "body",
            NodeKind.LOOP_HEAD: "loop-head",
            NodeKind.LOOP_BODY: "loop-body",
        }[self.kind]
        return f"{base}[{suffix}]"


ROOT = Node(NodeKind.ROOT, proc="")


@dataclass
class Edge:
    """An annotated edge: (C, A, CoV, max) over hierarchical counts."""

    src: Node
    dst: Node
    stats: RunningStats = field(default_factory=RunningStats)
    site_sources: Set[SourceLoc] = field(default_factory=set)

    @property
    def count(self) -> int:
        """C — number of traversals."""
        return self.stats.count

    @property
    def avg(self) -> float:
        """A — average hierarchical instructions per traversal."""
        return self.stats.mean

    @property
    def cov(self) -> float:
        """CoV of the hierarchical instruction count."""
        return self.stats.cov

    @property
    def max(self) -> float:
        """Maximum hierarchical instructions on a single traversal."""
        return self.stats.max_value

    @property
    def total(self) -> float:
        """Total hierarchical instructions across all traversals."""
        return self.stats.total

    def key(self) -> Tuple[Node, Node]:
        return (self.src, self.dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Edge({self.src} -> {self.dst}: C={self.count} A={self.avg:.1f} "
            f"CoV={self.cov:.3f} max={self.max:.0f})"
        )


class StaticChains:
    """Which loop regions cover each code address, built once per program.

    A loop region is ``[header, latch branch]`` (Section 4.2).  The
    *static chain* of an address is the tuple of loops whose regions
    cover it, outermost (lowest header) first.  As long as every region
    is entered through its header, the shadow loop stack at a block row
    equals the static chain of the block's address, so the walker's
    bulk loop and the span builder read their loop facts from here:

    * ``headers``/``loop_index`` — loop headers in address order and
      each header's dense index into it;
    * ``chains`` — chain id to tuple of loop indexes; id 0 is the empty
      chain;
    * ``addresses``/``address_is_header``/``address_chain`` — by sorted
      unique block address: whether it heads a loop, and its chain id
      (the walker's lookup);
    * :meth:`by_block` — the same facts by block id (the span
      builder's lookup).

    The walker builds the table at its first fed chunk, inside a
    streamed chunk's time, so the constructor makes only the walker's
    lookup; the rest is built on first use.
    """

    def __init__(self, table: "NodeTable"):
        program = table.program
        self._table = table
        self._regions = sorted(
            (h, lp.latch_branch_address) for h, lp in table.loops.items()
        )
        self.headers: List[int] = [h for h, _ in self._regions]
        self.loop_index: Dict[int, int] = {h: i for i, h in enumerate(self.headers)}
        self.chains: List[Tuple[int, ...]] = [()]
        self._chain_id: Dict[Tuple[int, ...], int] = {(): 0}
        self._by_block: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        addrs = sorted({b.address for b in program.blocks})
        self._ids = {a: self.chain_id(a) for a in addrs}
        # narrow ids keep the per-row gathers small
        self._small = (
            np.int16 if max(len(self.chains), len(self.headers)) < 2**15 else np.int32
        )
        self.addresses = np.asarray(addrs, dtype=np.int64)
        self.address_is_header = np.asarray(
            [a in self.loop_index for a in addrs], dtype=bool
        )
        self.address_chain = np.asarray(
            [self._ids[a] for a in addrs], dtype=self._small
        )

    def by_block(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(address, chain id, loop headed or -1)``, each by block id."""
        if self._by_block is None:
            blocks = self._table.program.blocks
            wide = len(self.addresses) and self.addresses[-1] >= 2**31
            self._by_block = (
                np.asarray(
                    [b.address for b in blocks], dtype=np.int64 if wide else np.int32
                ),
                np.asarray([self._ids[b.address] for b in blocks], dtype=self._small),
                np.asarray(
                    [self.loop_index.get(b.address, -1) for b in blocks],
                    dtype=self._small,
                ),
            )
        return self._by_block

    def chain_at(self, addr: int) -> Tuple[int, ...]:
        """Headers of the loop regions covering *addr*, outermost first."""
        return tuple(h for h, latch in self._regions if h <= addr <= latch)

    def chain_id(self, addr: int) -> int:
        """Dense id of :meth:`chain_at` (*addr*); ``chains[id]`` holds it
        as loop indexes."""
        at = self.chain_at(addr)
        got = self._chain_id.get(at)
        if got is None:
            got = self._chain_id[at] = len(self.chains)
            self.chains.append(tuple(self.loop_index[h] for h in at))
        return got


class NodeTable:
    """Dense integer ids for every static node of a program.

    The profiler's hot loop works on ints; this table maps between ints
    and :class:`Node` objects.  :attr:`chains` holds the program's
    static loop-chain facts, built on first use; ``site_source`` (call
    site, a CALL block's end address, to its source) and
    ``loop_source`` (loop header to its source) are the debug info the
    walker and the span builder attach to edges.
    """

    def __init__(self, program: Program, loops: Optional[Dict[int, StaticLoop]] = None):
        if loops is None:
            loops = discover_loops(program)
        self.program = program
        self.loops = loops
        self.nodes: List[Node] = [ROOT]
        self._index: Dict[Node, int] = {ROOT: 0}
        self.proc_head: Dict[str, int] = {}
        self.proc_body: Dict[str, int] = {}
        self.loop_head: Dict[int, int] = {}  # header address -> node id
        self.loop_body: Dict[int, int] = {}
        self.site_source: Dict[int, SourceLoc] = {
            b.end_address: b.source
            for b in program.blocks
            if b.terminator.kind == TermKind.CALL
        }
        self.loop_source: Dict[int, SourceLoc] = {
            header: loop.source for header, loop in loops.items()
        }
        self._chains: Optional[StaticChains] = None
        for proc in program.procedures.values():
            self.proc_head[proc.name] = self._add(
                Node(NodeKind.PROC_HEAD, proc.name, label=proc.name)
            )
            self.proc_body[proc.name] = self._add(
                Node(NodeKind.PROC_BODY, proc.name, label=proc.name)
            )
        for header, loop in sorted(loops.items()):
            self.loop_head[header] = self._add(
                Node(NodeKind.LOOP_HEAD, loop.proc, loop.uid, loop.label)
            )
            self.loop_body[header] = self._add(
                Node(NodeKind.LOOP_BODY, loop.proc, loop.uid, loop.label)
            )

    @property
    def chains(self) -> StaticChains:
        """The program's :class:`StaticChains` (built once, on first use)."""
        if self._chains is None:
            self._chains = StaticChains(self)
        return self._chains

    def _add(self, node: Node) -> int:
        idx = len(self.nodes)
        self.nodes.append(node)
        self._index[node] = idx
        return idx

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, idx: int) -> Node:
        return self.nodes[idx]

    def index(self, node: Node) -> int:
        return self._index[node]


class CallLoopGraph:
    """The annotated graph produced by profiling one or more runs."""

    def __init__(self, program_name: str, variant: str = "base"):
        self.program_name = program_name
        self.variant = variant
        self.total_instructions = 0
        self._edges: Dict[Tuple[Node, Node], Edge] = {}
        self._out: Dict[Node, List[Edge]] = {}
        self._in: Dict[Node, List[Edge]] = {}

    # -- construction --------------------------------------------------------

    def edge(self, src: Node, dst: Node) -> Edge:
        """Get or create the edge src -> dst."""
        key = (src, dst)
        found = self._edges.get(key)
        if found is None:
            found = Edge(src, dst)
            self._edges[key] = found
            self._out.setdefault(src, []).append(found)
            self._in.setdefault(dst, []).append(found)
            self._out.setdefault(dst, self._out.get(dst, []))
            self._in.setdefault(src, self._in.get(src, []))
        return found

    def observe(
        self,
        src: Node,
        dst: Node,
        hierarchical_count: float,
        site_source: Optional[SourceLoc] = None,
    ) -> None:
        """Record one traversal of src -> dst."""
        e = self.edge(src, dst)
        e.stats.add(hierarchical_count)
        if site_source is not None:
            e.site_sources.add(site_source)

    # -- queries -----------------------------------------------------------

    @property
    def nodes(self) -> List[Node]:
        seen: Dict[Node, None] = {}
        for (src, dst) in self._edges:
            seen.setdefault(src)
            seen.setdefault(dst)
        return list(seen)

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges.values())

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def out_edges(self, node: Node) -> List[Edge]:
        return list(self._out.get(node, ()))

    def in_edges(self, node: Node) -> List[Edge]:
        return list(self._in.get(node, ()))

    def out_degree(self, node: Node) -> int:
        return len(self._out.get(node, ()))

    def find_edge(self, src: Node, dst: Node) -> Optional[Edge]:
        return self._edges.get((src, dst))

    def successors(self, node: Node) -> Iterator[Node]:
        for e in self._out.get(node, ()):
            yield e.dst

    def merged_with(self, other: "CallLoopGraph") -> "CallLoopGraph":
        """A new graph combining this profile with *other* (same program)."""
        if other.program_name != self.program_name:
            raise ValueError("cannot merge graphs of different programs")
        merged = CallLoopGraph(self.program_name, self.variant)
        merged.total_instructions = self.total_instructions + other.total_instructions
        for graph in (self, other):
            for e in graph.edges:
                target = merged.edge(e.src, e.dst)
                target.stats = target.stats.merge(e.stats)
                target.site_sources |= e.site_sources
        return merged

    def summary(self) -> str:
        """One-line description for logs."""
        return (
            f"call-loop graph of {self.program_name} ({self.variant}): "
            f"{self.num_nodes} nodes, {self.num_edges} edges, "
            f"{self.total_instructions:,} instructions profiled"
        )

    def to_networkx(self):
        """The graph as a ``networkx.DiGraph`` (nodes keyed by ``str(node)``).

        Edge attributes: ``count``, ``avg``, ``cov``, ``max``; node
        attributes: ``kind``, ``proc``, ``label``.  For users who want
        graph algorithms or layouts beyond what this package ships.
        """
        import networkx as nx

        g = nx.DiGraph(program=self.program_name, variant=self.variant)
        for node in self.nodes:
            g.add_node(
                str(node), kind=node.kind.name, proc=node.proc, label=node.label
            )
        for edge in self.edges:
            g.add_edge(
                str(edge.src),
                str(edge.dst),
                count=edge.count,
                avg=edge.avg,
                cov=edge.cov,
                max=edge.max,
            )
        return g

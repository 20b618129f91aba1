"""Maximum call-loop depth estimation and node processing order.

Pass 1 of the selection algorithm (paper Section 5.1) processes nodes in
decreasing estimated maximum depth (children before parents), breaking
ties by increasing out-degree (leaves before non-leaves).  Depth is
estimated with "a modified depth-first search, where a node can be
traversed more than once if we later find a longer path to that node.  We
never re-traverse a node on the current path, to ensure the algorithm
terminates if the graph contains a cycle."
"""

from __future__ import annotations

from typing import Dict, List

from repro.callloop.graph import CallLoopGraph, Node, ROOT


def estimate_max_depth(graph: CallLoopGraph) -> Dict[Node, int]:
    """Longest-path depth estimate from the graph roots.

    Cycles (recursion) are cut by never revisiting a node on the current
    path, exactly as the paper specifies.
    """
    depth: Dict[Node, int] = {}
    roots = [n for n in graph.nodes if not graph.in_edges(n)]
    if not roots:
        roots = [ROOT] if ROOT in graph.nodes else graph.nodes[:1]
    # Iterative DFS; each stack entry re-expands a node whose depth grew.
    for root in roots:
        depth.setdefault(root, 0)
        stack: List[tuple] = [(root, iter(list(graph.successors(root))))]
        on_path = {root}
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ in on_path:
                    continue
                candidate = depth[node] + 1
                if candidate > depth.get(succ, -1):
                    depth[succ] = candidate
                    stack.append((succ, iter(list(graph.successors(succ)))))
                    on_path.add(succ)
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_path.discard(node)
    # Nodes unreachable from any root (shouldn't happen in practice).
    for node in graph.nodes:
        depth.setdefault(node, 0)
    return depth


def processing_order(graph: CallLoopGraph) -> List[Node]:
    """Nodes sorted by decreasing max depth, ties by increasing out-degree.

    This is the queue order of both selection passes: leaves (small
    behaviors) are examined before their parents (large behaviors).
    """
    depth = estimate_max_depth(graph)
    return sorted(
        graph.nodes,
        key=lambda n: (-depth[n], graph.out_degree(n), str(n)),
    )

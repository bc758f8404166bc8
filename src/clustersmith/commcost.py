"""Transfer path resolution and single-transfer timing.

Timing model per link: ``a / lane_fraction + b + latency`` where
``a = bytes / bandwidth`` scales with lane width and ``b`` is a fixed
per-link overhead that does not.  Halving the lanes therefore yields
``2a + b`` rather than double the time.

Routing is widest-path (maximum bottleneck bandwidth), ties broken by
fewer hops then by lexicographically smallest node-id sequence.  With
GDR disabled, GPU<->NIC/DPU transfers must pass through host memory; the
resulting route may legitimately revisit a node (out and back through a
memory controller), so routes are walks, not necessarily simple paths.

Each graph keeps a `RoutingIndex` (``TopologyGraph.routing``), built on
first use: one maximum spanning forest, which gives every pair's
bottleneck, plus each node's widest reach to host memory for the
constrained pairs.  Each route is walked on the full graph on request,
over links at least its bottleneck wide.  Graphs are immutable, so the
index needs no invalidation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (InvalidLaneFraction, Unreachable, UnknownNode,
                     ValidationError)
from .topology import Link, NodeKind, TopologyGraph

GB = 1e9  # bytes
US = 1e-6  # seconds

ALLOWED_FRACTIONS = (1.0, 0.5, 0.25)


@dataclass(frozen=True)
class ResolvedPath:
    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    bottleneck_bandwidth: float  # GB/s
    total_latency: float         # microseconds
    total_b: float               # microseconds

    @property
    def hops(self) -> int:
        return len(self.links)


def link_time(nbytes: float, link: Link, lane_fraction: float = 1.0) -> float:
    """Seconds to move nbytes across one link at a given lane fraction."""
    if lane_fraction not in ALLOWED_FRACTIONS:
        raise InvalidLaneFraction(
            f"lane_fraction must be one of {ALLOWED_FRACTIONS}, got {lane_fraction}"
        )
    a = nbytes / (link.bandwidth * GB)
    return a / lane_fraction + link.extra_overhead_b * US + link.latency * US


def path_time(nbytes: float, path: ResolvedPath) -> float:
    """Cut-through composition: one payload term at the bottleneck rate."""
    transfer = nbytes / (path.bottleneck_bandwidth * GB) if path.links else 0.0
    return (path.total_latency + path.total_b) * US + transfer


def _needs_host_memory(gdr: bool, src_kind: NodeKind, dst_kind: NodeKind) -> bool:
    if gdr:
        return False
    kinds = {src_kind, dst_kind}
    return NodeKind.GPU in kinds and (
        NodeKind.NIC in kinds or NodeKind.DPU in kinds
    )


class RoutingIndex:
    """Routing state of one graph, built once: a maximum spanning forest.

    Two nodes' widest (max-min) bottleneck is the narrowest link on their
    path in any maximum spanning forest (T. C. Hu, "The maximum capacity
    route problem", Oper. Res. 9(6), 1961).  Kruskal's algorithm, widest
    link first, keeps each merge of two trees as a new node above both,
    numbered after them and as wide as the link that joined them (a
    Kruskal reconstruction tree).  So ancestors number higher and are no
    wider, and a pair's bottleneck is the width of its lowest common
    ancestor.  Widest-path widths W form an ultrametric, so a walk from s
    to t through some host memory m is as wide as
    max_m min(W(s, m), W(m, t)) = min(W(s, t), max_m W(s, m)): the
    narrower of the pair's bottleneck and that of s's lowest ancestor
    above a host memory.

    Routes are still walked on the full graph, over states (node,
    mem_seen) numbered ``2 * node + mem_seen``: the goal is (dst, 1), and
    mem_seen starts at 1 when the host-memory constraint does not apply.
    """

    def __init__(self, g: TopologyGraph):
        # No reference back to g: the graph holds this index, and a cycle
        # would keep both alive until a full garbage collection.
        self.gdr = g.gdr
        self.index = g.index
        self.kinds = [n.kind for n in g.nodes]
        # Best link per node pair: max bandwidth, then min overhead, then
        # declaration order.
        best = {}
        for l in g.links:
            i, j = sorted((g.index[l.endpoint_a], g.index[l.endpoint_b]))
            cur = best.get((i, j))
            if cur is None or (l.bandwidth, -(l.latency + l.extra_overhead_b)) > (
                cur.bandwidth, -(cur.latency + cur.extra_overhead_b)
            ):
                best[(i, j)] = l
        self.ids = [n.id for n in g.nodes]
        self.is_mem = [int(kind == NodeKind.HOST_MEMORY) for kind in self.kinds]
        # node -> [(neighbour, bandwidth, link)] in link declaration order;
        # per node rather than per state to keep the index small, since
        # GNN training keeps every sample graph, and so its index, alive.
        self.adj = [[] for _ in g.nodes]
        for (i, j), link in best.items():
            self.adj[i].append((j, link.bandwidth, link))
            self.adj[j].append((i, link.bandwidth, link))

        # The merge tree: nodes 0..n-1 are the graph's, the rest merges.
        n = len(g.nodes)
        self.up = up = list(range(n))  # parent; a root is its own
        self.width = width = [math.inf] * n
        self.mem_below = mem_below = list(self.is_mem)
        comp = list(range(n))  # union-find over the same numbers

        def find(v):
            while comp[v] != v:
                comp[v] = v = comp[comp[v]]  # path halving
            return v

        for (i, j), link in sorted(best.items(), key=lambda e: -e[1].bandwidth):
            a, b = find(i), find(j)
            if a != b:
                k = len(up)
                up[a] = up[b] = comp[a] = comp[b] = k
                up.append(k)
                comp.append(k)
                width.append(link.bandwidth)
                mem_below.append(mem_below[a] or mem_below[b])

    def _bottleneck(self, s: int, t: int, constrained: bool) -> float:
        """Width of the lowest common ancestor of s and t or, if
        `constrained`, of s's lowest ancestor above a host memory, whichever
        is higher; 0.0 if there is none."""
        up = self.up
        a = s
        while a != t:  # climb the lower: it cannot be the other's ancestor
            if a > t:
                a, t = t, a
            if up[a] == a:  # two roots
                return 0.0
            a = up[a]
        while constrained and not self.mem_below[s]:
            if up[s] == s:
                return 0.0
            s = up[s]
        return self.width[max(a, s)]

    def route(self, src: str, dst: str) -> ResolvedPath:
        s, t = self.index[src], self.index[dst]
        constrained = _needs_host_memory(self.gdr, self.kinds[s], self.kinds[t])
        bottleneck = self._bottleneck(s, t, constrained)
        if not bottleneck:
            raise Unreachable(f"no route from {src!r} to {dst!r}"
                              + (" honoring host-memory staging" if constrained else ""))
        start, goal = 2 * s + (not constrained), 2 * t + 1

        # Hop distances to the goal over links at least `bottleneck` wide,
        # level by level until the start's level is complete.  Some walk is
        # that wide, so the start is reached; the frontier test only bounds
        # the loop.
        adj, is_mem = self.adj, self.is_mem
        dist = [-1] * (2 * len(adj))
        dist[goal] = 0
        frontier = [goal]
        while frontier and dist[start] < 0:
            nxt_front = []
            for state in frontier:
                d = dist[state] + 1
                node, f = state >> 1, state & 1
                # predecessor flags pf with pf | is_mem[node] == f
                flags = ((0, 1) if is_mem[node] else (1,)) if f else (
                    () if is_mem[node] else (0,))
                for prev, bw, _ in adj[node]:
                    if bw >= bottleneck:
                        for pf in flags:
                            pstate = 2 * prev + pf
                            if dist[pstate] < 0:
                                dist[pstate] = d
                                nxt_front.append(pstate)
            frontier = nxt_front

        # Walk greedily toward the goal, smallest node id first.
        ids = self.ids
        state = start
        node_seq = [src]
        link_seq = []
        while state != goal:
            f, step = state & 1, dist[state] - 1
            nxt, link = min(
                ((v, l) for v, bw, l in adj[state >> 1]
                 if bw >= bottleneck and dist[2 * v + (f | is_mem[v])] == step),
                key=lambda c: ids[c[0]])
            state = 2 * nxt + (f | is_mem[nxt])
            node_seq.append(ids[nxt])
            link_seq.append(link)

        try:  # fsum: correctly rounded, so the same on every Python
            total_latency = math.fsum(l.latency for l in link_seq)
            total_b = math.fsum(l.extra_overhead_b for l in link_seq)
        except OverflowError:
            raise ValidationError(
                f"route from {src!r} to {dst!r}: latency or b is not a finite "
                "number of microseconds") from None
        return ResolvedPath(
            nodes=tuple(node_seq),
            links=tuple(link_seq),
            bottleneck_bandwidth=bottleneck,  # the walk's narrowest link
            total_latency=total_latency,
            total_b=total_b,
        )


def resolve_path(g: TopologyGraph, src: str, dst: str) -> ResolvedPath:
    """Widest route from src to dst, honoring the host-memory constraint.

    Walked on request from the graph's routing index.
    """
    g.node(src)
    g.node(dst)
    if src == dst:
        raise ValueError("src and dst must differ")
    return g.routing.route(src, dst)

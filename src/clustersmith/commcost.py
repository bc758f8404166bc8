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

Each graph keeps a `RoutingIndex` (``TopologyGraph.routing``) that holds
one widest-path pass per (source, start flag), computed on first use;
each route is walked from its pass on request.  Graphs are immutable, so
the passes need no invalidation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import InvalidLaneFraction, Unreachable, UnknownNode
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
    """Widest-path passes of one graph, computed on first use and kept.

    Search runs over states (node, mem_seen), numbered ``2 * node +
    mem_seen``, so the host-memory detour is handled uniformly: the goal
    is (dst, 1) and mem_seen starts at 1 when the constraint does not
    apply.  One widest-path pass per (source, start flag) gives the
    bottleneck to every destination.
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
        self._widths = {}  # (source, start flag) -> width per state

    def _widest_from(self, source: int, flag: int) -> list[float]:
        """Maximum bottleneck bandwidth from (source, flag) to every state;
        0.0 where unreachable."""
        adj, is_mem = self.adj, self.is_mem
        width = [0.0] * (2 * len(adj))
        start = 2 * source + flag
        width[start] = float("inf")
        heap = [(-float("inf"), start)]
        while heap:
            negw, state = heapq.heappop(heap)
            w = -negw
            if w < width[state]:
                continue
            f = state & 1
            for v, bw, _ in adj[state >> 1]:
                nstate = 2 * v + (f | is_mem[v])
                nw = bw if bw < w else w
                if nw > width[nstate]:
                    width[nstate] = nw
                    heapq.heappush(heap, (-nw, nstate))
        return width

    def route(self, src: str, dst: str) -> ResolvedPath:
        s, t = self.index[src], self.index[dst]
        constrained = _needs_host_memory(self.gdr, self.kinds[s], self.kinds[t])
        flag = int(not constrained)
        width = self._widths.get((s, flag))
        if width is None:
            width = self._widths[(s, flag)] = self._widest_from(s, flag)
        start, goal = 2 * s + flag, 2 * t + 1
        bottleneck = width[goal]
        if not bottleneck:
            raise Unreachable(f"no route from {src!r} to {dst!r}"
                              + (" honoring host-memory staging" if constrained else ""))

        # Hop distances to the goal over links at least `bottleneck` wide,
        # level by level until the start's level is complete.  The widest
        # pass found such a walk, so the start is reached; the frontier
        # test only bounds the loop.
        adj, is_mem = self.adj, self.is_mem
        dist = [-1] * len(width)
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

        return ResolvedPath(
            nodes=tuple(node_seq),
            links=tuple(link_seq),
            bottleneck_bandwidth=bottleneck,  # the walk's narrowest link
            total_latency=sum(l.latency for l in link_seq),
            total_b=sum(l.extra_overhead_b for l in link_seq),
        )


def resolve_path(g: TopologyGraph, src: str, dst: str) -> ResolvedPath:
    """Widest route from src to dst, honoring the host-memory constraint.

    Walked from the widest-path pass kept in the graph's routing index.
    """
    g.node(src)
    g.node(dst)
    if src == dst:
        raise ValueError("src and dst must differ")
    return g.routing.route(src, dst)

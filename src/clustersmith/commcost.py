"""Transfer path resolution and single-transfer timing.

Timing law (`path_time`, Hockney's latency-bandwidth model): a transfer
takes ``(latency + b) us + bytes / rate``, latency and fixed overhead ``b``
summed over its links, at the bottleneck or a contended rate.  So a link
at half the bandwidth takes ``2a + c`` where it took ``a + c`` (``a =
bytes / bw``, ``c`` its latency and overhead): less than twice as long
whenever ``c > 0``.

Routing is widest-path (maximum bottleneck bandwidth), ties broken by
fewer hops then by lexicographically smallest node-id sequence.  With
GDR disabled, GPU<->NIC/DPU transfers must pass through host memory; the
resulting route may legitimately revisit a node (out and back through a
memory controller), so routes are walks, not necessarily simple paths.

Each graph keeps a `RoutingIndex` (``TopologyGraph.routing``), built on
first use: one maximum spanning forest, which gives every pair's
bottleneck, plus each node's widest reach to host memory for the
constrained pairs, and each node's neighbours in node-id order.  Each
route is found on request by a hop search from both of its ends at once,
over links at least its bottleneck wide: the start's search tree gives it
up to where the two meet, then each hop takes the smallest-id neighbour
one hop nearer the goal.  Graphs are immutable, so the index needs no
invalidation.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ValidationError
from .topology import NodeKind, TopologyGraph

GB = 1e9  # bytes
US = 1e-6  # seconds


class ResolvedPath(namedtuple("ResolvedPath", "nodes links bottleneck_bandwidth "
                               "total_latency total_b")):
    """A routed walk: bottleneck in GB/s, latency and b in microseconds."""

    __slots__ = ()


def path_time(nbytes: float, path: ResolvedPath,
              rate: float | None = None) -> float:
    """Seconds to move nbytes over a routed path, cut-through: its latency
    and overhead plus the payload at `rate` bytes/s, default the bottleneck."""
    if rate is None:
        rate = path.bottleneck_bandwidth * GB
    return (path.total_latency + path.total_b) * US + nbytes / rate


def _needs_host_memory(gdr: bool, src_kind: NodeKind, dst_kind: NodeKind) -> bool:
    if gdr:
        return False
    kinds = {src_kind, dst_kind}
    return NodeKind.GPU in kinds and (
        NodeKind.NIC in kinds or NodeKind.DPU in kinds
    )


# Predecessor flags pf with pf | is_mem[node] == f, by [is_mem[node]][f].
_PRED_FLAGS = (((0,), (1,)), ((), (0, 1)))


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

    Routes are searched on the full graph, over states (node, mem_seen)
    numbered ``2 * node + mem_seen``: the goal is (dst, 1), and mem_seen
    starts at 1 when the host-memory constraint does not apply.  The
    search is a breadth-first search from the start and from the goal at
    once, each round growing the smaller frontier by one level, over links
    at least the bottleneck wide (bidirectional search: I. Pohl,
    "Bi-directional search", Machine Intelligence 6, 1971).  It stops
    after the level in which the two meet, so it covers two small balls
    of states around the ends instead of one ball reaching from the goal
    to the start.  Visiting neighbours in node-id order, the forward search
    reaches each state first along its smallest-id shortest walk, and lists
    each level in the order of those walks.  The route is that walk to the
    first meeting state, then the smallest-id neighbour one hop nearer the
    goal: the fewest-hops, then node-id tie-breaks.
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
            i, j = g.index[l.endpoint_a], g.index[l.endpoint_b]
            pair = (i, j) if i < j else (j, i)
            cur = best.get(pair)
            if cur is None or (l.bandwidth, -(l.latency + l.extra_overhead_b)) > (
                cur.bandwidth, -(cur.latency + cur.extra_overhead_b)
            ):
                best[pair] = l
        self.ids = [n.id for n in g.nodes]
        self.is_mem = [int(kind == NodeKind.HOST_MEMORY) for kind in self.kinds]
        # node -> [(neighbour, bandwidth, link)] in neighbour-id order;
        # per node rather than per state to keep the index small, since
        # GNN training keeps every sample graph, and so its index, alive.
        self.adj = [[] for _ in g.nodes]
        for (i, j), link in best.items():
            self.adj[i].append((j, link.bandwidth, link))
            self.adj[j].append((i, link.bandwidth, link))
        ids = self.ids
        for nbrs in self.adj:
            nbrs.sort(key=lambda e: ids[e[0]])

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
            raise ValidationError(
                f"no route from {src!r} to {dst!r}"
                + (" honoring host-memory staging" if constrained else ""))
        start, goal = 2 * s + (not constrained), 2 * t + 1

        # Search links at least `bottleneck` wide from the start (par: parent
        # state and link) and to the goal (dg: hops), growing the smaller
        # frontier by one level a round until the two meet.  Some walk is
        # that wide, so they do; the frontier test only bounds the loop.
        adj, is_mem = self.adj, self.is_mem
        par = [None] * (2 * len(adj))
        dg = [-1] * (2 * len(adj))
        par[start], dg[goal] = (start, None), 0
        front, back = [start], [goal]
        depth_b = 0
        met = False
        while not met and front and back:
            nxt_front = []
            if len(front) <= len(back):
                for state in front:
                    f = state & 1
                    for nxt, bw, link in adj[state >> 1]:
                        if bw >= bottleneck:
                            nstate = 2 * nxt + (f | is_mem[nxt])
                            if par[nstate] is None:
                                par[nstate] = (state, link)
                                nxt_front.append(nstate)
                                met = met or dg[nstate] >= 0
                front = nxt_front
            else:
                depth_b += 1
                for state in back:
                    node, f = state >> 1, state & 1
                    flags = _PRED_FLAGS[is_mem[node]][f]
                    for prev, bw, _ in adj[node]:
                        if bw >= bottleneck:
                            for pf in flags:
                                pstate = 2 * prev + pf
                                if dg[pstate] < 0:
                                    dg[pstate] = depth_b
                                    nxt_front.append(pstate)
                                    met = met or par[pstate] is not None
                back = nxt_front

        # The searches met in their last, complete levels, so each meeting
        # state is depth_b from the goal.  Walk back from the first in level
        # order: its parent chain starts the smallest-id shortest walk.
        ids = self.ids
        mid = state = next(m for m in front if dg[m] == depth_b)
        node_seq, link_seq = [], []
        while state != start:
            node_seq.append(ids[state >> 1])
            state, link = par[state]
            link_seq.append(link)
        node_seq.append(src)
        node_seq.reverse()
        link_seq.reverse()

        # Walk greedily on toward the goal, smallest node id first (`adj` is
        # in node-id order).
        state = mid
        for step in range(depth_b - 1, -1, -1):
            f = state & 1
            for nxt, bw, link in adj[state >> 1]:
                if bw >= bottleneck and dg[2 * nxt + (f | is_mem[nxt])] == step:
                    break
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
        # the bottleneck is the walk's narrowest link
        return ResolvedPath(tuple(node_seq), tuple(link_seq), bottleneck,
                            total_latency, total_b)


def resolve_path(g: TopologyGraph, src: str, dst: str) -> ResolvedPath:
    """Widest route from src to dst, honoring the host-memory constraint.

    Walked on request from the graph's routing index.
    """
    g.node(src)
    g.node(dst)
    if src == dst:
        raise ValidationError("src and dst must differ")
    return g.routing.route(src, dst)

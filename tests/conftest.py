import heapq
import random
from fractions import Fraction

import pytest

from clustersmith.topology import (
    Link,
    LinkKind,
    Node,
    NodeKind,
    TopologyGraph,
    build_graph,
    load_preset,
)


@pytest.fixture
def nvlink4() -> TopologyGraph:
    return load_preset("nvlink4.topo")


@pytest.fixture
def dual_socket() -> TopologyGraph:
    return load_preset("dual-socket-pcie-switch.topo")


def random_graph(rng: random.Random, max_nodes: int = 8,
                 connected: bool = True) -> TopologyGraph:
    """Random valid topology; spanning tree first when connectivity is
    required, then extra chords."""
    n = rng.randint(1, max_nodes)
    kinds = list(NodeKind)
    link_kinds = list(LinkKind)
    nodes = []
    for i in range(n):
        labels = ()
        if rng.random() < 0.3:
            labels = (("rack", str(rng.randint(0, 3))),)
        nodes.append(Node(
            id=f"n{i}",
            kind=rng.choice(kinds),
            socket_index=rng.randint(0, 1) if rng.random() < 0.3 else None,
            labels=labels,
        ))
    links = []

    def make_link(i, j):
        kind = rng.choice(link_kinds)
        lanes = None
        if kind == LinkKind.PCIE and rng.random() < 0.5:
            lanes = rng.choice([1, 2, 4, 8, 16])
        return Link(
            endpoint_a=f"n{i}", endpoint_b=f"n{j}", kind=kind,
            bandwidth=rng.uniform(0.5, 100.0),
            latency=rng.uniform(0.0, 5.0) if rng.random() < 0.5 else 0.0,
            lanes=lanes,
            extra_overhead_b=rng.uniform(0.0, 2.0) if rng.random() < 0.5 else 0.0,
            duplex=rng.random() < 0.9,
        )

    if connected:
        for i in range(1, n):
            links.append(make_link(rng.randint(0, i - 1), i))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15 and not any(
                {l.endpoint_a, l.endpoint_b} == {f"n{i}", f"n{j}"} for l in links
            ):
                links.append(make_link(i, j))
    return build_graph(nodes, links, gdr=rng.random() < 0.5)


def enumerate_simple_paths(g: TopologyGraph, src: str, dst: str):
    """All simple paths src->dst as (node sequence, link sequence)."""
    adj = {node.id: [] for node in g.nodes}
    for l in g.links:
        adj[l.endpoint_a].append((l.endpoint_b, l))
        adj[l.endpoint_b].append((l.endpoint_a, l))
    out = []

    def walk(node, seq, links, seen):
        if node == dst:
            out.append((tuple(seq), tuple(links)))
            return
        for nxt, link in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                walk(nxt, seq + [nxt], links + [link], seen)
                seen.remove(nxt)

    walk(src, [src], [], {src})
    return out


def best_path_by_enumeration(g: TopologyGraph, src: str, dst: str):
    """Widest / fewest-hops / lexicographic best route as (node sequence,
    link sequence), or None.

    Enumerates simple paths in the (node, mem_seen) state graph, so a
    route may visit a node twice: out to host memory and back.  mem_seen
    starts false only for GPU<->NIC/DPU transfers with GDR off; the route
    ends at (dst, true).
    """
    kinds = {g.node(src).kind, g.node(dst).kind}
    constrained = (not g.gdr and NodeKind.GPU in kinds
                   and (NodeKind.NIC in kinds or NodeKind.DPU in kinds))
    is_mem = {n.id: n.kind == NodeKind.HOST_MEMORY for n in g.nodes}
    adj = {node.id: [] for node in g.nodes}
    for l in g.links:
        adj[l.endpoint_a].append((l.endpoint_b, l))
        adj[l.endpoint_b].append((l.endpoint_a, l))
    goal = (dst, True)
    paths = []

    def walk(state, seq, links, seen):
        if state == goal:
            paths.append((tuple(seq), tuple(links)))
            return
        node, mem_seen = state
        for nxt, link in adj[node]:
            nstate = (nxt, mem_seen or is_mem[nxt])
            if nstate not in seen:
                seen.add(nstate)
                walk(nstate, seq + [nxt], links + [link], seen)
                seen.remove(nstate)

    start = (src, not constrained)
    walk(start, [src], [], {start})
    if not paths:
        return None
    return min(
        paths,
        key=lambda p: (-min(l.bandwidth for l in p[1]), len(p[1]), p[0]),
    )


def widest_state_bottlenecks(g: TopologyGraph, src: str) -> dict:
    """Widest bottleneck from src to every other node, 0.0 where there is
    no route, by a heap pass over the (node, mem_seen) state graph.

    mem_seen starts false only for GPU<->NIC/DPU transfers with GDR off,
    so each destination reads the pass for its own start flag; the route
    ends at (dst, true).  Only used as an oracle.
    """
    is_mem = {n.id: n.kind == NodeKind.HOST_MEMORY for n in g.nodes}
    adj = {n.id: [] for n in g.nodes}
    for l in g.links:
        adj[l.endpoint_a].append((l.endpoint_b, l.bandwidth))
        adj[l.endpoint_b].append((l.endpoint_a, l.bandwidth))

    def widths(start):
        width = {start: float("inf")}
        heap = [(-float("inf"), start)]
        while heap:
            negw, (node, mem_seen) = heapq.heappop(heap)
            if -negw < width[(node, mem_seen)]:
                continue
            for nxt, bw in adj[node]:
                nstate = (nxt, mem_seen or is_mem[nxt])
                nw = min(-negw, bw)
                if nw > width.get(nstate, 0.0):
                    width[nstate] = nw
                    heapq.heappush(heap, (-nw, nstate))
        return width

    passes = {flag: widths((src, flag)) for flag in (False, True)}
    out = {}
    for n in g.nodes:
        if n.id != src:
            kinds = {g.node(src).kind, n.kind}
            constrained = (not g.gdr and NodeKind.GPU in kinds
                           and (NodeKind.NIC in kinds or NodeKind.DPU in kinds))
            out[n.id] = passes[not constrained].get((n.id, True), 0.0)
    return out


def time_stepped_sim(flows, sw, dt: float = 1e-6):
    """Independent brute-force integrator for the switch model.

    Advances in fixed dt steps; every active flow drains at
    min(cap, upstream/k).  Only used as an oracle.
    """
    remaining = {f.id: f.bytes for f in flows}
    starts = {f.id: f.release + f.offset for f in flows}
    completions = {}
    t = 0.0
    upstream = sw.upstream_bandwidth * 1e9
    cap = sw.per_flow_cap * 1e9
    peak = 0
    while len(completions) < len(flows):
        active = [fid for fid in remaining
                  if starts[fid] <= t and fid not in completions]
        peak = max(peak, len(active))
        if active:
            rate = min(cap, upstream / len(active))
            for fid in active:
                remaining[fid] -= rate * dt
                if remaining[fid] <= 0 and fid not in completions:
                    completions[fid] = t + dt
        t += dt
    return completions, peak


def fair_share_oracle(flows, sw) -> dict:
    """Exact completion time per flow id, as a Fraction.

    Event-driven in rational arithmetic: between events every active flow
    drains at min(cap, upstream/k), and the next event is the earliest
    start or the earliest exact finish.  Only used as an oracle.
    """
    upstream = Fraction(sw.upstream_bandwidth) * 10**9
    cap = Fraction(sw.per_flow_cap) * 10**9
    pending = sorted(((Fraction(f.release) + Fraction(f.offset), f.id,
                       Fraction(f.bytes)) for f in flows), reverse=True)
    left = {}
    done = {}
    t = Fraction(0)
    while pending or left:
        t_next = pending[-1][0] if pending else None
        if left:
            rate = min(cap, upstream / len(left))
            t_finish = t + min(left.values()) / rate
            if t_next is None or t_finish < t_next:
                t_next = t_finish
            for fid in left:
                left[fid] -= rate * (t_next - t)
        t = t_next
        for fid in [fid for fid, b in left.items() if b == 0]:
            del left[fid]
            done[fid] = t
        while pending and pending[-1][0] <= t:
            _, fid, nbytes = pending.pop()
            left[fid] = nbytes
    return done

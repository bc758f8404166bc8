import heapq
import math
import random
from collections import Counter
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from clustersmith.cli import main
from clustersmith.commcost import ResolvedPath
from clustersmith.errors import ValidationError
from clustersmith.parallelism import TimeMatrix, comm_time, total
from clustersmith.topology import (
    Link,
    LinkKind,
    Node,
    NodeKind,
    TopologyGraph,
    build_graph,
    load_topology,
)


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("CLUSTERSMITH_NO_COLOR", "1")


def run(capsys, *argv):
    """`main(argv)`'s exit code, stdout and stderr."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, **files):
    """Write each named file's text into the directory `tmp_path`; their
    paths, as strings, in the same order."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / name) for name in files]


PRESETS = resources.files("clustersmith.presets")


@pytest.fixture
def nvlink4() -> TopologyGraph:
    return load_topology(PRESETS.joinpath("nvlink4.topo").read_text())


@pytest.fixture
def dual_socket() -> TopologyGraph:
    return load_topology(
        PRESETS.joinpath("dual-socket-pcie-switch.topo").read_text())


# The README's hardware rewrites as edits of the dual-socket preset's text:
# (line, lines) replaces that line, and a None line appends the lines.
REWRITES = {
    "gdr": ("flag gdr=false", "flag gdr=true"),
    "socket_direct": (None, "link nic0 cpu0 kind=Pcie bw=16.0 lanes=16"),
    "nic_split": ("link nic0 net0 kind=Ethernet bw=12.5 lat=1.0", """\
node nic0_p1 kind=Nic
node nic0_p2 kind=Nic
link nic0_p1 net0 kind=Ethernet bw=6.25 lat=1.0
link nic0 nic0_p1 kind=IntraDie bw=6.25
link nic0_p2 net0 kind=Ethernet bw=6.25 lat=1.0
link nic0 nic0_p2 kind=IntraDie bw=6.25"""),
    "second_switch": (None, """\
node cpu1_sw kind=PcieSwitch
link cpu1 cpu1_sw kind=Pcie bw=16.0 lanes=16
link cpu1_sw gpu2 kind=Pcie bw=16.0
link cpu1_sw gpu3 kind=Pcie bw=16.0"""),
}


def dual_socket_text(*rewrites: str) -> str:
    """The dual-socket preset's text with the named REWRITES applied in order."""
    text = PRESETS.joinpath("dual-socket-pcie-switch.topo").read_text()
    for name in rewrites:
        line, lines = REWRITES[name]
        if line is None:
            text += lines + "\n"
        else:
            assert text.count(line + "\n") == 1, line
            text = text.replace(line + "\n", lines + "\n")
    return text


def expand(runs):
    """The per-phase row of `(value, count)` runs."""
    return [x for x, count in runs for _ in range(count)]


def expanded_rows(matrix) -> tuple[tuple[float, ...], ...]:
    """Per level, its expanded runs padded with 0.0 to `phase_count`: the
    rows the streamed writers must print.  Only used as an oracle."""
    rows = [expand(runs) for runs in matrix.runs]
    return tuple(tuple(row + [0.0] * (matrix.phase_count - len(row)))
                 for row in rows)


def matrix_of(levels, runs) -> TimeMatrix:
    """The `TimeMatrix` of `levels` with these `runs`, each row totalled."""
    return TimeMatrix(tuple(levels), tuple(runs), tuple(
        total(r, lv.name) for lv, r in zip(levels, runs)))


def time_matrix(levels, g: TopologyGraph) -> TimeMatrix:
    """The `TimeMatrix` of `levels` on `g`, each level priced as
    `cli.load_levels` prices it: `comm_time`, then `total`."""
    return matrix_of(levels, [comm_time(lv, g) for lv in levels])


def link_adjacency(g: TopologyGraph) -> np.ndarray:
    """0/1 int64 adjacency matrix in node declaration order, set link by
    link.  Only used as an oracle."""
    ids = [n.id for n in g.nodes]
    a = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for l in g.links:
        i, j = ids.index(l.endpoint_a), ids.index(l.endpoint_b)
        a[i, j] = a[j, i] = 1
    return a


def dense_normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} of a 0/1 adjacency matrix, by dense N x N
    arithmetic.  Only used as an oracle."""
    a_hat = np.asarray(a, dtype=float) + np.eye(len(a))
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * np.outer(d_inv_sqrt, d_inv_sqrt)


def loop_node_features(g: TopologyGraph, level) -> np.ndarray:
    """The |V| x 14 GNN feature matrix of (g, level), node by node: kind
    one-hot, degree / 4, log10(1 + incident bandwidth) - 1.5, participant
    flag, log10(1 + payload) - 8.5.  Only used as an oracle."""
    kinds = list(NodeKind)
    participants = set(level.participants)
    h = np.zeros((len(g.nodes), len(kinds) + 4))
    incident_bw = {n.id: 0.0 for n in g.nodes}
    for l in g.links:
        incident_bw[l.endpoint_a] += l.bandwidth
        incident_bw[l.endpoint_b] += l.bandwidth
    degree = link_adjacency(g).sum(axis=1)
    for i, node in enumerate(g.nodes):
        h[i, kinds.index(node.kind)] = 1.0
        h[i, 10] = degree[i] / 4.0
        h[i, 11] = np.log10(1.0 + incident_bw[node.id]) - 1.5
        h[i, 12] = 1.0 if node.id in participants else 0.0
        h[i, 13] = np.log10(1.0 + level.payload_bytes) - 8.5
    return h


def random_graph(rng: random.Random, max_nodes: int = 8,
                 connected: bool = True, min_nodes: int = 1) -> TopologyGraph:
    """Random valid topology; spanning tree first when connectivity is
    required, then extra chords."""
    n = rng.randint(min_nodes, max_nodes)
    kinds = list(NodeKind)
    link_kinds = list(LinkKind)
    nodes = []
    for i in range(n):
        if rng.random() < 0.3:
            rng.randint(0, 3)  # the label nodes once had: drawn and dropped,
                               # so that every later draw is unchanged
        nodes.append(Node(
            id=f"n{i}",
            kind=rng.choice(kinds),
            socket_index=rng.randint(0, 1) if rng.random() < 0.3 else None,
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

    tree = set()  # (i, j), i < j, of the spanning tree's links
    if connected:
        for i in range(1, n):
            j = rng.randint(0, i - 1)
            tree.add((j, i))
            links.append(make_link(j, i))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15 and (i, j) not in tree:
                links.append(make_link(i, j))
    return build_graph(nodes, links, gdr=rng.random() < 0.5)


def cluster_graph(rng: random.Random, hosts: int) -> TopologyGraph:
    """A multi-host cluster with GDR off and jittered link speeds.

    Per host: two CPU sockets joined by UPI, host memory on each, two PCIe
    switches per socket with two GPUs each, an NVLink ring with chords over
    the host's eight GPUs (`hNNg0`..`hNNg7`), and a NIC (`hNNnic0`,
    `hNNnic1`) on each socket's first switch.  NICs hang off four leaf
    switches, each linked to two spines.  GPU<->NIC routes therefore
    detour through host memory."""
    def bw(base):
        return round(base * rng.uniform(0.9, 1.1), 3)

    lines, links = ["flag gdr=false"], []
    for h in range(hosts):
        for s in (0, 1):
            cpu, mem, nic = f"h{h:02d}cpu{s}", f"h{h:02d}mem{s}", f"h{h:02d}nic{s}"
            lines += [f"node {cpu} kind=CpuSocket socket={s}",
                      f"node {mem} kind=HostMemory socket={s}",
                      f"node {nic} kind=Nic"]
            links += [f"link {cpu} {mem} kind=IntraDie bw={bw(100)} lat=0.1",
                      f"link h{h:02d}sw{s}0 {nic} kind=Pcie bw={bw(32)}",
                      f"link {nic} leaf{(2 * h + s) % 4} kind=Ethernet "
                      f"bw={bw(25)} lat=1.0"]
            for w in (0, 1):
                sw = f"h{h:02d}sw{s}{w}"
                lines.append(f"node {sw} kind=PcieSwitch")
                links.append(f"link {cpu} {sw} kind=Pcie bw={bw(32)} lat=0.5")
                for k in (0, 1):
                    gpu = f"h{h:02d}g{4 * s + 2 * w + k}"
                    lines.append(f"node {gpu} kind=Gpu")
                    links.append(f"link {sw} {gpu} kind=Pcie bw={bw(32)} lat=0.5")
        links.append(f"link h{h:02d}cpu0 h{h:02d}cpu1 kind=Upi bw={bw(20.8)}")
        for k in range(8):
            links.append(f"link h{h:02d}g{k} h{h:02d}g{(k + 1) % 8} "
                         f"kind=NvLink bw={bw(50)} lat=0.3")
        for k in range(4):
            links.append(f"link h{h:02d}g{k} h{h:02d}g{k + 4} "
                         f"kind=NvLink bw={bw(25)}")
    for leaf in range(4):
        lines.append(f"node leaf{leaf} kind=NetworkSwitch")
    for spine in range(2):
        lines.append(f"node spine{spine} kind=NetworkSwitch")
        links += [f"link leaf{leaf} spine{spine} kind=Ethernet bw={bw(100)}"
                  for leaf in range(4)]
    return load_topology("\n".join(lines + links) + "\n")


def one_way_route(g: TopologyGraph, src: str, dst: str):
    """The route from src to dst as a `ResolvedPath`, by a one-way search.

    Takes the bottleneck and each node's links from the graph's routing
    index, which lists a node pair's links in tie-break order, so the
    first wide enough is the one taken.  Then hop distances to the goal
    state (dst, mem_seen) over links at least the bottleneck wide, level
    by level from the goal until the start's level is complete, and a
    greedy walk from the start to the smallest-id neighbour one hop
    nearer.  Raises the
    `ValidationError` that `resolve_path` raises.  Only used as an oracle.
    """
    ix = g.routing
    s, t = ix.index[src], ix.index[dst]
    kinds = {ix.kinds[s], ix.kinds[t]}
    constrained = (not ix.gdr and NodeKind.GPU in kinds
                   and (NodeKind.NIC in kinds or NodeKind.DPU in kinds))
    bottleneck = ix._bottleneck(s, t, constrained)
    if not bottleneck:
        raise ValidationError(
            f"no route from {src!r} to {dst!r}"
            + (" honoring host-memory staging" if constrained else ""))
    start, goal = (s, not constrained), (t, True)
    is_mem, ids = ix.is_mem, ix.ids
    wide = [[(v, l) for v, bw, l in nbrs if bw >= bottleneck] for nbrs in ix.adj]
    dist = {goal: 0}
    frontier = [goal]
    while start not in dist:
        nxt_front = []
        for node, f in frontier:
            for prev, _ in wide[node]:
                for pf in (False, True):
                    pstate = (prev, pf)
                    if (pf or bool(is_mem[node])) == f and pstate not in dist:
                        dist[pstate] = dist[(node, f)] + 1
                        nxt_front.append(pstate)
        frontier = nxt_front
    state, nodes, links = start, [src], []
    while state != goal:
        node, f = state
        v, link = min(((v, l) for v, l in wide[node]
                       if dist.get((v, f or bool(is_mem[v]))) == dist[state] - 1),
                      key=lambda c: ids[c[0]])
        state = (v, f or bool(is_mem[v]))
        nodes.append(ids[v])
        links.append(link)
    return ResolvedPath(tuple(nodes), tuple(links), bottleneck,
                        math.fsum(l.latency for l in links),
                        math.fsum(l.extra_overhead_b for l in links))


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


def runs_by_enumeration(level, g: TopologyGraph):
    """Each run of `level` on `g` as `(seconds, count)`, or None if a
    transfer has no route.  Only used as an oracle.

    The transfers come from each strategy's definition: a ring sends a 1/n
    chunk to the next participant 2(n - 1) times; a parameter server or an
    in-network aggregation takes every payload to the server, then back; a
    pipeline sends its activations down the chain once per micro-batch.
    Fewer than two participants send nothing.  Each transfer takes the
    `best_path_by_enumeration` route.  In each phase, the transfers that
    cross a link in one direction (either, on a link that is not duplex)
    share its bandwidth equally, and a transfer takes its latency and
    overhead, summed with `fsum`, plus its bytes at its narrowest share.
    An in-network aggregation's transfers also take at least their bytes
    over its window of packets per round trip.
    """
    p, n, m = level.participants, len(level.participants), level.payload_bytes
    if n < 2:
        return []
    if level.strategy == "ring_allreduce":
        phases = [([(p[i], p[(i + 1) % n], m / n) for i in range(n)],
                   2 * (n - 1))]
    elif level.strategy == "pipeline_p2p":
        phases = [([(p[i], p[i + 1], level.activation_bytes)
                    for i in range(n - 1)], level.microbatches)]
    else:
        s = level.server
        phases = [([(w, s, m) for w in p], 1), ([(s, w, m) for w in p], 1)]
    window = math.inf
    if level.strategy == "in_network_aggregation":
        rtt = level.rtt_us * 1e-6
        if rtt:
            window = float(level.window_packets) * level.packet_bytes / rtt
    position = {id(l): k for k, l in enumerate(g.links)}

    def crossings(route):  # (link position, direction) of each hop
        nodes, links = route
        return [(position[id(l)], nodes[k] if l.duplex else None)
                for k, l in enumerate(links)]

    runs = []
    for transfers, count in phases:
        routes = [best_path_by_enumeration(g, src, dst)
                  for src, dst, _ in transfers]
        if None in routes:
            return None
        shares = Counter(c for route in routes for c in crossings(route))
        seconds = 0.0
        for (_, _, nbytes), route in zip(transfers, routes):
            links = route[1]
            rate = min(links[k].bandwidth * 1e9 / shares[c]
                       for k, c in enumerate(crossings(route)))
            delay = (math.fsum(l.latency for l in links)
                     + math.fsum(l.extra_overhead_b for l in links)) * 1e-6
            seconds = max(seconds, delay + nbytes / rate, nbytes / window)
        runs.append((seconds, count))
    return runs


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


def finish_times(result) -> dict:
    """Each flow's completion time, from the finish events of a
    `contention.simulate` result, in finish order."""
    return {e.flow_id: e.time_s for e in result.events if e.event == "finish"}


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

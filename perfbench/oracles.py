"""Independent reference computations for checking clustersmith's output.

Nothing here imports clustersmith.  Each oracle works from the documented
file formats and models, by a different method from the program's:

- `Topology` parses topology files with its own reader;
- `phase_bounds` brackets plan phase times with a widest-path search;
- `ring_allreduce_seconds` routes by enumerating simple paths (small graphs);
- `fair_share_completions` runs the switch model in exact rational numbers;
- `GcnModel` reads a saved model file and runs the GCN forward pass;
- `finite_difference_check` compares gradients with central differences.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GB = 1e9   # bytes per GB, as in the bandwidth unit GB/s
US = 1e-6  # seconds per microsecond

# Node kinds in declaration order of the file format; the GCN's one-hot
# feature block follows this order.
NODE_KINDS = ("CpuSocket", "ChipletCoreComplex", "IoDie", "Gpu", "PcieSwitch",
              "Nic", "Dpu", "HostMemory", "StorageDevice", "NetworkSwitch")


# ---------------------------------------------------------------------------
# Topology files


@dataclass(frozen=True)
class Edge:
    a: str
    b: str
    bw: float      # GB/s
    cost: float    # lat + b, microseconds
    duplex: bool
    order: int     # declaration index


class Topology:
    """Nodes, links and the GDR flag of one topology file."""

    def __init__(self, kinds: dict, edges: list, gdr: bool):
        self.kinds = kinds          # id -> kind name, in declaration order
        self.edges = edges
        self.gdr = gdr
        self.adj = {n: [] for n in kinds}   # node -> [(neighbour, Edge)]
        for e in edges:
            self.adj[e.a].append((e.b, e))
            self.adj[e.b].append((e.a, e))

    @classmethod
    def parse(cls, text: str) -> "Topology":
        kinds, edges, gdr = {}, [], False
        for raw in text.splitlines():
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            kv = dict(t.split("=", 1) for t in tokens if "=" in t)
            if tokens[0] == "node":
                kinds[tokens[1]] = kv["kind"]
            elif tokens[0] == "link":
                edges.append(Edge(tokens[1], tokens[2], float(kv["bw"]),
                                  float(kv.get("lat", 0.0)) + float(kv.get("b", 0.0)),
                                  kv.get("duplex", "true") == "true", len(edges)))
            elif tokens[0] == "flag":
                gdr = kv.get("gdr") == "true"
        return cls(kinds, edges, gdr)

    def best_edges(self) -> dict:
        """One link per unordered node pair: widest, then lowest lat + b,
        then first declared (the routing rule's link choice)."""
        best = {}
        for e in self.edges:
            key = frozenset((e.a, e.b))
            cur = best.get(key)
            if cur is None or (e.bw, -e.cost) > (cur.bw, -cur.cost):
                best[key] = e
        return best

    def needs_host_memory(self, src: str, dst: str) -> bool:
        kinds = {self.kinds[src], self.kinds[dst]}
        return not self.gdr and "Gpu" in kinds and bool(kinds & {"Nic", "Dpu"})


# ---------------------------------------------------------------------------
# plan-cluster: widest-path bounds on phase times


@dataclass(frozen=True)
class RouteBound:
    width: float    # widest achievable bottleneck, GB/s
    cost_lo: float  # least lat + b over the fewest-hop widest walks, microseconds
    cost_hi: float  # greatest lat + b over those walks, microseconds


def route_bound(topo: Topology, src: str, dst: str) -> RouteBound:
    """Widest walk src -> dst over (node, visited-host-memory) states.

    Every walk the router may return has bottleneck `width` and the fewest
    hops among walks that wide, so its latency lies in [cost_lo, cost_hi].
    """
    def is_mem(n):
        return topo.kinds[n] == "HostMemory"

    start = (src, 0 if topo.needs_host_memory(src, dst) and not is_mem(src) else 1)
    goal = (dst, 1)
    width = {start: math.inf}
    heap = [(-math.inf, start)]
    while heap:
        w, (node, flag) = heapq.heappop(heap)
        w = -w
        if w < width[(node, flag)]:
            continue
        for nxt, e in topo.adj[node]:
            state = (nxt, 1 if flag or is_mem(nxt) else 0)
            nw = min(w, e.bw)
            if nw > width.get(state, 0.0):
                width[state] = nw
                heapq.heappush(heap, (-nw, state))
    if goal not in width:
        raise ValueError(f"no route {src} -> {dst}")
    bottleneck = width[goal]
    # Breadth-first layers on links at least as wide, carrying the least
    # and greatest latency over all fewest-hop walks into each state.
    cost = {start: (0.0, 0.0)}
    layer = [start]
    while goal not in cost:
        nxt_cost = {}
        for state in layer:
            lo, hi = cost[state]
            node, flag = state
            for nxt, e in topo.adj[node]:
                if e.bw < bottleneck:
                    continue
                s2 = (nxt, 1 if flag or is_mem(nxt) else 0)
                if s2 in cost:
                    continue
                prev = nxt_cost.get(s2)
                cand = (lo + e.cost, hi + e.cost)
                nxt_cost[s2] = cand if prev is None else (min(prev[0], cand[0]),
                                                         max(prev[1], cand[1]))
        if not nxt_cost:
            raise ValueError(f"no route {src} -> {dst} at width {bottleneck}")
        cost.update(nxt_cost)
        layer = list(nxt_cost)
    return RouteBound(bottleneck, *cost[goal])


@dataclass(frozen=True)
class Level:
    name: str
    strategy: str
    participants: tuple
    payload: float
    server: str | None
    window_cap: float | None   # bytes/s for in-network aggregation
    microbatches: int
    activation: float

    def phases(self) -> list:
        """Per-phase lists of (src, dst, bytes), as the strategy defines."""
        p, n = self.participants, len(self.participants)
        if n < 2:
            return []
        if self.strategy == "ring_allreduce":
            ring = [(p[i], p[(i + 1) % n], self.payload / n) for i in range(n)]
            return [ring] * (2 * (n - 1))
        if self.strategy in ("parameter_server", "in_network_aggregation"):
            return [[(w, self.server, self.payload) for w in p],
                    [(self.server, w, self.payload) for w in p]]
        if self.strategy == "pipeline_p2p":
            return [[(p[i], p[i + 1], self.activation) for i in range(n - 1)]] * self.microbatches
        raise ValueError(f"unknown strategy {self.strategy}")


def parse_levels(text: str) -> list:
    levels = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kv = dict(t.split("=", 1) for t in tokens[2:])
        window_cap = None
        if kv["strategy"] == "in_network_aggregation":
            window_cap = (int(kv.get("window", 4)) * int(kv.get("pkt", 1100))
                          / (float(kv.get("rtt", 10.0)) * US))
        levels.append(Level(
            name=tokens[1], strategy=kv["strategy"],
            participants=tuple(x for x in kv["participants"].split(",") if x),
            payload=float(kv["payload"]), server=kv.get("server"),
            window_cap=window_cap, microbatches=int(kv.get("microbatches", 1)),
            activation=float(kv.get("activation", 0.0))))
    return levels


def flow_phase_count(levels) -> int:
    """Flow evaluations per pass over the levels: sum of flows per phase."""
    return sum(len(phase) for lv in levels for phase in lv.phases())


def phase_bounds(topo: Topology, level: Level, routes: dict) -> list:
    """[(lo, hi)] seconds per phase.

    A flow's rate is at most its route's bottleneck, and at least that
    divided by the number of route occurrences sharing one link direction,
    which is at most twice the flows in the phase (a fewest-hop walk
    crosses a link direction at most once before and once after its
    host-memory visit).
    """
    out = []
    for phase in level.phases():
        share = 2 * len(phase)
        lo = hi = 0.0
        for src, dst, nbytes in phase:
            key = (src, dst)
            if key not in routes:
                routes[key] = route_bound(topo, src, dst)
            r = routes[key]
            f_lo = r.cost_lo * US + nbytes / (r.width * GB)
            f_hi = r.cost_hi * US + nbytes * share / (r.width * GB)
            if level.window_cap is not None:
                f_lo = max(f_lo, nbytes / level.window_cap)
                f_hi = max(f_hi, nbytes / level.window_cap)
            lo, hi = max(lo, f_lo), max(hi, f_hi)
        out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# Ring all-reduce by brute force over simple paths


def _simple_paths(adj: dict, src: str, dst: str):
    stack = [(src, (src,), ())]
    while stack:
        node, nodes, edges = stack.pop()
        if node == dst:
            yield nodes, edges
            continue
        for nxt, e in adj[node]:
            if nxt not in nodes:
                stack.append((nxt, nodes + (nxt,), edges + (e,)))


def brute_force_route(topo: Topology, src: str, dst: str):
    """(nodes, edges) of the widest simple path, then fewest hops, then the
    lexicographically smallest node sequence.  For flows that need no
    host-memory detour the widest fewest-hop walk is a simple path."""
    if topo.needs_host_memory(src, dst):
        raise ValueError("brute-force routing covers unconstrained flows only")
    adj = {n: [] for n in topo.kinds}
    for e in topo.best_edges().values():
        adj[e.a].append((e.b, e))
        adj[e.b].append((e.a, e))
    best = None
    for nodes, edges in _simple_paths(adj, src, dst):
        key = (-min(e.bw for e in edges), len(edges), nodes)
        if best is None or key < best[0]:
            best = (key, nodes, edges)
    if best is None:
        raise ValueError(f"no route {src} -> {dst}")
    return best[1], best[2]


def ring_allreduce_seconds(topo: Topology, participants, payload: float) -> float:
    """Analytic ring all-reduce time: 2(n-1) identical phases, each flow
    rate-limited by equal shares of every link direction it crosses."""
    n = len(participants)
    if n < 2:
        return 0.0
    routes = [brute_force_route(topo, participants[i], participants[(i + 1) % n])
              for i in range(n)]
    share = {}
    for nodes, edges in routes:
        for u, e in zip(nodes, edges):
            key = (e.order, u if e.duplex else None)
            share[key] = share.get(key, 0) + 1
    phase = 0.0
    for nodes, edges in routes:
        rate = min(e.bw * GB / share[(e.order, u if e.duplex else None)]
                   for u, e in zip(nodes, edges))
        phase = max(phase, sum(e.cost for e in edges) * US + payload / n / rate)
    return 2 * (n - 1) * phase


# ---------------------------------------------------------------------------
# Switch contention in exact arithmetic


def _water_fill(caps: list, capacity: Fraction) -> list:
    """Max-min fair rates for flows with the given caps sharing capacity."""
    order = sorted(range(len(caps)), key=lambda i: caps[i])
    rates = [Fraction(0)] * len(caps)
    left, m = capacity, len(caps)
    for i in order:
        rates[i] = min(caps[i], left / m)
        left -= rates[i]
        m -= 1
    return rates


def fair_share_completions(flows, upstream_gbps: float, cap_gbps: float) -> dict:
    """Exact completion time per flow id.

    flows: (id, bytes, start seconds).  Every active flow has the same cap,
    and all share the upstream link max-min fairly; between events rates
    are constant, so each event time is found exactly.
    """
    upstream = Fraction(upstream_gbps) * 10 ** 9
    cap = Fraction(cap_gbps) * 10 ** 9
    pending = sorted(((Fraction(s), fid, Fraction(b)) for fid, b, s in flows),
                     key=lambda x: (x[0], x[1]))
    pending.reverse()
    left = {}
    done = {}
    t = Fraction(0)
    while pending or left:
        ids = list(left)
        rates = dict(zip(ids, _water_fill([cap] * len(ids), upstream)))
        t_finish = min((t + left[i] / rates[i] for i in ids), default=None)
        t_start = pending[-1][0] if pending else None
        t_next = t_finish if t_start is None or (t_finish is not None
                                                 and t_finish <= t_start) else t_start
        for i in ids:
            left[i] -= rates[i] * (t_next - t)
        t = t_next
        for i in ids:
            if left[i] == 0:
                del left[i]
                done[i] = t
        while pending and pending[-1][0] <= t:
            _, fid, nbytes = pending.pop()
            left[fid] = nbytes
    return done


# ---------------------------------------------------------------------------
# GCN forward pass and gradients


class GcnModel:
    """Weights read from a `clustersmith-gnn v1` model file."""

    def __init__(self, text: str):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if lines[0] != "clustersmith-gnn v1":
            raise ValueError("not a clustersmith-gnn v1 model file")
        fields = dict(ln.split(" ", 1) for ln in lines[1:])
        dims = [int(x) for x in fields["dims"].split()]

        def arr(key):
            return np.array([float(x) for x in fields[key].split()])

        self.weights = [arr(f"W{i}").reshape(a, b)
                        for i, (a, b) in enumerate(zip(dims, dims[1:]))]
        self.biases = [arr(f"b{i}") for i in range(len(dims) - 1)]
        self.head_w = arr("head_w")
        self.head_b = float(fields["head_b"])
        self.mu = float(fields["label_mu"])
        self.sigma = float(fields["label_sigma"])

    def params(self) -> list:
        """Parameter arrays in the order W0, b0, W1, b1, ..., head_w, head_b."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out += [w, b]
        return out + [self.head_w, np.array([self.head_b])]


def gcn_inputs(topo: Topology, participants, payload: float):
    """(a_hat, h): renormalised adjacency with self-loops and the 14
    features per node (kind one-hot, degree / 4, log10(1 + incident GB/s)
    - 1.5, participant flag, log10(1 + payload) - 8.5)."""
    ids = list(topo.kinds)
    pos = {n: i for i, n in enumerate(ids)}
    a = np.eye(len(ids))
    bw = np.zeros(len(ids))
    for e in topo.edges:
        a[pos[e.a], pos[e.b]] = a[pos[e.b], pos[e.a]] = 1.0
        bw[pos[e.a]] += e.bw
        bw[pos[e.b]] += e.bw
    d = 1.0 / np.sqrt(a.sum(axis=1))
    a_hat = d[:, None] * a * d[None, :]
    h = np.zeros((len(ids), len(NODE_KINDS) + 4))
    members = set(participants)
    for i, n in enumerate(ids):
        h[i, NODE_KINDS.index(topo.kinds[n])] = 1.0
        h[i, -4] = (a[i].sum() - 1.0) / 4.0
        h[i, -3] = math.log10(1.0 + bw[i]) - 1.5
        h[i, -2] = 1.0 if n in members else 0.0
        h[i, -1] = math.log10(1.0 + payload) - 8.5
    return a_hat, h


def gcn_forward(params: list, a_hat, h):
    """(normalised log-time output, per-layer ReLU masks)."""
    x = h
    masks = []
    *layers, head_w, head_b = params
    for w, b in zip(layers[::2], layers[1::2]):
        pre = a_hat @ (x @ w) + b
        masks.append(pre > 0)
        x = np.where(masks[-1], pre, 0.0)
    return float(x.mean(axis=0) @ head_w + head_b[0]), masks


def gcn_predict_seconds(model: GcnModel, a_hat, h) -> float:
    z, _ = gcn_forward(model.params(), a_hat, h)
    return math.exp(z * model.sigma + model.mu)


def finite_difference_check(model: GcnModel, a_hat, h, target: float,
                            grads: list, eps: float = 1e-6):
    """(largest |analytic - central difference| over every parameter,
    largest |central difference|, components skipped).

    The loss is (output - target)^2.  A component whose +/- eps step
    flips a ReLU is skipped, since the loss has a kink there and the
    difference quotient is not a derivative.
    """
    params = [p.astype(float, copy=True) for p in model.params()]
    _, base_masks = gcn_forward(params, a_hat, h)
    worst = scale = 0.0
    skipped = 0
    for p, g in zip(params, grads):
        flat, gflat = p.reshape(-1), np.asarray(g, dtype=float).reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            z_hi, m_hi = gcn_forward(params, a_hat, h)
            flat[k] = orig - eps
            z_lo, m_lo = gcn_forward(params, a_hat, h)
            flat[k] = orig
            if any((a != b).any() or (a != c).any()
                   for a, b, c in zip(base_masks, m_hi, m_lo)):
                skipped += 1
                continue
            fd = ((z_hi - target) ** 2 - (z_lo - target) ** 2) / (2 * eps)
            worst = max(worst, abs(fd - gflat[k]))
            scale = max(scale, abs(fd))
    return worst, scale, skipped

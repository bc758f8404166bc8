import gc
import hashlib
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersmith.commcost import path_time, resolve_path
from clustersmith.errors import ValidationError
from clustersmith.topology import (
    Link,
    LinkKind,
    Node,
    NodeKind,
    TopologyGraph,
    build_graph,
    load_topology,
)

from conftest import (
    best_path_by_enumeration,
    cluster_graph,
    enumerate_simple_paths,
    one_way_route,
    random_graph,
    widest_state_bottlenecks,
)


def link_seconds(nbytes, bw, lat=0.0, b=0.0, fraction=1.0):
    """`path_time` of `nbytes` over the routed path of one link a-b, at
    `fraction` of its bandwidth, as a share of its lanes would give."""
    g = build_graph([Node("a", NodeKind.GPU), Node("b", NodeKind.GPU)],
                    [Link("a", "b", LinkKind.PCIE, bw, lat,
                          extra_overhead_b=b)])
    return path_time(nbytes, resolve_path(g, "a", "b"), bw * 1e9 * fraction)


def test_link_time_basic():
    assert link_seconds(10e9, 40.0) == pytest.approx(0.25)


def test_link_time_two_a_plus_b():
    # a = 1 s, b = 0.2 s
    full = link_seconds(10e9, 10.0, b=0.2e6)
    half = link_seconds(10e9, 10.0, b=0.2e6, fraction=0.5)
    assert full == pytest.approx(1.2)
    assert half == pytest.approx(2.2)
    assert half < 2 * full


def test_link_time_zero_payload():
    assert link_seconds(0, 10.0, lat=3.0, b=2.0) == pytest.approx(5e-6)


@given(bw=st.floats(0.5, 200.0), b=st.floats(0.001, 100.0),
       nbytes=st.floats(0, 1e11))
def test_sub_doubling_property(bw, b, nbytes):
    assert link_seconds(nbytes, bw, b=b, fraction=0.5) < 2 * link_seconds(
        nbytes, bw, b=b)


@given(bw=st.floats(0.5, 200.0), nbytes=st.floats(0, 1e11))
def test_sub_doubling_equality_at_zero_b(bw, nbytes):
    assert link_seconds(nbytes, bw, fraction=0.5) == pytest.approx(
        2 * link_seconds(nbytes, bw))


# ---------------------------------------------------------------------------
# Paths

GDR_FIXTURE = """
# direct gpu-nic link exists, but without GDR the route must stage in memory
flag gdr=false
node gpu kind=Gpu
node mem kind=HostMemory
node cpu kind=CpuSocket
node nic kind=Nic
link gpu nic kind=Pcie bw=16
link gpu cpu kind=Pcie bw=16
link cpu mem kind=IntraDie bw=80 lat=0.2
link mem nic kind=Pcie bw=16
link cpu nic kind=Pcie bw=16
"""


def test_direct_link_is_single_hop():
    g = load_topology("node a kind=Gpu\nnode b kind=Gpu\n"
                      "link a b kind=NvLink bw=40")
    p = resolve_path(g, "a", "b")
    assert p.nodes == ("a", "b")
    assert len(p.links) == 1
    assert p.bottleneck_bandwidth == 40.0


def test_parallel_links_pick_widest_then_least_overhead():
    g = load_topology("node a kind=Gpu\nnode b kind=Gpu\n"
                      "link a b kind=NvLink bw=40 lat=3\n"
                      "link a b kind=NvLink bw=40 lat=1 b=1\n"
                      "link a b kind=NvLink bw=40 lat=2\n"
                      "link a b kind=Pcie bw=16\n")
    p = resolve_path(g, "b", "a")
    # widest, then least latency + b (2 us), then the first declared
    assert p.links == (g.links[1],)
    assert (p.bottleneck_bandwidth, p.total_latency, p.total_b) == (40.0, 1.0, 1.0)


def test_gdr_off_forces_host_memory():
    g = load_topology(GDR_FIXTURE)
    p = resolve_path(g, "gpu", "nic")
    assert "mem" in p.nodes
    # enumeration oracle: best simple path through memory
    candidates = [c for c in enumerate_simple_paths(g, "gpu", "nic")
                  if "mem" in c[0]]
    best = min(candidates,
               key=lambda c: (-min(l.bandwidth for l in c[1]), len(c[1]), c[0]))
    assert min(l.bandwidth for l in p.links) >= min(l.bandwidth for l in best[1])


def test_gdr_on_takes_direct_hop():
    g = load_topology(GDR_FIXTURE.replace("gdr=false", "gdr=true"))
    p = resolve_path(g, "gpu", "nic")
    assert p.nodes == ("gpu", "nic")


def test_equal_walks_take_the_smallest_id_one():
    # Two equal-width two-hop walks, z1's declared first; both middle
    # states are where the two searches meet.
    g = load_topology("node s kind=Gpu\nnode z1 kind=PcieSwitch\n"
                      "node a1 kind=PcieSwitch\nnode t kind=Gpu\n"
                      "link s z1 kind=Pcie bw=16\nlink z1 t kind=Pcie bw=16\n"
                      "link s a1 kind=Pcie bw=16\nlink a1 t kind=Pcie bw=16\n")
    assert resolve_path(g, "s", "t").nodes == ("s", "a1", "t")
    # The searches meet at y and x, in that order: y ends the smaller
    # walk from s (via a), though x is the smaller id.
    g = load_topology("node s kind=Gpu\nnode a kind=PcieSwitch\n"
                      "node b kind=PcieSwitch\nnode x kind=PcieSwitch\n"
                      "node y kind=PcieSwitch\nnode t kind=Gpu\n"
                      "link s a kind=Pcie bw=16\nlink a y kind=Pcie bw=16\n"
                      "link y t kind=Pcie bw=16\nlink s b kind=Pcie bw=16\n"
                      "link b x kind=Pcie bw=16\nlink x t kind=Pcie bw=16\n")
    assert resolve_path(g, "s", "t").nodes == ("s", "a", "y", "t")


def test_gdr_off_stages_in_smallest_id_memory():
    # mem1 and mem0 are equally deep, mem1 declared first
    g = load_topology("flag gdr=false\nnode gpu kind=Gpu\n"
                      "node sw kind=PcieSwitch\nnode mem1 kind=HostMemory\n"
                      "node mem0 kind=HostMemory\nnode nic kind=Nic\n"
                      "link gpu sw kind=Pcie bw=16\nlink sw mem1 kind=Pcie bw=16\n"
                      "link sw mem0 kind=Pcie bw=16\nlink sw nic kind=Pcie bw=16\n")
    assert resolve_path(g, "gpu", "nic").nodes == ("gpu", "sw", "mem0", "sw", "nic")
    assert resolve_path(g, "nic", "gpu").nodes == ("nic", "sw", "mem0", "sw", "gpu")


def test_unknown_and_unreachable():
    g = load_topology("node a kind=Gpu\nnode b kind=Gpu")
    with pytest.raises(ValidationError, match="unknown node 'zz'"):
        resolve_path(g, "a", "zz")
    with pytest.raises(ValidationError, match="no route from 'a' to 'b'"):
        resolve_path(g, "a", "b")
    with pytest.raises(ValidationError, match="src and dst must differ"):
        resolve_path(g, "a", "a")


def test_path_time_consistency_one_hop():
    g = load_topology("node a kind=Gpu\nnode b kind=Gpu\n"
                      "link a b kind=NvLink bw=40 lat=1 b=0.5")
    p = resolve_path(g, "a", "b")
    assert path_time(10e9, p) == pytest.approx(1.5e-6 + 0.25)


def test_path_time_bottleneck_rule():
    g = load_topology(
        "node a kind=Gpu\nnode m kind=PcieSwitch\nnode b kind=Gpu\n"
        "link a m kind=Pcie bw=32\nlink m b kind=Pcie bw=16")
    assert path_time(16e9, resolve_path(g, "a", "b")) == pytest.approx(1.0)


DUAL_SOCKET_NIC = """
node gpu0 kind=Gpu
node cpu0 kind=CpuSocket socket=0
node cpu1 kind=CpuSocket socket=1
node nic1 kind=Nic
node net kind=NetworkSwitch
link gpu0 cpu0 kind=Pcie bw=16
link cpu0 cpu1 kind=Upi bw=10 lat=1.5
link cpu1 nic1 kind=Pcie bw=16
link nic1 net kind=Ethernet bw=12
"""


def test_socket_direct_beats_upi_detour():
    # no HostMemory in this fixture, so enable GDR to route plainly
    text = DUAL_SOCKET_NIC + "flag gdr=true\n"
    via_upi = path_time(8e9, resolve_path(load_topology(text), "gpu0", "nic1"))
    direct = load_topology(text + "link nic1 cpu0 kind=Pcie bw=16\n")
    via_direct = path_time(8e9, resolve_path(direct, "gpu0", "nic1"))
    assert via_direct < via_upi


def test_resolve_matches_enumeration_on_random_graphs():
    rng = random.Random(23)
    checked = constrained = detours = unreachable = 0
    for _ in range(200):
        g = random_graph(rng, max_nodes=8)
        direct = TopologyGraph(g.nodes, g.links, g.gdr)  # not via build_graph
        ids = [n.id for n in g.nodes]
        for src in ids:
            for dst in ids:
                if src == dst:
                    continue
                kinds = {g.node(src).kind, g.node(dst).kind}
                constrained += (not g.gdr and NodeKind.GPU in kinds
                                and (NodeKind.NIC in kinds or NodeKind.DPU in kinds))
                expect = best_path_by_enumeration(g, src, dst)
                if expect is None:
                    for graph in (g, direct):
                        with pytest.raises(ValidationError,
                                           match="no route from"):
                            resolve_path(graph, src, dst)
                    unreachable += 1
                    continue
                got = resolve_path(g, src, dst)
                exp_nodes, exp_links = expect
                assert got.nodes == exp_nodes
                assert got.links == exp_links
                assert got.bottleneck_bandwidth == min(l.bandwidth for l in exp_links)
                # a second query, and the directly built graph, walk it again
                assert resolve_path(g, src, dst) == resolve_path(direct, src, dst) == got
                checked += 1
                detours += len(set(exp_nodes)) < len(exp_nodes)
    assert checked > 3000 and unreachable > 30
    assert constrained > 30 and detours > 15


# SHA-256 over the route of every ordered pair of the corpus below, as its
# repr or its ValidationError message, one a line.  Recorded with the
# one-way hop search that the two-way search replaced, so any change of a
# route, a tie-break or a message shows.
ROUTE_CORPUS_SHA256 = "7d59dd6c8b69e0476368ff0604fbb7cae929658e1b75807ab697bd0b27e2c030"


def test_routes_match_recorded_digest():
    rng = random.Random(41)
    digest = hashlib.sha256()
    pairs = unreachable = 0
    for i in range(60):  # 1-40 nodes, one graph in four maybe disconnected
        g = random_graph(rng, max_nodes=40, connected=i % 4 != 3)
        ids = [n.id for n in g.nodes]
        for src in ids:
            for dst in ids:
                if src == dst:
                    continue
                try:
                    out = repr(resolve_path(g, src, dst))
                except ValidationError as exc:
                    out = str(exc)
                    unreachable += 1
                digest.update(out.encode() + b"\n")
                pairs += 1
    assert (pairs, unreachable) == (32096, 330)
    assert digest.hexdigest() == ROUTE_CORPUS_SHA256


def test_cluster_routes_match_one_way_search():
    g = cluster_graph(random.Random(3), hosts=32)
    gpus = [n.id for n in g.nodes if n.kind == NodeKind.GPU]
    assert len(gpus) == 256
    ring = list(zip(gpus, gpus[1:] + gpus[:1]))
    server = [(gpu, "h00nic0") for gpu in gpus] + [("h00nic0", gpu) for gpu in gpus]
    staged = 0
    for src, dst in ring + server:
        got = resolve_path(g, src, dst)
        assert got == one_way_route(g, src, dst)
        staged += any(g.node(v).kind == NodeKind.HOST_MEMORY for v in got.nodes)
    assert staged >= len(server)  # GDR is off


def test_large_random_routes_match_one_way_search():
    # The recorded digest covers graphs of up to 40 nodes; these have 100-300,
    # with GDR off and on, and half the pairs GPU<->NIC/DPU.
    rng = random.Random(43)
    seen = Counter()
    for _ in range(4):
        g = random_graph(rng, max_nodes=300, min_nodes=100)
        ids = [n.id for n in g.nodes]
        gpus = [n.id for n in g.nodes if n.kind == NodeKind.GPU]
        nics = [n.id for n in g.nodes
                if n.kind in (NodeKind.NIC, NodeKind.DPU)]
        pairs = [rng.sample(ids, 2) for _ in range(100)] + [
            rng.sample([rng.choice(gpus), rng.choice(nics)], 2)
            for _ in range(100)]
        for gdr in (False, True):
            graph = TopologyGraph(g.nodes, g.links, gdr)
            for src, dst in pairs:
                got = resolve_path(graph, src, dst)
                assert got == one_way_route(graph, src, dst)
                seen["revisits"] += len(set(got.nodes)) < len(got.nodes)
                seen["long"] += len(got.links) >= 8
    assert seen["revisits"] > 40 and seen["long"] > 600


def random_routing_graph(rng: random.Random, n: int, mem_share: float,
                         gdr: bool) -> TopologyGraph:
    """n nodes in one to six components, with few distinct bandwidths,
    parallel links and long chains; about `mem_share` of the nodes are host
    memories."""
    others = (NodeKind.CPU_SOCKET, NodeKind.PCIE_SWITCH, NodeKind.NETWORK_SWITCH)
    nodes, members = [], {}
    components = rng.randint(1, 6)
    for i in range(n):
        r = rng.random()
        kind = (NodeKind.HOST_MEMORY if r < mem_share
                else rng.choice((NodeKind.GPU, NodeKind.NIC, NodeKind.DPU))
                if r < 0.6 else rng.choice(others))
        nodes.append(Node(id=f"n{i}", kind=kind))
        members.setdefault(rng.randrange(components), []).append(i)
    pairs = []
    for group in members.values():
        for k in range(1, len(group)):
            # half the time extend a chain, so the trees grow deep
            pairs.append((group[k - 1] if rng.random() < 0.5
                          else rng.choice(group[:k]), group[k]))
        if len(group) > 1:
            pairs += [rng.sample(group, 2) for _ in range(rng.randint(0, len(group)))]
    pairs += rng.sample(pairs, len(pairs) // 5)  # parallel links
    # links to host memory are often the narrow ones, so that the detour
    # through memory, not the pair itself, sets many bottlenecks
    mem = {i for i, node in enumerate(nodes) if node.kind == NodeKind.HOST_MEMORY}
    links = [Link(endpoint_a=f"n{i}", endpoint_b=f"n{j}", kind=LinkKind.PCIE,
                  bandwidth=rng.choice((1.0, 2.0) if {i, j} & mem else
                                       (1.0, 2.0, 4.0, 8.0)))
             for i, j in pairs]
    return TopologyGraph(tuple(nodes), tuple(links), gdr)


def test_bottleneck_matches_state_graph_oracle_at_scale():
    rng = random.Random(31)
    seen = Counter()  # (host-memory constrained, reachable) -> pairs
    cases = [(300, 0.02, False), (300, 0.3, False), (150, 0.0, False),
             (150, 0.1, True)] + [
        (n, rng.choice((0.0, 0.02, 0.1, 0.3)), rng.random() < 0.25)
        for n in (80, 40, 40, 20, 20, 12, 12, 12, 6, 6, 6, 3, 2)]
    for n, mem_share, gdr in cases:
        g = random_routing_graph(rng, n, mem_share, gdr)
        for src in (node.id for node in g.nodes):
            for dst, width in widest_state_bottlenecks(g, src).items():
                if width:
                    assert resolve_path(g, src, dst).bottleneck_bandwidth == width
                else:
                    with pytest.raises(ValidationError, match="no route from"):
                        resolve_path(g, src, dst)
                kinds = {g.node(src).kind, g.node(dst).kind}
                constrained = (not g.gdr and NodeKind.GPU in kinds and (
                    NodeKind.NIC in kinds or NodeKind.DPU in kinds))
                seen[(constrained, width > 0)] += 1
    assert seen[(False, True)] > 50000 and seen[(False, False)] > 50000
    assert seen[(True, True)] > 5000 and seen[(True, False)] > 5000


def test_routed_graph_is_freed_by_reference_counting():
    # the routing index lives on the graph; a reference back would make a
    # cycle that keeps every routed graph alive until a full collection
    g = load_topology(GDR_FIXTURE)
    resolve_path(g, "gpu", "nic")
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_gdr_off_always_stages_in_memory_random():
    rng = random.Random(5)
    found = 0
    for _ in range(300):
        g = random_graph(rng, max_nodes=8)
        if g.gdr:
            continue
        gpus = [n.id for n in g.nodes if n.kind == NodeKind.GPU]
        nics = [n.id for n in g.nodes if n.kind in (NodeKind.NIC, NodeKind.DPU)]
        for src in gpus:
            for dst in nics:
                try:
                    p = resolve_path(g, src, dst)
                except ValidationError as exc:
                    assert str(exc).startswith("no route from")
                    continue
                assert any(g.node(x).kind == NodeKind.HOST_MEMORY
                           for x in p.nodes)
                found += 1
    assert found > 10


@given(st.floats(0, 1e11), st.floats(0, 1e11))
@settings(max_examples=50)
def test_path_time_monotone_in_bytes(x, y):
    g = load_topology("node a kind=Gpu\nnode b kind=Gpu\n"
                      "link a b kind=NvLink bw=25 lat=2")
    p = resolve_path(g, "a", "b")
    lo, hi = sorted((x, y))
    assert path_time(lo, p) <= path_time(hi, p)

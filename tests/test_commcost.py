import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersmith.commcost import link_time, path_time, resolve_path
from clustersmith.errors import InvalidLaneFraction, Unreachable, UnknownNode
from clustersmith.topology import (
    EnableGdr,
    Link,
    LinkKind,
    Node,
    NodeKind,
    SocketDirect,
    TopologyGraph,
    apply_transform,
    load_topology,
)

from conftest import (
    best_path_by_enumeration,
    enumerate_simple_paths,
    random_graph,
    widest_state_bottlenecks,
)


def make_link(bw, lat=0.0, b=0.0):
    return Link(endpoint_a="a", endpoint_b="b", kind=LinkKind.PCIE,
                bandwidth=bw, latency=lat, extra_overhead_b=b)


def test_link_time_basic():
    assert link_time(10e9, make_link(40.0)) == pytest.approx(0.25)


def test_link_time_two_a_plus_b():
    # a = 1 s, b = 0.2 s
    link = make_link(10.0, b=0.2e6)
    full = link_time(10e9, link, 1.0)
    half = link_time(10e9, link, 0.5)
    assert full == pytest.approx(1.2)
    assert half == pytest.approx(2.2)
    assert half < 2 * full


def test_link_time_zero_payload():
    link = make_link(10.0, lat=3.0, b=2.0)
    assert link_time(0, link) == pytest.approx(5e-6)


def test_link_time_rejects_bad_fraction():
    with pytest.raises(InvalidLaneFraction):
        link_time(1e9, make_link(10.0), 0.3)


@given(bw=st.floats(0.5, 200.0), b=st.floats(0.001, 100.0),
       nbytes=st.floats(0, 1e11))
def test_sub_doubling_property(bw, b, nbytes):
    link = make_link(bw, b=b)
    assert link_time(nbytes, link, 0.5) < 2 * link_time(nbytes, link, 1.0)


@given(bw=st.floats(0.5, 200.0), nbytes=st.floats(0, 1e11))
def test_sub_doubling_equality_at_zero_b(bw, nbytes):
    link = make_link(bw)
    assert link_time(nbytes, link, 0.5) == pytest.approx(
        2 * link_time(nbytes, link, 1.0))


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
    assert p.hops == 1
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


def test_unknown_and_unreachable():
    g = load_topology("node a kind=Gpu\nnode b kind=Gpu")
    with pytest.raises(UnknownNode):
        resolve_path(g, "a", "zz")
    with pytest.raises(Unreachable):
        resolve_path(g, "a", "b")


def test_path_time_consistency_one_hop():
    g = load_topology("node a kind=Gpu\nnode b kind=Gpu\n"
                      "link a b kind=NvLink bw=40 lat=1 b=0.5")
    p = resolve_path(g, "a", "b")
    assert path_time(10e9, p) == pytest.approx(link_time(10e9, p.links[0]))


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
    g = apply_transform(load_topology(DUAL_SOCKET_NIC), EnableGdr())
    via_upi = path_time(8e9, resolve_path(g, "gpu0", "nic1"))
    direct = apply_transform(g, SocketDirect(nic_id="nic1"))
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
                        with pytest.raises(Unreachable):
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
                    with pytest.raises(Unreachable):
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
                except Unreachable:
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

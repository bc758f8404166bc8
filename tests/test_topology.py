import random

import numpy as np
import pytest

from clustersmith.errors import (
    InvalidTransformTarget,
    ParseError,
    TransformConflict,
    UnknownNode,
    ValidationError,
)
from clustersmith.topology import (
    AttachPcieSwitch,
    EnableGdr,
    Link,
    LinkKind,
    Node,
    NodeKind,
    PartitionNic,
    SocketDirect,
    adjacency_matrix,
    apply_transform,
    build_graph,
    export_dot,
    export_topo,
    load_topology,
    neighborhood,
)

from conftest import random_graph

CHAIN = """
node cpu kind=CpuSocket
node sw kind=PcieSwitch
node gpu kind=Gpu
link cpu sw kind=Pcie bw=16 lanes=16
link sw gpu kind=Pcie bw=16
"""


def test_chain_file():
    g = load_topology(CHAIN)
    assert len(g.nodes) == 3
    assert len(g.links) == 2
    assert adjacency_matrix(g).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_dangling_endpoint_named():
    with pytest.raises(ParseError) as info:
        load_topology("node cpu kind=CpuSocket\nlink cpu gpu9 kind=Pcie bw=16")
    assert str(info.value) == ("line 2, col 10: link endpoint 'gpu9' is not a "
                               "declared node")


def test_nvlink4_preset(nvlink4):
    gpus = [n for n in nvlink4.nodes if n.kind == NodeKind.GPU]
    assert len(gpus) == 4
    bw = {frozenset((l.endpoint_a, l.endpoint_b)): l.bandwidth
          for l in nvlink4.links}
    assert bw[frozenset(("gpu0", "gpu1"))] == 40.0
    assert bw[frozenset(("gpu2", "gpu3"))] == 40.0
    others = [v for k, v in bw.items()
              if k not in (frozenset(("gpu0", "gpu1")), frozenset(("gpu2", "gpu3")))]
    assert others == [20.0] * 4


@pytest.mark.parametrize("bad,exc", [
    ("node a kind=Gpu\nnode a kind=Gpu", ValidationError),          # dup id
    ("node a kind=Quantum", ParseError),                            # bad kind
    ("node a kind=Gpu\nlink a a kind=Pcie bw=5", ValidationError),  # self-link
    ("node a kind=Gpu\nnode b kind=Gpu\nlink a b kind=Pcie bw=0",
     ValidationError),                                              # bw <= 0
    ("node a kind=Gpu\nnode b kind=Gpu\nlink a b kind=NvLink bw=5 lanes=4",
     ValidationError),                                              # lanes on NvLink
    ("node a kind=Gpu\nnode b kind=Gpu\nlink a b kind=Pcie bw=5 lanes=3",
     ValidationError),                                              # bad lane count
    ("node a kind=Gpu\nnode b kind=Gpu\nlink a b kind=Pcie bw=5 color=red",
     ParseError),                                                   # unknown link key
    ("widget a", ParseError),
    ("node a", ParseError),
    ("link a b kind=Pcie", ParseError),
])
def test_rejects(bad, exc):
    # every rejection names a line; the rule of a declaration, or of
    # build_graph, raises its ValidationError as the cause
    with pytest.raises(ParseError) as info:
        load_topology(bad)
    assert isinstance(info.value.__cause__ or info.value, exc)


@pytest.mark.parametrize("kwargs,message", [
    ({"endpoint_b": "a"}, "link a-a: self-link rejected"),
    ({"kind": "NvLink"}, "link a-b: unknown link kind 'NvLink'"),
    ({"bandwidth": 0.0}, "link a-b: bw must be finite and > 0, got 0.0"),
    ({"latency": -1.0}, "link a-b: lat must be finite and >= 0, got -1.0"),
    ({"extra_overhead_b": float("inf")},
     "link a-b: b must be finite and >= 0, got inf"),
    ({"lanes": 4}, "link a-b: lanes only valid on Pcie links"),
    ({"kind": LinkKind.PCIE, "lanes": 3},
     "link a-b: lanes must be one of (1, 2, 4, 8, 16)"),
])
def test_link_checks_its_own_fields(kwargs, message):
    with pytest.raises(ValidationError) as info:
        Link(**{"endpoint_a": "a", "endpoint_b": "b", "kind": LinkKind.NVLINK,
                "bandwidth": 10.0, **kwargs})
    assert str(info.value) == message


def test_node_checks_its_kind():
    with pytest.raises(ValidationError, match="^unknown node kind 'Gpu'$"):
        Node(id="a", kind="Gpu")


def test_build_graph_names_the_declaration_at_fault():
    first, again = (Node(id="a", kind=NodeKind.GPU) for _ in range(2))
    with pytest.raises(ValidationError, match="^duplicate node id 'a'$") as info:
        build_graph([first, again], [])
    assert info.value.at[0] is again and info.value.at[1] == "id"
    link = Link(endpoint_a="a", endpoint_b="z", kind=LinkKind.NVLINK,
                bandwidth=1.0)
    with pytest.raises(ValidationError) as info:
        build_graph([first], [link])
    assert info.value.at == (link, "endpoint_b")


def test_transform_output_is_checked():
    g = load_topology(CHAIN)
    with pytest.raises(ValidationError,
                       match="^link cpu-cpu_sw: bw must be finite and > 0, got nan$"):
        apply_transform(g, AttachPcieSwitch("cpu", 16, ("gpu",), float("nan"),
                                            16.0))


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match=r"line 2"):
        load_topology("node a kind=Gpu\nnode b notakv")


def test_node_labels_are_free_form():
    g = load_topology("node a kind=Gpu vendor=nvidia vram=80G")
    assert g.nodes[0].labels == (("vendor", "nvidia"), ("vram", "80G"))


def test_adjacency_single_node():
    g = build_graph([Node(id="a", kind=NodeKind.GPU)], [])
    assert adjacency_matrix(g).tolist() == [[0]]


def test_adjacency_triangle():
    nodes = [Node(id=c, kind=NodeKind.GPU) for c in "abc"]
    links = [Link(endpoint_a=a, endpoint_b=b, kind=LinkKind.NVLINK, bandwidth=10)
             for a, b in (("a", "b"), ("b", "c"), ("a", "c"))]
    a = adjacency_matrix(build_graph(nodes, links))
    assert a.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_adjacency_nvlink4_is_k4(nvlink4):
    a = adjacency_matrix(nvlink4)
    assert a.tolist() == (np.ones((4, 4), dtype=int)
                          - np.eye(4, dtype=int)).tolist()


def test_neighborhood(nvlink4):
    assert neighborhood(nvlink4, "gpu0") == ["gpu1", "gpu2", "gpu3"]
    star = load_topology(
        "node c kind=PcieSwitch\nnode l1 kind=Gpu\nnode l2 kind=Gpu\n"
        "link c l1 kind=Pcie bw=8\nlink c l2 kind=Pcie bw=8\n"
        "node lonely kind=Gpu"
    )
    assert neighborhood(star, "c") == ["l1", "l2"]
    assert neighborhood(star, "lonely") == []
    with pytest.raises(UnknownNode):
        neighborhood(star, "ghost")


def test_adjacency_properties_random():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, connected=False)
        a = adjacency_matrix(g)
        assert np.array_equal(a, a.T)
        assert not a.diagonal().any()
        for v in (n.id for n in g.nodes):
            row = a[g.index[v]]
            assert neighborhood(g, v) == [g.nodes[j].id
                                          for j in np.flatnonzero(row)]


def link_by_link_adjacency(g):
    a = np.zeros((len(g.nodes), len(g.nodes)), dtype=np.int64)
    ids = [n.id for n in g.nodes]
    for l in g.links:
        i, j = ids.index(l.endpoint_a), ids.index(l.endpoint_b)
        a[i, j] = a[j, i] = 1
    return a


def test_adjacency_is_derived_on_first_use(dual_socket):
    graphs = [dual_socket]
    for t in (PartitionNic(nic_id="nic0", parts=2), SocketDirect(nic_id="nic0"),
              EnableGdr(),
              AttachPcieSwitch(parent_id="cpu1", upstream_lanes=8,
                               downstream_gpu_ids=("gpu2", "gpu3"),
                               upstream_bandwidth=8.0, downstream_bandwidth=8.0)):
        graphs.append(apply_transform(graphs[-1], t))
    rng = random.Random(11)
    graphs += [random_graph(rng, connected=False) for _ in range(20)]
    for g in graphs:
        assert "adjacency" not in vars(g)
        a = g.adjacency
        assert a is g.adjacency
        assert a.dtype == np.int64
        assert np.array_equal(a, link_by_link_adjacency(g))


def test_equality_ignores_adjacency(dual_socket):
    text = export_topo(dual_socket)
    read, unread = load_topology(text), load_topology(text)
    read.adjacency
    assert "adjacency" in vars(read) and "adjacency" not in vars(unread)
    assert read == unread and hash(read) == hash(unread)
    assert "adjacency" not in repr(read)


# ---------------------------------------------------------------------------
# Transforms

NIC_GRAPH = """
node cpu0 kind=CpuSocket socket=0
node cpu1 kind=CpuSocket socket=1
node nic0 kind=Nic
node stor kind=StorageDevice
link cpu0 cpu1 kind=Upi bw=20
link cpu0 nic0 kind=Pcie bw=16
link nic0 stor kind=Ethernet bw=100 lat=2
"""


def test_partition_nic_conserves_bandwidth():
    g = load_topology(NIC_GRAPH)
    out = apply_transform(g, PartitionNic(nic_id="nic0", parts=4))
    ports = [l for l in out.links if l.kind == LinkKind.ETHERNET]
    assert len(ports) == 4
    assert all(l.bandwidth == 25.0 for l in ports)
    assert sum(l.bandwidth for l in ports) == 100.0
    assert {n.id for n in g.nodes} <= {n.id for n in out.nodes}


def test_partition_nic_rejects_bad_targets():
    g = load_topology(NIC_GRAPH)
    with pytest.raises(InvalidTransformTarget):
        apply_transform(g, PartitionNic(nic_id="cpu0", parts=2))
    with pytest.raises(InvalidTransformTarget):
        apply_transform(g, PartitionNic(nic_id="nic0", parts=3))
    once = apply_transform(g, PartitionNic(nic_id="nic0", parts=2))
    with pytest.raises(InvalidTransformTarget):
        # the port link is gone after the first split
        apply_transform(once, PartitionNic(nic_id="nic0", parts=2))


def test_socket_direct_adds_one_edge():
    g = load_topology(NIC_GRAPH)
    out = apply_transform(g, SocketDirect(nic_id="nic0"))
    assert len(out.links) == len(g.links) + 1
    assert set(neighborhood(out, "nic0")) >= {"cpu0", "cpu1"}
    degree = sum(1 for l in out.links if "nic0" in (l.endpoint_a, l.endpoint_b))
    assert degree == sum(1 for l in g.links
                         if "nic0" in (l.endpoint_a, l.endpoint_b)) + 1
    with pytest.raises(TransformConflict):
        apply_transform(out, SocketDirect(nic_id="nic0"))


def test_enable_gdr_flag_and_conflict():
    g = load_topology(NIC_GRAPH)
    out = apply_transform(g, EnableGdr())
    assert out.gdr and not g.gdr
    with pytest.raises(TransformConflict):
        apply_transform(out, EnableGdr())


def test_attach_pcie_switch_counts():
    g = load_topology(NIC_GRAPH + "\n".join(
        f"node gpu{i} kind=Gpu" for i in range(4)) + "\n")
    t = AttachPcieSwitch(parent_id="cpu0", upstream_lanes=16,
                         downstream_gpu_ids=("gpu0", "gpu1", "gpu2", "gpu3"),
                         upstream_bandwidth=16.0, downstream_bandwidth=16.0)
    out = apply_transform(g, t)
    assert len(out.nodes) == len(g.nodes) + 1
    assert len(out.links) == len(g.links) + 5


# ---------------------------------------------------------------------------
# Export and round-trip


def test_export_dot_empty_and_single_edge():
    empty = build_graph([], [])
    assert export_dot(empty) == "graph topology {\n}\n"
    g = load_topology("node a kind=Gpu\nnode b kind=Gpu\n"
                      "link a b kind=NvLink bw=40")
    dot = export_dot(g)
    assert dot.count(" -- ") == 1
    assert "NvLink 40" in dot


def test_export_dot_nvlink4(nvlink4):
    dot = export_dot(nvlink4)
    assert dot.count(" -- ") == 6
    assert dot.count('"NvLink 40 GB/s"') == 2
    assert dot.count('"NvLink 20 GB/s"') == 4
    assert export_dot(nvlink4) == dot  # deterministic


def test_round_trip_presets(nvlink4, dual_socket):
    for g in (nvlink4, dual_socket):
        assert load_topology(export_topo(g)) == g


def test_round_trip_random():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, connected=False)
        assert load_topology(export_topo(g)) == g

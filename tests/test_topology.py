import random
from dataclasses import replace

import numpy as np
import pytest

from clustersmith.errors import ParseError, ValidationError
from clustersmith.gnn import graph_inputs
from clustersmith.parallelism import RingAllreduce
from clustersmith.topology import (
    Link,
    LinkKind,
    Node,
    NodeKind,
    TopologyGraph,
    build_graph,
    export_dot,
    export_topo,
    load_topology,
)

from conftest import random_graph

CHAIN = """
node cpu kind=CpuSocket
node sw kind=PcieSwitch
node gpu kind=Gpu
link cpu sw kind=Pcie bw=16 lanes=16
link sw gpu kind=Pcie bw=16
"""
NO_LEVEL = RingAllreduce("l", (), 0.0)


def adjacency(g):
    """The 0/1 adjacency the GNN reads: the off-diagonal nonzeros of
    `graph_inputs`' A_hat, whose degree column must count them."""
    a_hat, h = graph_inputs(g, NO_LEVEL)
    a = (a_hat != 0).astype(np.int64)
    np.fill_diagonal(a, 0)
    assert np.array_equal(h[:, 10] * 4.0, a.sum(axis=1))
    return a


def test_chain_file():
    g = load_topology(CHAIN)
    assert len(g.nodes) == 3
    assert len(g.links) == 2
    assert adjacency(g).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


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


def test_graph_built_directly_checks_what_build_graph_checks():
    first, again = (Node(id="a", kind=NodeKind.GPU) for _ in range(2))
    link = Link(endpoint_a="z", endpoint_b="a", kind=LinkKind.NVLINK,
                bandwidth=1.0)
    for nodes, links, at in (((first, again), (), (again, "id")),
                             ((first,), (link,), (link, "endpoint_a"))):
        with pytest.raises(ValidationError) as built:
            build_graph(nodes, links)
        with pytest.raises(ValidationError) as direct:
            TopologyGraph(nodes, links)
        assert str(direct.value) == str(built.value)
        for err in (built.value, direct.value):
            assert err.at[0] is at[0] and err.at[1] == at[1]


def test_replace_recomputes_the_index(dual_socket):
    out = replace(dual_socket, gdr=True)
    assert out.gdr and out.index == dual_socket.index
    assert out.index is not dual_socket.index
    assert out.routing is not dual_socket.routing
    flipped = replace(dual_socket, nodes=dual_socket.nodes[::-1])
    assert [flipped.index[n.id] for n in dual_socket.nodes] == list(
        range(len(dual_socket.nodes) - 1, -1, -1))
    assert flipped.node("gpu0") is dual_socket.node("gpu0")
    with pytest.raises(ValueError):
        replace(dual_socket, index={})


def test_parse_error_reports_position():
    with pytest.raises(ParseError, match=r"line 2"):
        load_topology("node a kind=Gpu\nnode b notakv")


def test_an_unknown_node_key_is_an_error_at_its_token():
    with pytest.raises(ParseError) as info:
        load_topology("node a kind=Gpu socket=0\nnode b kind=Gpu  sockt=0 x=1")
    assert str(info.value) == "line 2, col 18: unknown node key 'sockt'"


def test_adjacency_single_node():
    g = build_graph([Node(id="a", kind=NodeKind.GPU)], [])
    assert adjacency(g).tolist() == [[0]]


def test_adjacency_triangle():
    nodes = [Node(id=c, kind=NodeKind.GPU) for c in "abc"]
    links = [Link(endpoint_a=a, endpoint_b=b, kind=LinkKind.NVLINK, bandwidth=10)
             for a, b in (("a", "b"), ("b", "c"), ("a", "c"))]
    a = adjacency(build_graph(nodes, links))
    assert a.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_adjacency_nvlink4_is_k4(nvlink4):
    a = adjacency(nvlink4)
    assert a.tolist() == (np.ones((4, 4), dtype=int)
                          - np.eye(4, dtype=int)).tolist()


def neighbors(g, v):
    return [l.endpoint_b if l.endpoint_a == v else l.endpoint_a
            for l in g.links if v in (l.endpoint_a, l.endpoint_b)]


def test_neighborhood(nvlink4):
    assert neighbors(nvlink4, "gpu0") == ["gpu1", "gpu2", "gpu3"]
    star = load_topology(
        "node c kind=PcieSwitch\nnode l1 kind=Gpu\nnode l2 kind=Gpu\n"
        "link c l1 kind=Pcie bw=8\nlink c l2 kind=Pcie bw=8\n"
        "node lonely kind=Gpu"
    )
    assert neighbors(star, "c") == ["l1", "l2"]
    assert neighbors(star, "lonely") == []


def test_adjacency_properties_random():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng, connected=False)
        a_hat, _ = graph_inputs(g, NO_LEVEL)
        assert np.array_equal(a_hat, a_hat.T)
        a = adjacency(g)
        assert np.diag(a_hat) == pytest.approx(1.0 / (a.sum(axis=1) + 1))
        for v in (n.id for n in g.nodes):
            row = a[g.index[v]]
            assert ({g.index[u] for u in neighbors(g, v)}
                    == set(np.flatnonzero(row).tolist()))


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

"""Hardware topology graph: parsing, validation, transforms, export.

A topology is an undirected graph of hardware components (CPU sockets,
chiplet dies, GPUs, PCIe switches, NICs, ...) joined by interconnect
links carrying bandwidth/latency attributes.  Graphs are immutable after
construction; transforms return new graphs.

File format (UTF-8, line oriented, ``#`` starts a comment)::

    node <id> kind=<Kind> [socket=<int>] [key=value ...]
    link <idA> <idB> kind=<Kind> bw=<GB/s> [lat=<us>] [lanes=<n>] [b=<us>]
    flag gdr=<true|false>
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from importlib import resources

from .errors import (
    InvalidTransformTarget,
    ParseError,
    TransformConflict,
    UnknownNode,
    ValidationError,
)


class NodeKind(str, Enum):
    CPU_SOCKET = "CpuSocket"
    CHIPLET_CORE_COMPLEX = "ChipletCoreComplex"
    IO_DIE = "IoDie"
    GPU = "Gpu"
    PCIE_SWITCH = "PcieSwitch"
    NIC = "Nic"
    DPU = "Dpu"
    HOST_MEMORY = "HostMemory"
    STORAGE_DEVICE = "StorageDevice"
    NETWORK_SWITCH = "NetworkSwitch"


class LinkKind(str, Enum):
    PCIE = "Pcie"
    NVLINK = "NvLink"
    UPI = "Upi"
    INFINITY_FABRIC = "InfinityFabric"
    EMIB = "Emib"
    ETHERNET = "Ethernet"
    INFINIBAND = "InfiniBand"
    INTRA_DIE = "IntraDie"


VALID_LANES = (1, 2, 4, 8, 16)

# Link kinds a NIC exposes toward the network fabric (the "port" side).
_NETWORK_KINDS = (LinkKind.ETHERNET, LinkKind.INFINIBAND)


@dataclass(frozen=True)
class Node:
    id: str
    kind: NodeKind
    socket_index: int | None = None
    labels: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Link:
    endpoint_a: str
    endpoint_b: str
    kind: LinkKind
    bandwidth: float        # GB/s
    latency: float = 0.0    # microseconds
    lanes: int | None = None
    extra_overhead_b: float = 0.0  # microseconds, the per-link fixed overhead
    duplex: bool = True

    def other(self, node_id: str) -> str:
        return self.endpoint_b if node_id == self.endpoint_a else self.endpoint_a


@dataclass(frozen=True)
class TopologyGraph:
    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    gdr: bool = False
    # index, adjacency and routing (below) are derived; excluded from
    # equality so that a reloaded graph compares equal on declarations alone.
    index: dict = field(default_factory=dict, compare=False, repr=False)

    def node(self, node_id: str) -> Node:
        if node_id not in self.index:
            raise UnknownNode(f"unknown node {node_id!r}")
        return self.nodes[self.index[node_id]]

    def incident(self, node_id: str) -> list[Link]:
        self.node(node_id)
        return [l for l in self.links if node_id in (l.endpoint_a, l.endpoint_b)]

    @cached_property
    def adjacency(self):
        """0/1 int64 adjacency matrix in node declaration order, built on
        first use, so only callers that read it import numpy."""
        import numpy as np

        a = np.zeros((len(self.nodes), len(self.nodes)), dtype=np.int64)
        for l in self.links:
            i, j = self.index[l.endpoint_a], self.index[l.endpoint_b]
            a[i, j] = a[j, i] = 1
        return a

    @cached_property
    def routing(self):
        """The graph's `commcost.RoutingIndex`, built on first use.  Graphs
        are immutable, so it is never invalidated."""
        from .commcost import RoutingIndex  # commcost imports this module

        return RoutingIndex(self)


def build_graph(nodes, links, gdr=False) -> TopologyGraph:
    """Validate declarations and index the nodes by id."""
    nodes = tuple(nodes)
    links = tuple(links)
    index = {}
    for n in nodes:
        if n.id in index:
            raise ValidationError(f"duplicate node id {n.id!r}")
        if not isinstance(n.kind, NodeKind):
            raise ValidationError(f"unknown node kind {n.kind!r}")
        index[n.id] = len(index)
    for l in links:
        for end in (l.endpoint_a, l.endpoint_b):
            if end not in index:
                raise ValidationError(f"link endpoint {end!r} is not a declared node")
        if l.endpoint_a == l.endpoint_b:
            raise ValidationError(f"self-link on {l.endpoint_a!r} rejected")
        if not isinstance(l.kind, LinkKind):
            raise ValidationError(f"unknown link kind {l.kind!r}")
        for what, value in (("bw", l.bandwidth), ("lat", l.latency),
                            ("b", l.extra_overhead_b)):
            if not math.isfinite(value):
                raise ValidationError(
                    f"link {l.endpoint_a}-{l.endpoint_b}: {what} must be finite, "
                    f"got {value!r}"
                )
        if l.bandwidth <= 0:
            raise ValidationError(
                f"link {l.endpoint_a}-{l.endpoint_b}: bandwidth must be > 0"
            )
        if l.latency < 0 or l.extra_overhead_b < 0:
            raise ValidationError(
                f"link {l.endpoint_a}-{l.endpoint_b}: latency and b must be >= 0"
            )
        if l.lanes is not None:
            if l.kind != LinkKind.PCIE:
                raise ValidationError("lanes only valid on Pcie links")
            if l.lanes not in VALID_LANES:
                raise ValidationError(f"lanes must be one of {VALID_LANES}")
    return TopologyGraph(nodes=nodes, links=links, gdr=gdr, index=index)


def adjacency_matrix(g: TopologyGraph):
    """0/1 adjacency with rows in node declaration order."""
    return g.adjacency.copy()


def neighborhood(g: TopologyGraph, v: str) -> list[str]:
    """Neighbor ids of v, in declaration order."""
    row = g.adjacency[g.index[v] if v in g.index else _unknown(v)]
    return [g.nodes[j].id for j in range(len(g.nodes)) if row[j]]


def _unknown(v):
    raise UnknownNode(f"unknown node {v!r}")


# ---------------------------------------------------------------------------
# Parsing


def _parse_kv(token, line_no, col):
    if "=" not in token:
        raise ParseError(f"expected key=value, got {token!r}", line_no, col)
    key, _, value = token.partition("=")
    if not key or not value:
        raise ParseError(f"malformed key=value {token!r}", line_no, col)
    return key, value


def _parse_float(value, what, line_no, col):
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"{what}: not a number: {value!r}", line_no, col) from None


def load_topology(text: str) -> TopologyGraph:
    """Parse topology-file content into a validated graph."""
    nodes, links = [], []
    gdr = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        cols = [line.index(t) + 1 for t in tokens]  # 1-based token start
        head = tokens[0]
        if head == "node":
            if len(tokens) < 3:
                raise ParseError("node needs <id> kind=<Kind>", line_no, cols[0])
            node_id = tokens[1]
            kind = None
            socket = None
            labels = []
            for tok, col in zip(tokens[2:], cols[2:]):
                key, value = _parse_kv(tok, line_no, col)
                if key == "kind":
                    try:
                        kind = NodeKind(value)
                    except ValueError:
                        raise ValidationError(f"unknown node kind {value!r}") from None
                elif key == "socket":
                    try:
                        socket = int(value)
                    except ValueError:
                        raise ParseError(f"socket: not an integer: {value!r}",
                                         line_no, col) from None
                else:
                    labels.append((key, value))
            if kind is None:
                raise ParseError("node missing kind=", line_no, cols[0])
            nodes.append(Node(id=node_id, kind=kind, socket_index=socket,
                              labels=tuple(labels)))
        elif head == "link":
            if len(tokens) < 4:
                raise ParseError("link needs <idA> <idB> kind= bw=", line_no, cols[0])
            a, b = tokens[1], tokens[2]
            kind = bw = None
            lat = 0.0
            b_us = 0.0
            lanes = None
            duplex = True
            for tok, col in zip(tokens[3:], cols[3:]):
                key, value = _parse_kv(tok, line_no, col)
                if key == "kind":
                    try:
                        kind = LinkKind(value)
                    except ValueError:
                        raise ValidationError(f"unknown link kind {value!r}") from None
                elif key == "bw":
                    bw = _parse_float(value, "bw", line_no, col)
                elif key == "lat":
                    lat = _parse_float(value, "lat", line_no, col)
                elif key == "b":
                    b_us = _parse_float(value, "b", line_no, col)
                elif key == "lanes":
                    try:
                        lanes = int(value)
                    except ValueError:
                        raise ParseError(f"lanes: not an integer: {value!r}",
                                         line_no, col) from None
                elif key == "duplex":
                    if value not in ("true", "false"):
                        raise ParseError("duplex must be true|false", line_no, col)
                    duplex = value == "true"
                else:
                    raise ValidationError(f"unknown link key {key!r}")
            if kind is None or bw is None:
                raise ParseError("link missing kind= or bw=", line_no, cols[0])
            links.append(Link(endpoint_a=a, endpoint_b=b, kind=kind, bandwidth=bw,
                              latency=lat, lanes=lanes, extra_overhead_b=b_us,
                              duplex=duplex))
        elif head == "flag":
            for tok, col in zip(tokens[1:], cols[1:]):
                key, value = _parse_kv(tok, line_no, col)
                if key != "gdr":
                    raise ValidationError(f"unknown flag {key!r}")
                if value not in ("true", "false"):
                    raise ParseError("gdr must be true|false", line_no, col)
                gdr = value == "true"
        else:
            raise ParseError(f"unknown directive {head!r}", line_no, cols[0])
    return build_graph(nodes, links, gdr=gdr)


# ---------------------------------------------------------------------------
# Export


def _fmt(x: float) -> str:
    # repr round-trips exactly through float(); keeps load/export/load stable
    return repr(float(x))


def export_topo(g: TopologyGraph) -> str:
    """Native-format text; load(export_topo(g)) reproduces g exactly."""
    lines = [f"flag gdr={'true' if g.gdr else 'false'}"]
    for n in g.nodes:
        parts = [f"node {n.id} kind={n.kind.value}"]
        if n.socket_index is not None:
            parts.append(f"socket={n.socket_index}")
        parts.extend(f"{k}={v}" for k, v in n.labels)
        lines.append(" ".join(parts))
    for l in g.links:
        parts = [f"link {l.endpoint_a} {l.endpoint_b} kind={l.kind.value}",
                 f"bw={_fmt(l.bandwidth)}"]
        if l.latency:
            parts.append(f"lat={_fmt(l.latency)}")
        if l.lanes is not None:
            parts.append(f"lanes={l.lanes}")
        if l.extra_overhead_b:
            parts.append(f"b={_fmt(l.extra_overhead_b)}")
        if not l.duplex:
            parts.append("duplex=false")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def export_dot(g: TopologyGraph) -> str:
    """Deterministic DOT text; edge labels carry kind and bandwidth."""
    lines = ["graph topology {"]
    for n in g.nodes:
        lines.append(f'  "{n.id}" [label="{n.id}\\n{n.kind.value}"];')
    for l in g.links:
        lines.append(
            f'  "{l.endpoint_a}" -- "{l.endpoint_b}" '
            f'[label="{l.kind.value} {l.bandwidth:g} GB/s"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Transforms


@dataclass(frozen=True)
class PartitionNic:
    nic_id: str
    parts: int  # 2 or 4


@dataclass(frozen=True)
class SocketDirect:
    nic_id: str


@dataclass(frozen=True)
class EnableGdr:
    pass


@dataclass(frozen=True)
class AttachPcieSwitch:
    parent_id: str
    upstream_lanes: int
    downstream_gpu_ids: tuple[str, ...]
    # No lane->GB/s table is baked in (PCIe generation varies), so the
    # effective bandwidths must be given explicitly.
    upstream_bandwidth: float
    downstream_bandwidth: float


def apply_transform(g: TopologyGraph, t) -> TopologyGraph:
    if isinstance(t, PartitionNic):
        return _partition_nic(g, t)
    if isinstance(t, SocketDirect):
        return _socket_direct(g, t)
    if isinstance(t, EnableGdr):
        if g.gdr:
            raise TransformConflict("GDR already enabled")
        return build_graph(g.nodes, g.links, gdr=True)
    if isinstance(t, AttachPcieSwitch):
        return _attach_pcie_switch(g, t)
    raise InvalidTransformTarget(f"unknown transform {t!r}")


def _require_kind(g, node_id, kind, what):
    node = g.node(node_id)
    if node.kind != kind:
        raise InvalidTransformTarget(
            f"{what} expects a {kind.value} node, {node_id!r} is {node.kind.value}"
        )
    return node


def _partition_nic(g, t):
    """Split the NIC's network port into `parts` equal-bandwidth ports.

    The port link is replaced by one child NIC per part, each wired to
    the original peer at bandwidth/parts and to the parent NIC at the
    same rate (the host side still flows through the parent).
    """
    if t.parts not in (2, 4):
        raise InvalidTransformTarget("parts must be 2 or 4")
    _require_kind(g, t.nic_id, NodeKind.NIC, "PartitionNic")
    port_links = [l for l in g.incident(t.nic_id) if l.kind in _NETWORK_KINDS]
    if not port_links:
        raise InvalidTransformTarget(f"{t.nic_id!r} has no network port link")
    if len(port_links) > 1:
        raise TransformConflict(f"{t.nic_id!r} has multiple port links")
    port = port_links[0]
    peer = port.other(t.nic_id)
    child_bw = port.bandwidth / t.parts
    new_nodes = list(g.nodes)
    new_links = [l for l in g.links if l is not port]
    for i in range(1, t.parts + 1):
        child = f"{t.nic_id}_p{i}"
        if child in g.index:
            raise TransformConflict(f"{t.nic_id!r} already partitioned")
        new_nodes.append(Node(id=child, kind=NodeKind.NIC))
        new_links.append(replace(port, endpoint_a=child, endpoint_b=peer,
                                 bandwidth=child_bw))
        new_links.append(Link(endpoint_a=t.nic_id, endpoint_b=child,
                              kind=LinkKind.INTRA_DIE, bandwidth=child_bw))
    return build_graph(new_nodes, new_links, gdr=g.gdr)


def _socket_direct(g, t):
    """Wire the NIC to the second CPU socket with an identical link."""
    _require_kind(g, t.nic_id, NodeKind.NIC, "SocketDirect")
    sockets = [n.id for n in g.nodes if n.kind == NodeKind.CPU_SOCKET]
    if len(sockets) != 2:
        raise InvalidTransformTarget("SocketDirect needs exactly 2 CpuSocket nodes")
    attached = [l for l in g.incident(t.nic_id) if l.other(t.nic_id) in sockets]
    if len(attached) == 0:
        raise InvalidTransformTarget(f"{t.nic_id!r} is not attached to a CpuSocket")
    if len(attached) > 1:
        raise TransformConflict("SocketDirect already applied")
    existing = attached[0]
    other = next(s for s in sockets if s != existing.other(t.nic_id))
    new_link = replace(existing, endpoint_a=t.nic_id, endpoint_b=other)
    return build_graph(g.nodes, tuple(g.links) + (new_link,), gdr=g.gdr)


def _attach_pcie_switch(g, t):
    if t.upstream_lanes not in VALID_LANES:
        raise InvalidTransformTarget(f"upstream_lanes must be one of {VALID_LANES}")
    g.node(t.parent_id)
    for gpu in t.downstream_gpu_ids:
        _require_kind(g, gpu, NodeKind.GPU, "AttachPcieSwitch")
    sw_id = f"{t.parent_id}_sw"
    k = 1
    while sw_id in g.index:
        k += 1
        sw_id = f"{t.parent_id}_sw{k}"
    new_nodes = list(g.nodes) + [Node(id=sw_id, kind=NodeKind.PCIE_SWITCH)]
    new_links = list(g.links)
    new_links.append(Link(endpoint_a=t.parent_id, endpoint_b=sw_id,
                          kind=LinkKind.PCIE, bandwidth=t.upstream_bandwidth,
                          lanes=t.upstream_lanes))
    for gpu in t.downstream_gpu_ids:
        new_links.append(Link(endpoint_a=sw_id, endpoint_b=gpu,
                              kind=LinkKind.PCIE,
                              bandwidth=t.downstream_bandwidth))
    return build_graph(new_nodes, new_links, gdr=g.gdr)


# ---------------------------------------------------------------------------
# Presets

PRESET_NAMES = ("nvlink4.topo", "dual-socket-pcie-switch.topo")


def load_preset(name: str) -> TopologyGraph:
    text = resources.files("clustersmith.presets").joinpath(name).read_text()
    return load_topology(text)

"""Hardware topology graph: parsing, validation, transforms, export.

A topology is an undirected graph of hardware components (CPU sockets,
chiplet dies, GPUs, PCIe switches, NICs, ...) joined by interconnect
links carrying bandwidth/latency attributes.  Graphs are immutable after
construction; transforms return new graphs.

File format (UTF-8, in the line format of `clustersmith.lineformat`)::

    node <id> kind=<Kind> [socket=<int>] [key=value ...]
    link <idA> <idB> kind=<Kind> bw=<GB/s> [lat=<us>] [lanes=<n>] [b=<us>]
    flag gdr=<true|false>

`bw` is the rate that is priced; `lanes` (Pcie only) is checked and kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

from . import lineformat
from .errors import ValidationError, check_number


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

    def __post_init__(self):
        if not isinstance(self.kind, NodeKind):
            raise ValidationError(f"unknown node kind {self.kind!r}")


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

    def __post_init__(self):
        try:
            if self.endpoint_a == self.endpoint_b:
                raise ValidationError("self-link rejected")
            if not isinstance(self.kind, LinkKind):
                raise ValidationError(f"unknown link kind {self.kind!r}")
            check_number("bw", self.bandwidth, positive=True)
            check_number("lat", self.latency)
            check_number("b", self.extra_overhead_b)
            if self.lanes is not None and self.kind != LinkKind.PCIE:
                raise ValidationError("lanes only valid on Pcie links")
            if self.lanes not in (None, *VALID_LANES):
                raise ValidationError(f"lanes must be one of {VALID_LANES}")
        except ValidationError as exc:
            raise ValidationError(
                f"link {self.endpoint_a}-{self.endpoint_b}: {exc}") from None

    def other(self, node_id: str) -> str:
        return self.endpoint_b if node_id == self.endpoint_a else self.endpoint_a


@dataclass(frozen=True)
class TopologyGraph:
    """Checks, when built, the rules that span declarations (no repeated node
    id, no undeclared link endpoint), naming the (declaration, field) in `at`."""

    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    gdr: bool = False
    # index, adjacency and routing (below) are derived; excluded from
    # equality so that a reloaded graph compares equal on declarations alone.
    index: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = {}
        for n in self.nodes:
            if n.id in index:
                raise ValidationError(f"duplicate node id {n.id!r}", at=(n, "id"))
            index[n.id] = len(index)
        for l in self.links:
            for end in ("endpoint_a", "endpoint_b"):
                if getattr(l, end) not in index:
                    raise ValidationError(f"link endpoint {getattr(l, end)!r} is "
                                          "not a declared node", at=(l, end))
        object.__setattr__(self, "index", index)

    def node(self, node_id: str) -> Node:
        if node_id not in self.index:
            raise ValidationError(f"unknown node {node_id!r}")
        return self.nodes[self.index[node_id]]

    def incident(self, node_id: str) -> list[Link]:
        self.node(node_id)
        return [l for l in self.links if node_id in (l.endpoint_a, l.endpoint_b)]

    @cached_property
    def adjacency(self):
        """Read-only 0/1 int64 adjacency matrix in node declaration order,
        built on first use, so only callers that read it import numpy."""
        import numpy as np

        a = np.zeros((len(self.nodes), len(self.nodes)), dtype=np.int64)
        for l in self.links:
            i, j = self.index[l.endpoint_a], self.index[l.endpoint_b]
            a[i, j] = a[j, i] = 1
        a.flags.writeable = False
        return a

    @cached_property
    def routing(self):
        """The graph's `commcost.RoutingIndex`, built on first use.  Graphs
        are immutable, so it is never invalidated."""
        from .commcost import RoutingIndex  # commcost imports this module

        return RoutingIndex(self)


def build_graph(nodes, links, gdr=False) -> TopologyGraph:
    """The `TopologyGraph` of these declarations, which checks them."""
    return TopologyGraph(tuple(nodes), tuple(links), gdr)


# ---------------------------------------------------------------------------
# Parsing


def load_topology(text: str) -> TopologyGraph:
    """Parse topology-file content, in the line format of
    `clustersmith.lineformat`, into a validated graph."""
    nodes, links, lines = [], [], {}  # lines: id(declaration) -> its Line
    gdr = False
    for line in lineformat.records(text):
        head, tokens = line.tokens[0], line.tokens
        if head == "node":
            if len(tokens) < 3:
                raise line.error("node needs <id> kind=<Kind>")
            kv = line.fields(2)
            if "kind" not in kv:
                raise line.error("node missing kind=")
            kind = line.enum(kv, "kind", NodeKind, "node kind")
            socket = line.number(kv, "socket", int)
            decl = line.build(Node, id=tokens[1], kind=kind, socket_index=socket,
                              labels=tuple(kv.items()))
            nodes.append(decl)
        elif head == "link":
            if len(tokens) < 4:
                raise line.error("link needs <idA> <idB> kind= bw=")
            kv = line.fields(3)
            if "kind" not in kv or "bw" not in kv:
                raise line.error("link missing kind= or bw=")
            decl = line.build(
                Link, endpoint_a=tokens[1], endpoint_b=tokens[2],
                kind=line.enum(kv, "kind", LinkKind, "link kind"),
                bandwidth=line.number(kv, "bw"),
                latency=line.number(kv, "lat", default=0.0),
                lanes=line.number(kv, "lanes", int),
                extra_overhead_b=line.number(kv, "b", default=0.0),
                duplex=_bool(line, kv, "duplex", True))
            line.no_more(kv, "link")
            links.append(decl)
        elif head == "flag":
            kv = line.fields(1)
            gdr = _bool(line, kv, "gdr", gdr)
            line.no_more(kv, "flag")
            continue
        else:
            raise line.error(f"unknown directive {head!r}")
        lines[id(decl)] = line
    try:
        return build_graph(nodes, links, gdr=gdr)
    except ValidationError as exc:
        decl, field = exc.at  # at a node's id or a link's endpoint
        token = 2 if field == "endpoint_b" else 1
        raise lines[id(decl)].error(str(exc), token) from exc


def _bool(line, kv, key, default):
    value = kv.pop(key, "true" if default else "false")
    if value not in ("true", "false"):
        raise line.error(f"{key} must be true|false", key)
    return value == "true"


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
            raise ValidationError("GDR already enabled")
        return replace(g, gdr=True)
    if isinstance(t, AttachPcieSwitch):
        return _attach_pcie_switch(g, t)
    raise ValidationError(f"unknown transform {t!r}")


def _require_kind(g, node_id, kind, what):
    node = g.node(node_id)
    if node.kind != kind:
        raise ValidationError(f"{what} expects a {kind.value} node, "
                              f"{node_id!r} is {node.kind.value}")
    return node


def _partition_nic(g, t):
    """Split the NIC's network port into `parts` equal-bandwidth ports.

    The port link is replaced by one child NIC per part, each wired to
    the original peer at bandwidth/parts and to the parent NIC at the
    same rate (the host side still flows through the parent).
    """
    if t.parts not in (2, 4):
        raise ValidationError("parts must be 2 or 4")
    _require_kind(g, t.nic_id, NodeKind.NIC, "PartitionNic")
    port_links = [l for l in g.incident(t.nic_id) if l.kind in _NETWORK_KINDS]
    if not port_links:
        raise ValidationError(f"{t.nic_id!r} has no network port link")
    if len(port_links) > 1:
        raise ValidationError(f"{t.nic_id!r} has multiple port links")
    port = port_links[0]
    peer = port.other(t.nic_id)
    child_bw = port.bandwidth / t.parts
    new_nodes = list(g.nodes)
    new_links = [l for l in g.links if l is not port]
    for i in range(1, t.parts + 1):
        child = f"{t.nic_id}_p{i}"
        if child in g.index:
            raise ValidationError(f"{t.nic_id!r} already partitioned")
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
        raise ValidationError("SocketDirect needs exactly 2 CpuSocket nodes")
    attached = [l for l in g.incident(t.nic_id) if l.other(t.nic_id) in sockets]
    if len(attached) == 0:
        raise ValidationError(f"{t.nic_id!r} is not attached to a CpuSocket")
    if len(attached) > 1:
        raise ValidationError("SocketDirect already applied")
    existing = attached[0]
    other = next(s for s in sockets if s != existing.other(t.nic_id))
    new_link = replace(existing, endpoint_a=t.nic_id, endpoint_b=other)
    return build_graph(g.nodes, tuple(g.links) + (new_link,), gdr=g.gdr)


def _attach_pcie_switch(g, t):
    if t.upstream_lanes not in VALID_LANES:
        raise ValidationError(f"upstream_lanes must be one of {VALID_LANES}")
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
    from importlib import resources  # only presets read bundled files

    text = resources.files("clustersmith.presets").joinpath(name).read_text()
    return load_topology(text)

"""Hardware topology graph: parsing, validation, export.

A topology is an undirected graph of hardware components (CPU sockets,
chiplet dies, GPUs, PCIe switches, NICs, ...) joined by interconnect
links carrying bandwidth/latency attributes.  Graphs are immutable after
construction.  A changed machine (a partitioned NIC, a socket-direct link,
GPU-direct RDMA, another PCIe switch) is a changed topology file.

File format (UTF-8, in the line format of `clustersmith.lineformat`)::

    node <id> kind=<Kind> [socket=<int>] [key=value ...]
    link <idA> <idB> kind=<Kind> bw=<GB/s> [lat=<us>] [lanes=<n>] [b=<us>]
    flag gdr=<true|false>

`bw` is the rate that is priced; `lanes` (Pcie only) is checked and kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
# Presets

PRESET_NAMES = ("nvlink4.topo", "dual-socket-pcie-switch.topo")


def load_preset(name: str) -> TopologyGraph:
    from importlib import resources  # only presets read bundled files

    text = resources.files("clustersmith.presets").joinpath(name).read_text()
    return load_topology(text)

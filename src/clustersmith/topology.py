"""Hardware topology graph: parsing, validation, export.

A topology is an undirected graph of hardware components (CPU sockets,
chiplet dies, GPUs, PCIe switches, NICs, ...) joined by interconnect
links carrying bandwidth/latency attributes.  Graphs are immutable after
construction.  A changed machine (a partitioned NIC, a socket-direct link,
GPU-direct RDMA, another PCIe switch) is a changed topology file.

File format (UTF-8, in the line format of `clustersmith.lineformat`)::

    node <id> kind=<Kind> [socket=<int>]
    link <idA> <idB> kind=<Kind> bw=<GB/s> [lat=<us>] [lanes=<n>] [b=<us>]
    flag gdr=<true|false>

`bw` is the rate that is priced; `lanes` (Pcie only) is checked and kept.
"""

from __future__ import annotations

import sys
from collections import namedtuple
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
_MAX = sys.float_info.max  # the largest finite float


# Records are namedtuples that check their fields in `__new__`, light
# enough to build by the hundred.  `_make` and `_replace` skip the check;
# none is called.
class Node(namedtuple("Node", "id kind socket_index")):
    __slots__ = ()

    def __new__(cls, id, kind, socket_index=None):
        if not isinstance(kind, NodeKind):
            raise ValidationError(f"unknown node kind {kind!r}")
        return tuple.__new__(cls, (id, kind, socket_index))


class Link(namedtuple("Link", "endpoint_a endpoint_b kind bandwidth latency "
                      "lanes extra_overhead_b duplex")):
    """Bandwidth in GB/s; latency and fixed overhead b in microseconds."""

    __slots__ = ()

    def __new__(cls, endpoint_a, endpoint_b, kind, bandwidth, latency=0.0,
                lanes=None, extra_overhead_b=0.0, duplex=True):
        a, b, lat, over = endpoint_a, endpoint_b, latency, extra_overhead_b
        # one test that implies every rule, then, only if it fails, each
        # rule in turn for the message
        if not (a != b and isinstance(kind, LinkKind) and 0 < bandwidth <= _MAX
                and 0 <= lat <= _MAX and 0 <= over <= _MAX
                and (lanes is None
                     or kind is LinkKind.PCIE and lanes in VALID_LANES)):
            try:
                if a == b:
                    raise ValidationError("self-link rejected")
                if not isinstance(kind, LinkKind):
                    raise ValidationError(f"unknown link kind {kind!r}")
                check_number("bw", bandwidth, positive=True)
                check_number("lat", lat)
                check_number("b", over)
                if lanes is not None and kind != LinkKind.PCIE:
                    raise ValidationError("lanes only valid on Pcie links")
                if lanes not in (None, *VALID_LANES):
                    raise ValidationError(f"lanes must be one of {VALID_LANES}")
            except ValidationError as exc:
                raise ValidationError(f"link {a}-{b}: {exc}") from None
        return tuple.__new__(cls, (a, b, kind, bandwidth, lat, lanes, over, duplex))


class TopologyGraph(namedtuple("TopologyGraph", "nodes links gdr")):
    """Checks, when built, the rules that span declarations (no repeated node
    id, no undeclared link endpoint), naming the (declaration, field) in `at`.

    `index` (node id -> position) and `routing` are derived, kept in the
    instance dict (there are no `__slots__`), and not part of equality, so
    a reloaded graph compares equal on declarations alone.
    """

    def __new__(cls, nodes, links, gdr=False):
        index = {}
        for n in nodes:
            if n.id in index:
                raise ValidationError(f"duplicate node id {n.id!r}", at=(n, "id"))
            index[n.id] = len(index)
        for l in links:
            for end in ("endpoint_a", "endpoint_b"):
                if getattr(l, end) not in index:
                    raise ValidationError(f"link endpoint {getattr(l, end)!r} is "
                                          "not a declared node", at=(l, end))
        self = tuple.__new__(cls, (nodes, links, gdr))
        self.index = index
        return self

    def node(self, node_id: str) -> Node:
        if node_id not in self.index:
            raise ValidationError(f"unknown node {node_id!r}")
        return self.nodes[self.index[node_id]]

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


_NODE_KINDS = {k.value: k for k in NodeKind}
_LINK_KINDS = {k.value: k for k in LinkKind}
_LINK_NUMBERS = (("bw", float, None), ("lat", float, 0.0), ("lanes", int, None),
                 ("b", float, 0.0))


def load_topology(text: str) -> TopologyGraph:
    """Parse topology-file content, in the line format of
    `clustersmith.lineformat`, into a validated graph."""
    nodes, links = [], []
    gdr = False
    for line in lineformat.records(text):
        head, tokens = line.tokens[0], line.tokens
        try:
            if head == "link":  # the most common, so tested first
                if len(tokens) < 4:
                    raise line.error("link needs <idA> <idB> kind= bw=")
                kv = line.fields(3)
                if "kind" not in kv or "bw" not in kv:
                    raise line.error("link missing kind= or bw=")
                kind = line.enum(kv, "kind", _LINK_KINDS, "link kind")
                bw, lat, lanes, b = line.numbers(kv, _LINK_NUMBERS)
                links.append(Link(tokens[1], tokens[2], kind, bw, lat, lanes, b,
                                  _bool(line, kv, "duplex", True)))
                line.no_more(kv, "link")
            elif head == "node":
                if len(tokens) < 3:
                    raise line.error("node needs <id> kind=<Kind>")
                kv = line.fields(2)
                if "kind" not in kv:
                    raise line.error("node missing kind=")
                kind = line.enum(kv, "kind", _NODE_KINDS, "node kind")
                socket, = line.numbers(kv, (("socket", int, None),))
                nodes.append(Node(tokens[1], kind, socket))
                line.no_more(kv, "node")
            elif head == "flag":
                kv = line.fields(1)
                gdr = _bool(line, kv, "gdr", gdr)
                line.no_more(kv, "flag")
            else:
                raise line.error(f"unknown directive {head!r}")
        except ValidationError as exc:  # a declaration's own rule
            raise line.error(str(exc)) from exc
    try:
        return build_graph(nodes, links, gdr=gdr)
    except ValidationError as exc:  # at a node's id or a link's endpoint
        decl, field = exc.at
        head, decls = ("node", nodes) if field == "id" else ("link", links)
        i = next(i for i, d in enumerate(decls) if d is decl)
        line = [r for r in lineformat.records(text) if r.tokens[0] == head][i]
        raise line.error(str(exc), 2 if field == "endpoint_b" else 1) from exc


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

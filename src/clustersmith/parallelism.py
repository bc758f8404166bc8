"""Per-parallel-level traffic, communication times, and the time matrix.

Each parallelism strategy expands into a schedule of synchronous phases;
a phase is a set of point-to-point transfers.  Phase k+1 starts when every
phase-k transfer has finished, so a level's communication time is the sum of
per-phase times.  Within a phase, transfers sharing a link (same direction on
duplex links) split its bandwidth equally.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .commcost import GB, US, resolve_path
from .errors import (MissingServerNode, TooFewParticipants, ValidationError,
                     check_number)
from .topology import NodeKind, TopologyGraph


class Strategy(str, Enum):
    RING_ALLREDUCE = "ring_allreduce"
    PARAMETER_SERVER = "parameter_server"
    IN_NETWORK_AGGREGATION = "in_network_aggregation"
    PIPELINE_P2P = "pipeline_p2p"


# node kinds allowed to act as the aggregation point, per strategy
_SERVER_KINDS = {
    Strategy.PARAMETER_SERVER: (NodeKind.NIC, NodeKind.DPU, NodeKind.CPU_SOCKET),
    Strategy.IN_NETWORK_AGGREGATION: (NodeKind.NETWORK_SWITCH,),
}


@dataclass(frozen=True)
class ParallelLevel:
    name: str
    strategy: Strategy
    participants: tuple[str, ...]
    payload_bytes: float
    server: str | None = None
    # in-network aggregation window bound
    window_packets: int = 4
    packet_bytes: int = 1100
    rtt_us: float = 10.0
    # pipeline parameters
    microbatches: int = 1
    activation_bytes: float = 0.0

    def __post_init__(self):
        try:
            for key in ("payload_bytes", "activation_bytes"):
                check_number(key, getattr(self, key))
            for key in ("window_packets", "packet_bytes", "rtt_us",
                        "microbatches"):
                check_number(key, getattr(self, key), positive=True)
            repeated = sorted(p for p, k in Counter(self.participants).items()
                              if k > 1)
            if repeated:
                raise ValidationError(f"repeated participants {repeated}")
            if self.strategy not in _SERVER_KINDS and self.server is not None:
                raise ValidationError(f"{self.strategy.value} takes no server")
            if self.server in self.participants:
                raise ValidationError(
                    f"server {self.server!r} is also a participant")
        except ValidationError as exc:
            raise ValidationError(f"level {self.name!r}: {exc}") from None

    @property
    def n(self) -> int:
        return len(self.participants)


@dataclass(frozen=True)
class Transfer:
    src: str
    dst: str
    bytes: float


def traffic_for_level(level: ParallelLevel) -> tuple[tuple[Transfer, ...], ...]:
    """Expand a level into its phases, each a tuple of transfers."""
    n = level.n
    if n < 1:
        raise TooFewParticipants("level needs at least one participant")
    if n == 1:
        return ()
    p = level.participants
    m = level.payload_bytes
    if level.strategy == Strategy.RING_ALLREDUCE:
        chunk = m / n
        phase = tuple(Transfer(p[i], p[(i + 1) % n], chunk) for i in range(n))
        return tuple(phase for _ in range(2 * (n - 1)))
    if level.strategy in _SERVER_KINDS:
        if level.server is None:
            raise MissingServerNode(
                f"{level.strategy.value} needs a server= node"
            )
        up = tuple(Transfer(w, level.server, m) for w in p)
        down = tuple(Transfer(level.server, w, m) for w in p)
        return up, down
    if level.strategy == Strategy.PIPELINE_P2P:
        phase = tuple(
            Transfer(p[i], p[i + 1], level.activation_bytes) for i in range(n - 1)
        )
        return tuple(phase for _ in range(level.microbatches))
    raise ValueError(f"unknown strategy {level.strategy!r}")


def _check_server_kind(level: ParallelLevel, g: TopologyGraph) -> None:
    kinds = _SERVER_KINDS.get(level.strategy)
    if kinds is None or level.server is None:
        return
    server = g.node(level.server)
    if server.kind not in kinds:
        raise MissingServerNode(
            f"server {level.server!r} is {server.kind.value}, expected one of "
            + "/".join(k.value for k in kinds)
        )


def _window_cap_bytes_per_s(level: ParallelLevel) -> float:
    """Outstanding-packet window bound on a worker's aggregation throughput."""
    # a float product: two large int fields give inf, not an OverflowError
    return float(level.window_packets) * level.packet_bytes / (level.rtt_us * US)


def comm_time(level: ParallelLevel, g: TopologyGraph) -> list[float]:
    """Per-phase seconds for one level on a topology (sum = level total)."""
    _check_server_kind(level, g)
    phases = traffic_for_level(level)
    window_cap = (
        _window_cap_bytes_per_s(level)
        if level.strategy == Strategy.IN_NETWORK_AGGREGATION
        else None
    )
    # traffic_for_level repeats one phase tuple many times; price it once
    phase_times = {}  # id(phase) -> seconds
    for phase in phases:
        if id(phase) in phase_times:
            continue
        routed = [(x, resolve_path(g, x.src, x.dst)) for x in phase]
        # concurrency per link; duplex links contend per direction
        share = {}
        for _, path in routed:
            for link, u in zip(path.links, path.nodes):
                key = (id(link), u if link.duplex else None)
                share[key] = share.get(key, 0) + 1
        phase_time = 0.0
        for x, path in routed:
            rate = float("inf")
            for link, u in zip(path.links, path.nodes):
                f = share[(id(link), u if link.duplex else None)]
                rate = min(rate, link.bandwidth * GB / f)
            t = (path.total_latency + path.total_b) * US + x.bytes / rate
            if window_cap is not None:
                t = max(t, x.bytes / window_cap)
            phase_time = max(phase_time, t)
        phase_times[id(phase)] = phase_time
    return [phase_times[id(phase)] for phase in phases]


@dataclass(frozen=True)
class TimeMatrix:
    levels: tuple[ParallelLevel, ...]
    entries: tuple[tuple[float, ...], ...]  # rows zero-padded to phase_count
    phase_count: int
    row_totals: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "row_totals",
                           tuple(sum(row) for row in self.entries))

    def winner(self) -> tuple[ParallelLevel, float]:
        """Cheapest level by total communication time; ties prefer smaller
        n, then declaration order."""
        i = min(range(len(self.levels)),
                key=lambda i: (self.row_totals[i], self.levels[i].n, i))
        return self.levels[i], self.row_totals[i]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["level"] + [f"t{k + 1}" for k in range(self.phase_count)]
                        + ["total"])
        for level, row, total in zip(self.levels, self.entries, self.row_totals):
            writer.writerow([level.name] + [repr(x) for x in row] + [repr(total)])
        return buf.getvalue()

    def to_json_obj(self) -> dict:
        return {
            "levels": [
                {"name": lv.name, "strategy": lv.strategy.value, "n": lv.n,
                 "payload_bytes": lv.payload_bytes}
                for lv in self.levels
            ],
            "phase_count": self.phase_count,
            "entries": [list(row) for row in self.entries],
            "row_totals": list(self.row_totals),
        }


def build_time_matrix(levels, g: TopologyGraph) -> TimeMatrix:
    levels = tuple(levels)
    if not levels:
        raise TooFewParticipants("need at least one level")
    rows = [comm_time(lv, g) for lv in levels]
    width = max((len(r) for r in rows), default=0)
    padded = tuple(tuple(r + [0.0] * (width - len(r))) for r in rows)
    return TimeMatrix(levels=levels, entries=padded, phase_count=width)


def select_level(levels, g: TopologyGraph):
    """Cheapest level and its total, as picked by `TimeMatrix.winner`."""
    return build_time_matrix(levels, g).winner()

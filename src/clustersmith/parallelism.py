"""Per-parallel-level traffic, communication times, and the time matrix.

Each parallelism strategy expands into a schedule of synchronous phases;
a phase is a set of point-to-point transfers.  Phase k+1 starts when every
phase-k transfer has finished, so a level's communication time is the sum of
per-phase times.  Within a phase, transfers sharing a link (same direction on
duplex links) split its bandwidth equally.

A schedule is a tuple of runs `(phase, count)`: `count` copies of one phase
back to back.  Each run's phase is routed and priced once, and a level's
time is `total` of its runs: the correctly rounded value of
sum(seconds * count), the same on every Python version and run layout.
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


def traffic_for_level(
        level: ParallelLevel) -> tuple[tuple[tuple[Transfer, ...], int], ...]:
    """Expand a level into runs `(phase, count)`, each phase a tuple of
    transfers repeated `count` times."""
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
        return ((phase, 2 * (n - 1)),)
    if level.strategy in _SERVER_KINDS:
        if level.server is None:
            raise MissingServerNode(
                f"{level.strategy.value} needs a server= node"
            )
        up = tuple(Transfer(w, level.server, m) for w in p)
        down = tuple(Transfer(level.server, w, m) for w in p)
        return (up, 1), (down, 1)
    if level.strategy == Strategy.PIPELINE_P2P:
        phase = tuple(
            Transfer(p[i], p[i + 1], level.activation_bytes) for i in range(n - 1)
        )
        return ((phase, level.microbatches),)
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
    window = float(level.window_packets) * level.packet_bytes
    rtt_s = level.rtt_us * US  # 0.0 for a subnormal rtt: then no bound
    return window / rtt_s if rtt_s else float("inf")


def comm_time(level: ParallelLevel, g: TopologyGraph) -> tuple[tuple[float, int], ...]:
    """`(seconds, count)` of each run of one level on a topology; `total`
    of them is the level's time."""
    _check_server_kind(level, g)
    window_cap = (_window_cap_bytes_per_s(level)  # inf: no window bound
                  if level.strategy == Strategy.IN_NETWORK_AGGREGATION
                  else float("inf"))
    priced = []
    for phase, count in traffic_for_level(level):
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
            t = max(t, x.bytes / window_cap)
            phase_time = max(phase_time, t)
        priced.append((phase_time, count))
    return tuple(priced)


def total(runs, name: str) -> float:
    """Correctly rounded sum of seconds * count over `(seconds, count)`
    runs: one exact sum, rounded once, so it depends on neither the order
    nor the layout of the runs.  A time that is not finite is an error
    naming level `name`."""
    from fractions import Fraction  # not imported at start-up

    try:
        return float(sum(Fraction(t) * count for t, count in runs))
    except (ValueError, OverflowError):  # nan, inf, or a sum past float range
        raise ValidationError(f"level {name!r}: time is not a finite number "
                              "of seconds") from None


@dataclass(frozen=True)
class TimeMatrix:
    levels: tuple[ParallelLevel, ...]
    runs: tuple[tuple[tuple[float, int], ...], ...]  # per level, from comm_time
    phase_count: int = field(init=False)
    row_totals: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "phase_count", max(
            (sum(count for _, count in runs) for runs in self.runs), default=0))
        object.__setattr__(self, "row_totals", tuple(
            total(runs, lv.name) for lv, runs in zip(self.levels, self.runs)))

    @property
    def entries(self) -> tuple[tuple[float, ...], ...]:
        """Per level, each run's time repeated `count` times, padded with
        0.0 to `phase_count`."""
        rows = [[t for t, count in runs for _ in range(count)]
                for runs in self.runs]
        return tuple(tuple(row + [0.0] * (self.phase_count - len(row)))
                     for row in rows)

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
    return TimeMatrix(levels, tuple(comm_time(lv, g) for lv in levels))


def select_level(levels, g: TopologyGraph):
    """Cheapest level and its total, as picked by `TimeMatrix.winner`."""
    return build_time_matrix(levels, g).winner()

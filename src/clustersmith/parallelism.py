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
import itertools
import json
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from enum import Enum

from .commcost import GB, US, path_time, resolve_path
from .errors import ValidationError, check_number
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
            if self.server in self.participants:
                raise ValidationError(
                    f"server {self.server!r} is also a participant")
        except ValidationError as exc:
            raise ValidationError(f"level {self.name!r}: {exc}") from None

    @property
    def n(self) -> int:
        return len(self.participants)


Transfer = namedtuple("Transfer", "src dst bytes")


def traffic_for_level(
        level: ParallelLevel) -> tuple[tuple[tuple[Transfer, ...], int], ...]:
    """Expand a level into runs `(phase, count)`, each phase a tuple of
    transfers repeated `count` times; `comm_time` checks the level first."""
    n = level.n
    if n < 2:
        return ()
    p = level.participants
    m = level.payload_bytes
    if level.strategy == Strategy.RING_ALLREDUCE:
        chunk = m / n
        phase = tuple(Transfer(p[i], p[(i + 1) % n], chunk) for i in range(n))
        return ((phase, 2 * (n - 1)),)
    if level.strategy in _SERVER_KINDS:
        up = tuple(Transfer(w, level.server, m) for w in p)
        down = tuple(Transfer(level.server, w, m) for w in p)
        return (up, 1), (down, 1)
    if level.strategy == Strategy.PIPELINE_P2P:
        phase = tuple(
            Transfer(p[i], p[i + 1], level.activation_bytes) for i in range(n - 1)
        )
        return ((phase, level.microbatches),)
    raise ValueError(f"unknown strategy {level.strategy!r}")


def _check_level(level: ParallelLevel, g: TopologyGraph) -> None:
    """Reject what `comm_time` cannot route of `level` on `g`: a
    ValidationError naming the level, `at` the (level, field) at fault, the
    field None when no one field is."""
    def fail(message, field=None):
        raise ValidationError(f"level {level.name!r}: {message}",
                              at=(level, field))

    if not level.participants:
        fail("needs at least one participant", "participants")
    for p in level.participants:
        if p not in g.index:
            fail(f"unknown node {p!r}", "participants")
    kinds = _SERVER_KINDS.get(level.strategy)
    if kinds is None:
        return
    if level.server is None:
        if level.n > 1:  # a single participant prices as no traffic
            fail(f"{level.strategy.value} needs a server= node")
        return
    if level.server not in g.index:
        fail(f"unknown node {level.server!r}", "server")
    kind = g.node(level.server).kind
    if kind not in kinds:
        fail(f"server {level.server!r} is {kind.value}, expected one of "
             + "/".join(k.value for k in kinds), "server")


def _window_cap_bytes_per_s(level: ParallelLevel) -> float:
    """Outstanding-packet window bound on a worker's aggregation throughput."""
    # a float product: two large int fields give inf, not an OverflowError
    window = float(level.window_packets) * level.packet_bytes
    rtt_s = level.rtt_us * US  # 0.0 for a subnormal rtt: then no bound
    return window / rtt_s if rtt_s else float("inf")


def comm_time(level: ParallelLevel, g: TopologyGraph) -> tuple[tuple[float, int], ...]:
    """`(seconds, count)` of each run of one level on a topology; `total`
    of them is the level's time.  A level `g` cannot route is an error as
    `_check_level` gives it; a routing error names the level, `at`
    (level, "participants")."""
    _check_level(level, g)
    window_cap = (_window_cap_bytes_per_s(level)  # inf: no window bound
                  if level.strategy == Strategy.IN_NETWORK_AGGREGATION
                  else float("inf"))
    priced = []
    for phase, count in traffic_for_level(level):
        try:
            routed = [(x, resolve_path(g, x.src, x.dst)) for x in phase]
        except ValidationError as exc:
            raise ValidationError(f"level {level.name!r}: {exc}",
                                  at=(level, "participants")) from None
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
            phase_time = max(phase_time, path_time(x.bytes, path, rate),
                             x.bytes / window_cap)
        priced.append((phase_time, count))
    return tuple(priced)


def total(runs, name: str) -> float:
    """Correctly rounded sum of seconds * count over `(seconds, count)`
    runs: one exact sum, rounded once, so it depends on neither the order
    nor the layout of the runs.  A time that is not finite is an error
    naming level `name`, at no one field."""
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
    row_totals: tuple[float, ...]  # per level, `total` of its runs
    phase_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "phase_count", max(
            (sum(count for _, count in runs) for runs in self.runs), default=0))

    def winner(self) -> tuple[ParallelLevel, float]:
        """Cheapest level by total communication time; ties prefer smaller
        n, then declaration order."""
        i = min(range(len(self.levels)),
                key=lambda i: (self.row_totals[i], self.levels[i].n, i))
        return self.levels[i], self.row_totals[i]

    def _cells(self, runs, encode) -> list[tuple[str, int]]:
        """One level's row as `(text, count)` runs of `encode`d cells,
        padded with 0.0 to `phase_count`."""
        pad = self.phase_count - sum(count for _, count in runs)
        return [(encode(t), count) for t, count in runs] + [(encode(0.0), pad)]

    def csv_chunks(self):
        """The matrix as CSV text, in chunks: a `level,t1,...,total` header,
        then each level's name, phase times and total."""
        yield "level"
        for lo in range(0, self.phase_count, 1024):
            yield "".join(f",t{k + 1}" for k in
                          range(lo, min(lo + 1024, self.phase_count)))
        yield ",total\n"
        for level, runs, total in zip(self.levels, self.runs, self.row_totals):
            name = io.StringIO()
            csv.writer(name, lineterminator="\n").writerow([level.name])
            yield name.getvalue()[:-1]  # quoted as in a whole row
            yield from _repeated(self._cells(runs, repr), ",")
            yield f",{total!r}\n"

    def json_chunks(self):
        """The matrix as `json.dumps(obj, indent=2) + "\\n"` text, in chunks,
        where obj holds `levels`, `phase_count`, `entries` and `row_totals`."""
        def nested(value):  # `value` at depth 1 of the indented object
            return json.dumps(value, indent=2).replace("\n", "\n  ")

        levels = [{"name": lv.name, "strategy": lv.strategy.value, "n": lv.n,
                   "payload_bytes": lv.payload_bytes} for lv in self.levels]
        yield (f'{{\n  "levels": {nested(levels)},\n  "phase_count": '
               f'{self.phase_count},\n  "entries": [')
        for i, runs in enumerate(self.runs):
            yield ",\n    [" if i else "\n    ["
            cells = _repeated(self._cells(runs, json.dumps), ",\n      ")
            first = next(cells, None)
            if first is None:
                yield "]"
                continue
            yield first[1:]  # no comma before the first cell
            yield from cells
            yield "\n    ]"
        yield "\n  ]" if self.runs else "]"
        yield f',\n  "row_totals": {nested(list(self.row_totals))}\n}}\n'


def _repeated(cells, prefix: str):
    """`prefix + text` repeated `count` times for each `(text, count)` of
    `cells`, in chunks of about 8 KiB, so a long run is never held whole."""
    for text, count in cells:
        cell = prefix + text
        per = max(1, 8192 // len(cell))
        full, rest = divmod(count, per)
        yield from itertools.repeat(cell * per, full)
        if rest:
            yield cell * rest

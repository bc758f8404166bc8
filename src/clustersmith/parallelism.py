"""Per-parallel-level traffic, communication times, and the time matrix.

A level is a record of its strategy's class, whose `runs()` expand it into
a schedule of synchronous phases, each a set of point-to-point transfers.
Phase k+1 starts when every phase-k transfer has finished, so a level's
communication time is the sum of per-phase times.  Within a phase,
transfers sharing a link (same direction on duplex links) split its
bandwidth equally.

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
import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field

from .commcost import GB, US, path_time, resolve_path
from .errors import ValidationError, check_number
from .topology import NodeKind, TopologyGraph

_MAY_BE_ZERO = ("payload_bytes", "activation_bytes")  # other numbers are > 0


class Level:
    """What every level record shares.  A record is a namedtuple of the
    fields its strategy reads, checked in `__new__`, so a field it does not
    read cannot be stated; `_make` and `_replace` skip the check, and none
    is called.  Each record also declares its `strategy` name, its line
    `keys` as `(key, type, field)` in the order their values are read, and
    its `runs()`."""

    __slots__ = ()
    server_kinds = ()  # node kinds that may act as its server; () takes none
    window_cap = math.inf  # bound on a worker's throughput, bytes/s

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        try:  # each number field in field order, then the participants
            for key, value in zip(self._fields[2:], self[2:]):
                if key != "server":
                    check_number(key, value, positive=key not in _MAY_BE_ZERO)
            repeated = sorted(p for p, k in Counter(self.participants).items()
                              if k > 1)
            if repeated:
                raise ValidationError(f"repeated participants {repeated}")
            if getattr(self, "server", None) in self.participants:
                raise ValidationError(
                    f"server {self.server!r} is also a participant")
        except ValidationError as exc:
            raise ValidationError(f"level {self.name!r}: {exc}") from None
        return self

    @property
    def n(self) -> int:
        return len(self.participants)


_PAYLOAD, _SERVER = ("payload", float, "payload_bytes"), ("server", str, "server")
Transfer = namedtuple("Transfer", "src dst bytes")


class RingAllreduce(Level, namedtuple("RingAllreduce",
                                      "name participants payload_bytes")):
    """Each participant sends a 1/n chunk to the next, 2(n - 1) times."""

    __slots__ = ()
    strategy = "ring_allreduce"
    keys = (_PAYLOAD,)

    def runs(self):
        """`(phase, count)` runs: each phase a tuple of transfers repeated
        `count` times; none for fewer than two participants."""
        n, p = self.n, self.participants
        phase = tuple(Transfer(p[i], p[(i + 1) % n], self.payload_bytes / n)
                      for i in range(n))
        return ((phase, 2 * (n - 1)),) if n > 1 else ()


class ParameterServer(Level, namedtuple(
        "ParameterServer", "name participants payload_bytes server",
        defaults=(None,))):
    """Every worker sends its payload to the server, which sends it back."""

    __slots__ = ()
    strategy = "parameter_server"
    keys = (_PAYLOAD, _SERVER)
    server_kinds = (NodeKind.NIC, NodeKind.DPU, NodeKind.CPU_SOCKET)

    def runs(self):
        """An up phase and a down phase, once each."""
        s, m, p = self.server, self.payload_bytes, self.participants
        return ((tuple(Transfer(w, s, m) for w in p), 1),
                (tuple(Transfer(s, w, m) for w in p), 1)) if self.n > 1 else ()


class InNetworkAggregation(Level, namedtuple(
        "InNetworkAggregation", "name participants payload_bytes server "
        "window_packets packet_bytes rtt_us", defaults=(None, 4, 1100, 10.0))):
    """A parameter server on a network switch, each worker's throughput
    bounded by its window of outstanding packets."""

    __slots__ = ()
    strategy = "in_network_aggregation"
    keys = (("window", int, "window_packets"), ("pkt", int, "packet_bytes"),
            ("rtt", float, "rtt_us"), _PAYLOAD, _SERVER)
    server_kinds = (NodeKind.NETWORK_SWITCH,)
    runs = ParameterServer.runs

    @property
    def window_cap(self) -> float:
        """A window of packets per round trip, in bytes/s."""
        # a float product: two large int fields give inf, not an OverflowError
        window = float(self.window_packets) * self.packet_bytes
        rtt_s = self.rtt_us * US  # 0.0 for a subnormal rtt: then no bound
        return window / rtt_s if rtt_s else math.inf


class PipelineP2P(Level, namedtuple(
        "PipelineP2P", "name participants payload_bytes activation_bytes "
        "microbatches", defaults=(0.0, 1))):
    """Each stage sends its activations to the next, once per micro-batch."""

    __slots__ = ()
    strategy = "pipeline_p2p"
    keys = (("microbatches", int, "microbatches"),
            ("activation", float, "activation_bytes"), _PAYLOAD)

    def runs(self):
        """One phase of n - 1 transfers, `microbatches` times."""
        n, p = self.n, self.participants
        phase = tuple(Transfer(p[i], p[i + 1], self.activation_bytes)
                      for i in range(n - 1))
        return ((phase, self.microbatches),) if n > 1 else ()


# the record class of each strategy, by the name `plan` prints
STRATEGIES = {cls.strategy: cls for cls in (
    RingAllreduce, ParameterServer, InNetworkAggregation, PipelineP2P)}


def _check_level(level: Level, g: TopologyGraph) -> None:
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
    kinds = level.server_kinds
    if not kinds:
        return
    if level.server is None:
        if level.n > 1:  # a single participant prices as no traffic
            fail(f"{level.strategy} needs a server= node")
        return
    if level.server not in g.index:
        fail(f"unknown node {level.server!r}", "server")
    kind = g.node(level.server).kind
    if kind not in kinds:
        fail(f"server {level.server!r} is {kind.value}, expected one of "
             + "/".join(k.value for k in kinds), "server")


def comm_time(level: Level, g: TopologyGraph) -> tuple[tuple[float, int], ...]:
    """`(seconds, count)` of each run of one level on a topology; `total`
    of them is the level's time.  A level `g` cannot route is an error as
    `_check_level` gives it; a routing error names the level, `at`
    (level, "participants")."""
    _check_level(level, g)
    window_cap = level.window_cap  # inf: no window bound
    priced = []
    for phase, count in level.runs():
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
    levels: tuple[Level, ...]
    runs: tuple[tuple[tuple[float, int], ...], ...]  # per level, from comm_time
    row_totals: tuple[float, ...]  # per level, `total` of its runs
    phase_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "phase_count", max(
            (sum(count for _, count in runs) for runs in self.runs), default=0))

    def winner(self) -> tuple[Level, float]:
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

        levels = [{"name": lv.name, "strategy": lv.strategy, "n": lv.n,
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

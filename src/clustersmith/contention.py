"""Fluid simulation of concurrent transfers through one PCIe-switch
upstream link, plus the stagger-interval optimizer.

The simulator is rate-based: between events every active flow receives
min(per_flow_cap, upstream/k) where k is the number of active flows
(max-min fair with identical caps).  Because all active flows share one
rate, a single virtual-time counter, `served` (the bytes each active flow
has received), prices all of them, as in GPS / fair queueing.  A flow that
starts at served = s with B bytes finishes when served reaches s + B, so a
heap of these marks and the start-sorted flows give exactly one start and
one finish event per flow, with no residue threshold.  The counter restarts
at 0 whenever the switch goes idle, so a flow that starts alone finishes
exactly B / rate after its start: the instant the stagger optimizer plans
for, which is why staggered starts never precede their predecessor's
finish.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
from dataclasses import dataclass

from .commcost import GB
from .errors import ValidationError, check_number


@dataclass(frozen=True)
class Flow:
    id: str
    bytes: float
    release: float = 0.0  # seconds
    offset: float = 0.0   # seconds of added stagger

    def __post_init__(self):
        try:
            check_number("bytes", self.bytes, positive=True)
            check_number("release", self.release)
            check_number("offset", self.offset)
        except ValidationError as exc:
            raise ValidationError(f"flow {self.id!r}: {exc}") from None

    @property
    def start(self) -> float:
        return self.release + self.offset


@dataclass(frozen=True)
class SwitchModel:
    upstream_bandwidth: float  # GB/s
    per_flow_cap: float        # GB/s

    def __post_init__(self):
        check_number("upstream_bandwidth", self.upstream_bandwidth, positive=True)
        check_number("per_flow_cap", self.per_flow_cap, positive=True)


@dataclass(frozen=True)
class EventRecord:
    time_s: float
    event: str  # "start" | "finish"
    flow_id: str
    active_flows: int           # active count after the event
    per_flow_rate_gbps: float   # rate each active flow gets after the event


@dataclass(frozen=True)
class SimResult:
    completions: dict
    makespan: float
    mean_completion: float
    peak_concurrency: int
    events: tuple[EventRecord, ...]


def _rate(sw: SwitchModel, active: int) -> float:
    # identical caps make max-min fairness collapse to min(cap, fair share)
    return min(sw.per_flow_cap, sw.upstream_bandwidth / active) if active else 0.0


def simulate(flows, sw: SwitchModel) -> SimResult:
    """Run all flows to completion; deterministic for identical inputs."""
    pending = sorted(flows, key=lambda f: (f.start, f.id))
    marks = []  # heap of (served when the flow started + its bytes, id)
    completions = {}
    events = []
    t = served = 0.0
    i = 0
    while i < len(pending) or marks:
        if marks:
            rate_bps = _rate(sw, len(marks)) * GB
            finish = t + (marks[0][0] - served) / rate_bps
        # completions first, then starts, so ties release bandwidth before
        # the next flow sees the switch
        if marks and (i == len(pending) or finish <= pending[i].start):
            t, served = finish, marks[0][0]
            while marks and marks[0][0] == served:
                fid = heapq.heappop(marks)[1]
                completions[fid] = t
                events.append(EventRecord(t, "finish", fid, len(marks),
                                          _rate(sw, len(marks))))
            if not marks:
                served = 0.0  # an idle switch restarts the count exactly
            continue
        if marks:  # a start one ulp before a finish must not overtake it
            served = min(served + rate_bps * (pending[i].start - t),
                         marks[0][0])
        t = pending[i].start
        while i < len(pending) and pending[i].start <= t:
            f = pending[i]
            i += 1
            heapq.heappush(marks, (served + f.bytes, f.id))
            events.append(EventRecord(t, "start", f.id, len(marks),
                                      _rate(sw, len(marks))))
    times = list(completions.values())
    return SimResult(
        completions=completions,
        makespan=max(times, default=0.0),
        mean_completion=sum(times) / len(times) if times else 0.0,
        peak_concurrency=max((e.active_flows for e in events), default=0),
        events=tuple(events),
    )


def optimize_stagger(flows, sw: SwitchModel) -> dict:
    """Offsets serializing the flows: largest first, each starting when its
    predecessor would finish at solo bandwidth.

    Serialization is work-conserving, drives peak concurrency to 1, and
    for identical flows minimizes mean completion.  Each chain step is the
    finish time `simulate` computes for a flow alone on the switch, and
    each offset is rounded up until `release + offset` reaches it, so no
    staggered start precedes its predecessor's finish.
    """
    flows = list(flows)
    solo_bps = min(sw.per_flow_cap, sw.upstream_bandwidth) * GB
    offsets = {}
    t = 0.0
    for f in sorted(flows, key=lambda f: (-f.bytes, f.id)):
        offset = max(t - f.release, 0.0)
        while f.release + offset < t:  # t - release may not round-trip
            offset = math.nextafter(offset, math.inf)
        offsets[f.id] = offset
        t = f.release + offset + f.bytes / solo_bps
    return {f.id: offsets[f.id] for f in flows}


def with_offsets(flows, offsets: dict):
    """Copies of flows with the given stagger offsets applied."""
    return [Flow(id=f.id, bytes=f.bytes, release=f.release,
                 offset=offsets.get(f.id, f.offset)) for f in flows]


def events_to_csv(events) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time_s", "event", "flow_id", "active_flows",
                     "per_flow_rate_GBps"])
    for e in events:
        writer.writerow([repr(e.time_s), e.event, e.flow_id, e.active_flows,
                         repr(e.per_flow_rate_gbps)])
    return buf.getvalue()

import csv
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersmith.commcost import path_time, resolve_path
from clustersmith.errors import ValidationError
from clustersmith.parallelism import (
    ParallelLevel,
    Strategy,
    comm_time,
    total,
    traffic_for_level,
)
from clustersmith.topology import load_topology

from conftest import expand, expanded_rows, matrix_of, time_matrix


def ring(n, payload, name="ring", participants=None):
    participants = participants or tuple(f"gpu{i}" for i in range(n))
    return ParallelLevel(name=name, strategy=Strategy.RING_ALLREDUCE,
                         participants=participants, payload_bytes=payload)


def brute_force_ring_bytes(n, payload):
    """Oracle: sum every per-phase send of each participant."""
    runs = traffic_for_level(ring(n, payload))
    sent = {f"gpu{i}": 0.0 for i in range(n)}
    for phase, count in runs:
        for _ in range(count):
            for flow in phase:
                sent[flow.src] += flow.bytes
    return sent


def test_ring_phase_count_and_bytes():
    runs = traffic_for_level(ring(4, 1e9))
    assert [count for _, count in runs] == [6]
    sent = brute_force_ring_bytes(4, 1e9)
    assert all(v == pytest.approx(1.5e9) for v in sent.values())


@given(n=st.integers(2, 16), payload=st.floats(0, 1e12))
def test_ring_per_participant_total(n, payload):
    for total in brute_force_ring_bytes(n, payload).values():
        assert total == pytest.approx(2 * (n - 1) * payload / n)


def test_ring_conservation():
    for phase, _ in traffic_for_level(ring(5, 3e9)):
        assert sum(f.bytes for f in phase) == pytest.approx(
            sum(f.bytes for f in phase))  # point-to-point: injected = delivered
        srcs = {f.src for f in phase}
        dsts = {f.dst for f in phase}
        assert srcs == dsts == {f"gpu{i}" for i in range(5)}


def test_parameter_server_flows():
    lv = ParallelLevel(name="ps", strategy=Strategy.PARAMETER_SERVER,
                       participants=("gpu0", "gpu1"), payload_bytes=1e9,
                       server="cpu")
    (up, n_up), (down, n_down) = traffic_for_level(lv)
    assert n_up == n_down == 1
    assert sum(f.bytes for f in up if f.dst == "cpu") == pytest.approx(2e9)
    assert sum(f.bytes for f in down if f.src == "cpu") == pytest.approx(2e9)


def test_parameter_server_needs_server(nvlink4):
    lv = ParallelLevel(name="ps", strategy=Strategy.PARAMETER_SERVER,
                       participants=("gpu0", "gpu1"), payload_bytes=1e9)
    with pytest.raises(ValidationError, match="^level 'ps': "
                       "parameter_server needs a server= node$"):
        comm_time(lv, nvlink4)


def test_degenerate_single_participant():
    for strategy in Strategy:
        lv = ParallelLevel(name="solo", strategy=strategy,
                           participants=("gpu0",), payload_bytes=1e9)
        assert traffic_for_level(lv) == ()


def test_zero_participants_rejected(nvlink4):
    lv = ParallelLevel(name="none", strategy=Strategy.RING_ALLREDUCE,
                       participants=(), payload_bytes=1e9)
    with pytest.raises(ValidationError, match="^level 'none': needs at "
                       "least one participant$"):
        comm_time(lv, nvlink4)


def test_pipeline_phases():
    lv = ParallelLevel(name="pp", strategy=Strategy.PIPELINE_P2P,
                       participants=("gpu0", "gpu1", "gpu2"),
                       payload_bytes=0, microbatches=4, activation_bytes=1e8)
    runs = traffic_for_level(lv)
    assert [(len(phase), count) for phase, count in runs] == [(2, 4)]


# ---------------------------------------------------------------------------
# comm_time

PAIR = """
node gpu0 kind=Gpu
node gpu1 kind=Gpu
link gpu0 gpu1 kind=NvLink bw=20
"""


def test_ring2_on_dedicated_link():
    g = load_topology(PAIR)
    times = expand(comm_time(ring(2, 10e9), g))
    assert times == pytest.approx([0.25, 0.25])


def test_zero_payload_gives_pure_latency():
    g = load_topology(PAIR.replace("bw=20", "bw=20 lat=4 b=1"))
    times = expand(comm_time(ring(2, 0.0), g))
    assert times == pytest.approx([5e-6, 5e-6])


def test_ina_window_cap():
    lv = ParallelLevel(name="ina", strategy=Strategy.IN_NETWORK_AGGREGATION,
                       participants=("gpu0", "gpu1"), payload_bytes=1e9,
                       server="tor", window_packets=4, packet_bytes=1100,
                       rtt_us=10.0)
    g = load_topology(
        "node gpu0 kind=Gpu\nnode gpu1 kind=Gpu\nnode tor kind=NetworkSwitch\n"
        "link gpu0 tor kind=Ethernet bw=100\nlink gpu1 tor kind=Ethernet bw=100"
    )
    cap = 4 * 1100 / 10e-6  # 0.44 GB/s
    assert cap == pytest.approx(0.44e9)
    times = expand(comm_time(lv, g))
    # wire is fast; the window bound dominates both phases
    assert times == pytest.approx([1e9 / cap, 1e9 / cap])


def test_ina_window_past_float_range_is_no_bound():
    # each field fits a float but their product does not: no window bound,
    # only the 100 GB/s wire
    lv = ParallelLevel(name="ina", strategy=Strategy.IN_NETWORK_AGGREGATION,
                       participants=("gpu0", "gpu1"), payload_bytes=1e9,
                       server="tor", window_packets=10 ** 200,
                       packet_bytes=10 ** 200)
    g = load_topology(
        "node gpu0 kind=Gpu\nnode gpu1 kind=Gpu\nnode tor kind=NetworkSwitch\n"
        "link gpu0 tor kind=Ethernet bw=100\nlink gpu1 tor kind=Ethernet bw=100"
    )
    assert comm_time(lv, g) == ((0.01, 1), (0.01, 1))


def test_ina_requires_network_switch_server():
    lv = ParallelLevel(name="ina", strategy=Strategy.IN_NETWORK_AGGREGATION,
                       participants=("gpu0", "gpu1"), payload_bytes=1e9,
                       server="cpu")
    g = load_topology(PAIR + "node cpu kind=CpuSocket\n"
                      "link gpu1 cpu kind=Pcie bw=16\n")
    with pytest.raises(ValidationError, match="^level 'ina': server 'cpu' is "
                       "CpuSocket, expected one of NetworkSwitch$"):
        comm_time(lv, g)


def test_equal_split_on_shared_link():
    # both workers push to the server through one shared uplink
    g = load_topology(
        "node gpu0 kind=Gpu\nnode gpu1 kind=Gpu\nnode sw kind=PcieSwitch\n"
        "node cpu kind=CpuSocket\n"
        "link gpu0 sw kind=Pcie bw=16\nlink gpu1 sw kind=Pcie bw=16\n"
        "link sw cpu kind=Pcie bw=16"
    )
    lv = ParallelLevel(name="ps", strategy=Strategy.PARAMETER_SERVER,
                       participants=("gpu0", "gpu1"), payload_bytes=8e9,
                       server="cpu")
    times = expand(comm_time(lv, g))
    # uplink shared by 2 flows at 8 GB/s each: 1 s per direction phase
    assert times == pytest.approx([1.0, 1.0])


def test_comm_time_at_least_isolation_bound(nvlink4):
    lv = ring(4, 10e9)
    runs = traffic_for_level(lv)
    priced = comm_time(lv, nvlink4)
    assert [count for _, count in priced] == [count for _, count in runs]
    for (phase, _), (t, _) in zip(runs, priced):
        bound = max(path_time(f.bytes, resolve_path(nvlink4, f.src, f.dst))
                    for f in phase)
        assert t >= bound - 1e-12


def test_uncontended_transfer_is_priced_by_path_time():
    # one transfer shares no link, so its time is exactly `path_time`'s
    g = load_topology(
        "node gpu0 kind=Gpu\nnode sw kind=PcieSwitch\nnode gpu1 kind=Gpu\n"
        "link gpu0 sw kind=Pcie bw=32 lat=0.7 b=0.3\n"
        "link sw gpu1 kind=Pcie bw=16 lat=0.4")
    lv = ParallelLevel(name="pp", strategy=Strategy.PIPELINE_P2P,
                       participants=("gpu0", "gpu1"), payload_bytes=0,
                       microbatches=3, activation_bytes=3e8)
    assert comm_time(lv, g) == (
        (path_time(3e8, resolve_path(g, "gpu0", "gpu1")), 3),)


def test_doubling_payload_doubles_entries(nvlink4):
    m1 = time_matrix([ring(4, 5e9), ring(2, 5e9, name="r2")], nvlink4)
    m2 = time_matrix([ring(4, 10e9), ring(2, 10e9, name="r2")], nvlink4)
    for r1, r2 in zip(expanded_rows(m1), expanded_rows(m2)):
        for a, b in zip(r1, r2):
            assert b == pytest.approx(2 * a)


# ---------------------------------------------------------------------------
# TimeMatrix


def test_matrix_single_cell(nvlink4):
    lv = ParallelLevel(name="pp", strategy=Strategy.PIPELINE_P2P,
                       participants=("gpu0", "gpu1"), payload_bytes=0,
                       microbatches=1, activation_bytes=1e9)
    m = time_matrix([lv], nvlink4)
    assert m.phase_count == 1
    assert len(expanded_rows(m)) == 1


def test_matrix_padding_preserves_totals(nvlink4):
    levels = [ring(4, 10e9, name="r4"), ring(2, 10e9, name="r2")]
    m = time_matrix(levels, nvlink4)
    assert m.phase_count == 6
    rows = expanded_rows(m)
    assert len(rows[1]) == 6
    assert rows[1][2:] == (0.0,) * 4
    assert m.row_totals[1] == pytest.approx(
        math.fsum(expand(comm_time(levels[1], nvlink4))))


def test_matrix_pads_its_rows(dual_socket):
    levels = [
        ring(4, 10e9, name="r4"),
        ParallelLevel(name="ps", strategy=Strategy.PARAMETER_SERVER,
                      participants=("gpu0", "gpu1"), payload_bytes=1e9,
                      server="nic0"),
        ParallelLevel(name="ina", strategy=Strategy.IN_NETWORK_AGGREGATION,
                      participants=("gpu0", "gpu1", "gpu2"), payload_bytes=1e9,
                      server="net0"),
        ParallelLevel(name="pipe", strategy=Strategy.PIPELINE_P2P,
                      participants=("gpu0", "gpu1", "gpu2"), payload_bytes=0,
                      microbatches=3, activation_bytes=1e8),
    ]
    runs = tuple(comm_time(lv, dual_socket) for lv in levels)
    rows = [expand(r) for r in runs]
    assert sorted({len(r) for r in rows}) == [2, 3, 6]
    # each row padded with 0.0 to the widest schedule
    width = max(len(r) for r in rows)
    padded = tuple(tuple(r + [0.0] * (width - len(r))) for r in rows)
    m = matrix_of(levels, runs)
    written = list(csv.reader("".join(m.csv_chunks()).splitlines()))[1:]
    assert [row[1:-1] for row in written] == [list(map(repr, r))
                                              for r in padded]
    assert m.phase_count == width == 6
    # totals are correctly rounded sums of the expanded rows
    assert m.row_totals == tuple(math.fsum(r) for r in padded)


def test_matrix_serialization(nvlink4):
    m = time_matrix([ring(4, 10e9, name="r4"), ring(2, 10e9, name="r2")],
                    nvlink4)
    csv_text = "".join(m.csv_chunks())
    lines = csv_text.strip().splitlines()
    assert lines[0] == "level,t1,t2,t3,t4,t5,t6,total"
    assert len(lines) == 3
    obj = json.loads("".join(m.json_chunks()))
    assert obj["phase_count"] == 6
    assert obj["row_totals"][1] == pytest.approx(0.25)


def expanded_csv(m):
    """Oracle: the CSV written whole, from the expanded rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["level"] + [f"t{k + 1}" for k in range(m.phase_count)]
                    + ["total"])
    for level, row, t in zip(m.levels, expanded_rows(m), m.row_totals):
        writer.writerow([level.name] + [repr(x) for x in row] + [repr(t)])
    return buf.getvalue()


def expanded_json(m):
    """Oracle: `json.dumps` of the whole matrix, from the expanded rows."""
    return json.dumps({
        "levels": [{"name": lv.name, "strategy": lv.strategy.value, "n": lv.n,
                    "payload_bytes": lv.payload_bytes} for lv in m.levels],
        "phase_count": m.phase_count,
        "entries": [list(row) for row in expanded_rows(m)],
        "row_totals": list(m.row_totals),
    }, indent=2) + "\n"


NAMES = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                max_size=4)
MATRIX_RUNS = st.lists(st.tuples(st.floats(0, 1e300), st.sampled_from(
    [1, 2, 3, 3000])), max_size=2)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(rows=st.lists(st.tuples(NAMES, MATRIX_RUNS), max_size=4))
def test_streamed_matrix_text_equals_the_expanded_text(rows):
    # names that need CSV quoting or JSON escapes, empty and padded rows, and
    # runs longer than one chunk
    levels = tuple(ring(2, 1e9, name=name) for name, _ in rows)
    m = matrix_of(levels, [runs for _, runs in rows])
    assert "".join(m.csv_chunks()) == expanded_csv(m)
    assert "".join(m.json_chunks()) == expanded_json(m)


def test_streamed_matrix_chunks_stay_small():
    lv = ParallelLevel(name="pp", strategy=Strategy.PIPELINE_P2P,
                       participants=("gpu0", "gpu1"), payload_bytes=0,
                       microbatches=10 ** 5, activation_bytes=1e8)
    m = matrix_of((lv,), (((0.0125, 10 ** 5),),))
    for chunks in (m.csv_chunks(), m.json_chunks()):
        assert max(map(len, chunks)) <= 16 * 1024


# ---------------------------------------------------------------------------
# total

RUNS = st.lists(st.tuples(st.floats(0, 1e6), st.integers(1, 10 ** 9)),
                max_size=4)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(runs=RUNS, data=st.data())
def test_total_is_the_correctly_rounded_sum(runs, data):
    got = total(runs, "r")
    assert got == float(sum(Fraction(t) * count for t, count in runs))
    if sum(count for _, count in runs) <= 10 ** 4:
        assert got == math.fsum(expand(runs))
    if len(runs) == 1:  # one run is one product
        assert got == float(runs[0][1]) * runs[0][0]
    # neither the order nor the layout of the runs matters
    assert total(runs[::-1], "r") == got
    if runs and runs[0][1] > 1:
        (t, count), rest = runs[0], runs[1:]
        k = data.draw(st.integers(1, count - 1))
        assert total([(t, k)] + rest + [(t, count - k)], "r") == got


@pytest.mark.parametrize("runs", [[(math.inf, 1)], [(math.nan, 1)],
                                  [(1e308, 2)], [(1e308, 1), (1e308, 1)]])
def test_total_that_is_not_finite_names_the_level(runs):
    with pytest.raises(ValidationError,
                       match="level 'r': time is not a finite number"):
        total(runs, "r")


# ---------------------------------------------------------------------------
# TimeMatrix.winner


def test_select_single_candidate(nvlink4):
    lv = ring(4, 10e9)
    best, _ = time_matrix([lv], nvlink4).winner()
    assert best is lv


def test_select_ring_beats_slow_parameter_server():
    g = load_topology(
        "node gpu0 kind=Gpu\nnode gpu1 kind=Gpu\nnode gpu2 kind=Gpu\n"
        "node gpu3 kind=Gpu\nnode cpu kind=CpuSocket\n"
        "link gpu0 gpu1 kind=NvLink bw=40\nlink gpu2 gpu3 kind=NvLink bw=40\n"
        "link gpu0 gpu2 kind=NvLink bw=20\nlink gpu0 gpu3 kind=NvLink bw=20\n"
        "link gpu1 gpu2 kind=NvLink bw=20\nlink gpu1 gpu3 kind=NvLink bw=20\n"
        "link gpu0 cpu kind=Pcie bw=1\n"
    )
    r = ring(4, 1e9)
    ps = ParallelLevel(name="ps", strategy=Strategy.PARAMETER_SERVER,
                       participants=("gpu0", "gpu1", "gpu2", "gpu3"),
                       payload_bytes=1e9, server="cpu")
    best, _ = time_matrix([ps, r], g).winner()
    assert best is r


def test_select_tie_prefers_declaration_order(nvlink4):
    a = ring(2, 10e9, name="first", participants=("gpu0", "gpu1"))
    b = ring(2, 10e9, name="second", participants=("gpu0", "gpu1"))
    best, _ = time_matrix([a, b], nvlink4).winner()
    assert best is a


def test_select_invariant_under_loser_reordering(nvlink4):
    r4 = ring(4, 10e9, name="r4")
    r2 = ring(2, 10e9, name="r2")
    r3 = ring(3, 10e9, name="r3", participants=("gpu0", "gpu1", "gpu2"))
    w1, t1 = time_matrix([r4, r3, r2], nvlink4).winner()
    w2, t2 = time_matrix([r3, r4, r2], nvlink4).winner()
    assert w1.name == w2.name == "r2"
    assert t1 == t2

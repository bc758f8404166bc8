import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustersmith.errors import MissingServerNode, TooFewParticipants
from clustersmith.parallelism import (
    ParallelLevel,
    Strategy,
    build_time_matrix,
    comm_time,
    select_level,
    traffic_for_level,
)
from clustersmith.topology import load_topology


def ring(n, payload, name="ring", participants=None):
    participants = participants or tuple(f"gpu{i}" for i in range(n))
    return ParallelLevel(name=name, strategy=Strategy.RING_ALLREDUCE,
                         participants=participants, payload_bytes=payload)


def brute_force_ring_bytes(n, payload):
    """Oracle: sum every per-phase send of each participant."""
    phases = traffic_for_level(ring(n, payload))
    sent = {f"gpu{i}": 0.0 for i in range(n)}
    for phase in phases:
        for flow in phase:
            sent[flow.src] += flow.bytes
    return sent


def test_ring_phase_count_and_bytes():
    phases = traffic_for_level(ring(4, 1e9))
    assert len(phases) == 6
    sent = brute_force_ring_bytes(4, 1e9)
    assert all(v == pytest.approx(1.5e9) for v in sent.values())


@given(n=st.integers(2, 16), payload=st.floats(0, 1e12))
def test_ring_per_participant_total(n, payload):
    for total in brute_force_ring_bytes(n, payload).values():
        assert total == pytest.approx(2 * (n - 1) * payload / n)


def test_ring_conservation():
    phases = traffic_for_level(ring(5, 3e9))
    for phase in phases:
        assert sum(f.bytes for f in phase) == pytest.approx(
            sum(f.bytes for f in phase))  # point-to-point: injected = delivered
        srcs = {f.src for f in phase}
        dsts = {f.dst for f in phase}
        assert srcs == dsts == {f"gpu{i}" for i in range(5)}


def test_parameter_server_flows():
    lv = ParallelLevel(name="ps", strategy=Strategy.PARAMETER_SERVER,
                       participants=("gpu0", "gpu1"), payload_bytes=1e9,
                       server="cpu")
    phases = traffic_for_level(lv)
    assert len(phases) == 2
    up, down = phases
    assert sum(f.bytes for f in up if f.dst == "cpu") == pytest.approx(2e9)
    assert sum(f.bytes for f in down if f.src == "cpu") == pytest.approx(2e9)


def test_parameter_server_needs_server():
    lv = ParallelLevel(name="ps", strategy=Strategy.PARAMETER_SERVER,
                       participants=("gpu0", "gpu1"), payload_bytes=1e9)
    with pytest.raises(MissingServerNode):
        traffic_for_level(lv)


def test_degenerate_single_participant():
    for strategy in Strategy:
        lv = ParallelLevel(name="solo", strategy=strategy,
                           participants=("gpu0",), payload_bytes=1e9)
        assert traffic_for_level(lv) == ()


def test_zero_participants_rejected():
    with pytest.raises(TooFewParticipants):
        traffic_for_level(ParallelLevel(name="none",
                                        strategy=Strategy.RING_ALLREDUCE,
                                        participants=(), payload_bytes=1e9))


def test_pipeline_phases():
    lv = ParallelLevel(name="pp", strategy=Strategy.PIPELINE_P2P,
                       participants=("gpu0", "gpu1", "gpu2"),
                       payload_bytes=0, microbatches=4, activation_bytes=1e8)
    phases = traffic_for_level(lv)
    assert len(phases) == 4
    assert all(len(phase) == 2 for phase in phases)


# ---------------------------------------------------------------------------
# comm_time

PAIR = """
node gpu0 kind=Gpu
node gpu1 kind=Gpu
link gpu0 gpu1 kind=NvLink bw=20
"""


def test_ring2_on_dedicated_link():
    g = load_topology(PAIR)
    times = comm_time(ring(2, 10e9), g)
    assert times == pytest.approx([0.25, 0.25])


def test_zero_payload_gives_pure_latency():
    g = load_topology(PAIR.replace("bw=20", "bw=20 lat=4 b=1"))
    times = comm_time(ring(2, 0.0), g)
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
    times = comm_time(lv, g)
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
    assert comm_time(lv, g) == [0.01, 0.01]


def test_ina_requires_network_switch_server():
    lv = ParallelLevel(name="ina", strategy=Strategy.IN_NETWORK_AGGREGATION,
                       participants=("gpu0", "gpu1"), payload_bytes=1e9,
                       server="cpu")
    g = load_topology(PAIR + "node cpu kind=CpuSocket\n"
                      "link gpu1 cpu kind=Pcie bw=16\n")
    with pytest.raises(MissingServerNode):
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
    times = comm_time(lv, g)
    # uplink shared by 2 flows at 8 GB/s each: 1 s per direction phase
    assert times == pytest.approx([1.0, 1.0])


def test_comm_time_at_least_isolation_bound(nvlink4):
    from clustersmith.commcost import path_time, resolve_path
    lv = ring(4, 10e9)
    times = comm_time(lv, nvlink4)
    phases = traffic_for_level(lv)
    for phase, t in zip(phases, times):
        bound = max(path_time(f.bytes, resolve_path(nvlink4, f.src, f.dst))
                    for f in phase)
        assert t >= bound - 1e-12


def test_doubling_payload_doubles_entries(nvlink4):
    m1 = build_time_matrix([ring(4, 5e9), ring(2, 5e9, name="r2")], nvlink4)
    m2 = build_time_matrix([ring(4, 10e9), ring(2, 10e9, name="r2")], nvlink4)
    for r1, r2 in zip(m1.entries, m2.entries):
        for a, b in zip(r1, r2):
            assert b == pytest.approx(2 * a)


# ---------------------------------------------------------------------------
# TimeMatrix


def test_matrix_single_cell(nvlink4):
    lv = ParallelLevel(name="pp", strategy=Strategy.PIPELINE_P2P,
                       participants=("gpu0", "gpu1"), payload_bytes=0,
                       microbatches=1, activation_bytes=1e9)
    m = build_time_matrix([lv], nvlink4)
    assert m.phase_count == 1
    assert len(m.entries) == 1


def test_matrix_padding_preserves_totals(nvlink4):
    levels = [ring(4, 10e9, name="r4"), ring(2, 10e9, name="r2")]
    m = build_time_matrix(levels, nvlink4)
    assert m.phase_count == 6
    assert len(m.entries[1]) == 6
    assert m.entries[1][2:] == (0.0,) * 4
    assert m.row_totals[1] == pytest.approx(sum(comm_time(levels[1], nvlink4)))


def test_matrix_serialization(nvlink4):
    m = build_time_matrix([ring(4, 10e9, name="r4"), ring(2, 10e9, name="r2")],
                          nvlink4)
    csv_text = m.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "level,t1,t2,t3,t4,t5,t6,total"
    assert len(lines) == 3
    obj = json.loads(json.dumps(m.to_json_obj()))
    assert obj["phase_count"] == 6
    assert obj["row_totals"][1] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# select_level


def test_select_single_candidate(nvlink4):
    lv = ring(4, 10e9)
    best, total = select_level([lv], nvlink4)
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
    best, total = select_level([ps, r], g)
    assert best is r


def test_select_tie_prefers_declaration_order(nvlink4):
    a = ring(2, 10e9, name="first", participants=("gpu0", "gpu1"))
    b = ring(2, 10e9, name="second", participants=("gpu0", "gpu1"))
    best, _ = select_level([a, b], nvlink4)
    assert best is a


def test_select_invariant_under_loser_reordering(nvlink4):
    r4 = ring(4, 10e9, name="r4")
    r2 = ring(2, 10e9, name="r2")
    r3 = ring(3, 10e9, name="r3", participants=("gpu0", "gpu1", "gpu2"))
    w1, t1 = select_level([r4, r3, r2], nvlink4)
    w2, t2 = select_level([r3, r4, r2], nvlink4)
    assert w1.name == w2.name == "r2"
    assert t1 == t2

import math
import random

import pytest

from clustersmith.contention import (
    Flow,
    SimResult,
    SwitchModel,
    events_to_csv,
    optimize_stagger,
    simulate,
    with_offsets,
)
from clustersmith.errors import ValidationError

from conftest import fair_share_oracle, time_stepped_sim

SW16 = SwitchModel(upstream_bandwidth=16.0, per_flow_cap=16.0)


def test_single_flow():
    res = simulate([Flow(id="f0", bytes=10e9)], SW16)
    assert res.completions["f0"] == pytest.approx(0.625)
    assert res.makespan == pytest.approx(0.625)
    assert res.peak_concurrency == 1


def test_two_simultaneous_flows_share_fairly():
    flows = [Flow(id="f0", bytes=10e9), Flow(id="f1", bytes=10e9)]
    res = simulate(flows, SW16)
    assert res.completions["f0"] == pytest.approx(1.25)
    assert res.completions["f1"] == pytest.approx(1.25)
    assert res.peak_concurrency == 2


def test_offset_staggering_example():
    flows = [Flow(id="f0", bytes=10e9),
             Flow(id="f1", bytes=10e9, offset=0.625)]
    res = simulate(flows, SW16)
    assert res.completions["f0"] == pytest.approx(0.625)
    assert res.completions["f1"] == pytest.approx(1.25)
    assert res.mean_completion == pytest.approx(0.9375)
    assert res.peak_concurrency == 1


def test_empty_flow_list():
    res = simulate([], SW16)
    assert res == SimResult(completions={}, makespan=0.0, mean_completion=0.0,
                            peak_concurrency=0, events=())


def test_per_flow_cap_limits_solo_rate():
    sw = SwitchModel(upstream_bandwidth=16.0, per_flow_cap=4.0)
    res = simulate([Flow(id="f0", bytes=8e9)], sw)
    assert res.completions["f0"] == pytest.approx(2.0)


def test_release_delays_start():
    flows = [Flow(id="late", bytes=16e9, release=2.0)]
    res = simulate(flows, SW16)
    assert res.completions["late"] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# optimizer


def test_greedy_offsets_identical_flows():
    flows = [Flow(id=f"f{i}", bytes=10e9) for i in range(4)]
    offsets = optimize_stagger(flows, SW16)
    assert sorted(offsets.values()) == pytest.approx([0.0, 0.625, 1.25, 1.875])


def test_single_flow_zero_offset():
    assert optimize_stagger([Flow(id="f0", bytes=1e9)], SW16) == {"f0": 0.0}


def test_largest_flow_goes_first():
    flows = [Flow(id="small", bytes=1e9), Flow(id="big", bytes=8e9)]
    offsets = optimize_stagger(flows, SW16)
    assert offsets["big"] == 0.0
    assert offsets["small"] == pytest.approx(0.5)


def test_serialization_preserves_makespan():
    flows = [Flow(id=f"f{i}", bytes=10e9) for i in range(3)]
    naive = simulate(flows, SW16)
    offsets = optimize_stagger(flows, SW16)
    staggered = simulate(with_offsets(flows, offsets), SW16)
    assert staggered.makespan == pytest.approx(naive.makespan)
    assert staggered.peak_concurrency == 1


def test_zero_offsets_reproduce_raw_simulation():
    flows = [Flow(id=f"f{i}", bytes=(i + 1) * 1e9) for i in range(3)]
    res1 = simulate(flows, SW16)
    res2 = simulate(with_offsets(flows, {f.id: 0.0 for f in flows}), SW16)
    assert res1 == res2


def test_greedy_optimal_for_identical_flows_tiny_exhaustive():
    """Discretized exhaustive search over offsets on <= 3 identical flows."""
    sw = SwitchModel(upstream_bandwidth=4.0, per_flow_cap=4.0)
    flows = [Flow(id=f"f{i}", bytes=1e9) for i in range(3)]
    greedy = optimize_stagger(flows, sw)
    greedy_mean = simulate(with_offsets(flows, greedy), sw).mean_completion
    grid = [i * 0.0625 for i in range(17)]  # 0 .. 1.0 s
    best = min(
        simulate(with_offsets(flows, {"f0": a, "f1": b, "f2": c}),
                 sw).mean_completion
        for a in grid for b in grid for c in grid
    )
    assert greedy_mean <= best + 1e-9


# ---------------------------------------------------------------------------
# invariants


def _work_integral(events, flows):
    """Integral of allocated bandwidth from the event log."""
    total = 0.0
    for prev, cur in zip(events, events[1:]):
        total += prev.active_flows * prev.per_flow_rate_gbps * 1e9 \
            * (cur.time_s - prev.time_s)
    return total


def test_work_conservation_and_lower_bounds():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 5)
        sw = SwitchModel(upstream_bandwidth=rng.uniform(2, 20),
                         per_flow_cap=rng.uniform(1, 20))
        flows = [Flow(id=f"f{i}", bytes=rng.uniform(1e8, 5e9),
                      release=rng.choice([0.0, rng.uniform(0, 0.5)]),
                      offset=rng.choice([0.0, rng.uniform(0, 0.5)]))
                 for i in range(n)]
        res = simulate(flows, sw)
        total_bytes = sum(f.bytes for f in flows)
        integral = _work_integral(list(res.events), flows)
        assert integral == pytest.approx(total_bytes, rel=1e-9)
        first = min(f.start for f in flows)
        busy = res.makespan - first
        assert busy >= total_bytes / (sw.upstream_bandwidth * 1e9) - 1e-9
        assert busy >= max(f.bytes for f in flows) / (sw.per_flow_cap * 1e9) - 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_identical_flow_stagger_ratio(n):
    flows = [Flow(id=f"f{i}", bytes=16e9) for i in range(n)]
    naive = simulate(flows, SW16)
    offsets = optimize_stagger(flows, SW16)
    staggered = simulate(with_offsets(flows, offsets), SW16)
    # exact up to float rounding (1/n rates are not binary-representable)
    assert staggered.makespan == pytest.approx(naive.makespan, rel=1e-12)
    assert staggered.mean_completion == pytest.approx(
        (n + 1) / (2 * n) * naive.mean_completion, rel=1e-12)
    assert naive.peak_concurrency == n
    assert staggered.peak_concurrency == 1


def test_matches_time_stepped_integrator():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 5)
        sw = SwitchModel(upstream_bandwidth=rng.uniform(2, 6),
                         per_flow_cap=rng.uniform(1, 6))
        flows = [Flow(id=f"f{i}", bytes=rng.uniform(5e6, 2e7),
                      release=rng.uniform(0, 0.003),
                      offset=rng.uniform(0, 0.003)) for i in range(n)]
        fluid = simulate(flows, sw)
        stepped, peak = time_stepped_sim(flows, sw)
        for fid, t in stepped.items():
            assert fluid.completions[fid] == pytest.approx(t, rel=1e-3)
        assert fluid.peak_concurrency == peak


def test_event_log_csv():
    res = simulate([Flow(id="f0", bytes=1e9)], SW16)
    text = events_to_csv(res.events)
    lines = text.strip().splitlines()
    assert lines[0] == "time_s,event,flow_id,active_flows,per_flow_rate_GBps"
    assert len(lines) == 3  # start + finish


# ---------------------------------------------------------------------------
# termination, event count and exactness at scale


def _check_run(flows, res):
    """2n events in time order, and the logged rates deliver every byte."""
    assert len(res.events) == 2 * len(flows)
    times = [e.time_s for e in res.events]
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert _work_integral(list(res.events), flows) == pytest.approx(
        sum(f.bytes for f in flows), rel=1e-9)


def test_repro_staggered_release_terminates():
    """Seven 1-7 GB flows released 1 ms apart: float residue in per-flow
    byte counts must not stall simulated time."""
    flows = [Flow(id=f"f{i}", bytes=1e9 * (1 + i % 7), release=i * 1e-3)
             for i in range(7)]
    res = simulate(flows, SW16)
    _check_run(flows, res)
    exact = fair_share_oracle(flows, SW16)
    for fid, t in exact.items():
        assert res.completions[fid] == pytest.approx(float(t), rel=1e-12)


def test_repro_many_sizes_at_once_terminates():
    flows = [Flow(id=f"f{i}", bytes=2**20 * (i + 1)) for i in range(200)]
    res = simulate(flows, SW16)
    _check_run(flows, res)
    assert res.peak_concurrency == 200
    staggered = simulate(with_offsets(flows, optimize_stagger(flows, SW16)),
                         SW16)
    assert staggered.peak_concurrency == 1
    assert staggered.makespan == pytest.approx(res.makespan, rel=1e-12)


@pytest.mark.parametrize("n,seeds", [(7, 40), (32, 20), (200, 5), (1000, 2),
                                     (10**4, 1)])
def test_mixed_flows_terminate_with_2n_events(n, seeds):
    for seed in range(seeds):
        rng = random.Random(f"{n}:{seed}")
        sw = SwitchModel(upstream_bandwidth=rng.choice([15.75, 16.0, 31.5]),
                         per_flow_cap=rng.choice([4.0, 8.0, 16.0, 31.5]))
        window = rng.choice([0.0, 1e-3, 1e-2, 1.0])
        # fractional sizes: sums of whole byte counts are exact in floats
        flows = [Flow(id=f"f{i}", bytes=2.0 ** rng.uniform(20, 33),
                      release=rng.choice([0.0, rng.uniform(0, window)]))
                 for i in range(n)]
        _check_run(flows, simulate(flows, sw))
        staggered = with_offsets(flows, optimize_stagger(flows, sw))
        res = simulate(staggered, sw)
        _check_run(staggered, res)
        assert res.peak_concurrency == 1


def test_start_one_ulp_before_a_finish_keeps_time_order():
    rng = random.Random(2)
    for _ in range(1500):
        sw = SwitchModel(upstream_bandwidth=rng.choice([12.3, 15.75, 31.5]),
                         per_flow_cap=rng.choice([4.0, 8.0, 16.0, 31.5]))
        flows = [Flow(id=f"f{i}", bytes=2.0 ** rng.uniform(20, 30),
                      release=rng.choice([0.0, rng.uniform(0, 1e-2)]))
                 for i in range(rng.randint(2, 12))]
        finish = rng.choice(list(simulate(flows, sw).completions.values()))
        flows.append(Flow(id="x", bytes=2.0 ** rng.uniform(20, 30),
                          release=math.nextafter(finish, 0)))
        _check_run(flows, simulate(flows, sw))


def test_matches_exact_fair_share_with_ties():
    """Dyadic sizes, releases and stagger offsets make starts coincide with
    one another and with finishes."""
    rng = random.Random(11)
    for _ in range(300):
        upstream = rng.choice([8.0, 12.0, 16.0])
        sw = SwitchModel(upstream_bandwidth=upstream,
                         per_flow_cap=rng.choice([upstream, upstream / 2, 4.0]))
        flows = [Flow(id=f"f{i}", bytes=rng.choice([1, 2, 3, 4]) * 2.0**28,
                      release=rng.choice([0.0, 0.0, 0.0625, 0.125, 0.25]))
                 for i in range(rng.randint(1, 8))]
        if rng.random() < 0.5:
            flows = with_offsets(flows, optimize_stagger(flows, sw))
        res = simulate(flows, sw)
        exact = fair_share_oracle(flows, sw)
        assert res.completions.keys() == exact.keys()
        for fid, t in exact.items():
            assert res.completions[fid] == pytest.approx(float(t), rel=1e-12)


def test_mean_of_finite_times_stays_finite():
    # each finishes at the largest float; a third of it rounds up, so even
    # the scaled terms sum past it
    top = 1.7976931348623157e308
    res = simulate([Flow(id=f"f{i}", bytes=top / 3) for i in range(3)],
                   SwitchModel(upstream_bandwidth=1e-9, per_flow_cap=1e-9))
    assert res.makespan == res.mean_completion == top


@pytest.mark.parametrize("kwargs", [
    {"bytes": math.nan}, {"bytes": math.inf}, {"bytes": 0.0},
    {"bytes": -1.0}, {"release": math.nan}, {"release": math.inf},
    {"release": -1.0}, {"offset": math.nan}, {"offset": -1e-9},
])
def test_flow_rejects_bad_numbers(kwargs):
    with pytest.raises(ValidationError):
        Flow(**{"id": "f0", "bytes": 1e9, **kwargs})


@pytest.mark.parametrize("kwargs", [
    {"upstream_bandwidth": math.nan}, {"upstream_bandwidth": math.inf},
    {"upstream_bandwidth": 0.0}, {"per_flow_cap": math.nan},
    {"per_flow_cap": -4.0}, {"per_flow_cap": math.inf},
    {"upstream_bandwidth": -16.0},
])
def test_switch_rejects_bad_numbers(kwargs):
    with pytest.raises(ValidationError):
        SwitchModel(**{"upstream_bandwidth": 16.0, "per_flow_cap": 16.0,
                       **kwargs})

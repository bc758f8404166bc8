"""End-to-end acceptance gates.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE <n>: PASS`` line when its assertions hold, so a plain
``pytest -v -s tests/test_acceptance.py`` run doubles as a checklist.
"""

import random
import time

import numpy as np
import pytest

from clustersmith import gnn
from clustersmith.cli import load_levels
from clustersmith.commcost import path_time, resolve_path
from clustersmith.contention import (Flow, SwitchModel, optimize_stagger,
                                     simulate, with_offsets)
from clustersmith.parallelism import RingAllreduce, comm_time, total
from clustersmith.pricing import coverage_table_cells
from clustersmith.topology import (Link, LinkKind, Node, NodeKind,
                                   PRESET_NAMES, build_graph, export_topo,
                                   load_preset, load_topology)

from conftest import (expanded_rows, finish_times, random_graph,
                      time_stepped_sim)

GDR_FIXTURE = """
node gpu kind=Gpu
node cpu kind=CpuSocket
node mem kind=HostMemory
node nic kind=Nic
link gpu cpu kind=Pcie bw=16 lanes=16 lat=0.5
link cpu mem kind=IntraDie bw=100 lat=0.2
link cpu nic kind=Pcie bw=16 lanes=16 lat=0.5
flag gdr=false
"""


def report(n: int) -> None:
    print(f"ACCEPTANCE {n}: PASS")


def test_acceptance_1_table_reproduction():
    start = time.perf_counter()
    cells = coverage_table_cells()
    assert len(cells) == 36
    assert sum(1 for c in cells if c.table == "cpu") == 24
    assert sum(1 for c in cells if c.table == "gpu") == 12
    for cell in cells:
        assert abs(cell.delta) <= 0.01, cell
    assert time.perf_counter() - start < 1.0
    report(1)


def test_acceptance_2_sub_doubling_law():
    # two-GPU rings, each on its own link, priced as `plan` prices them
    # (`comm_time`, then `total`): at a link's bandwidth and at half of it,
    # as halving its lanes would give, with latency and overhead b and
    # without
    start = time.perf_counter()
    rng = random.Random(2)
    nodes = [Node(f"{r}{i}", NodeKind.GPU) for r in "wxyz" for i in (0, 1)]
    for _ in range(1000):
        bw, lat = rng.uniform(0.5, 100.0), rng.uniform(0.0, 10.0)
        b, nbytes = rng.uniform(1e-9, 10.0), rng.uniform(1.0, 1e10)
        g = build_graph(nodes, [
            Link(f"{r}0", f"{r}1", LinkKind.PCIE, w, l, extra_overhead_b=o)
            for r, w, l, o in (("w", bw, lat, b), ("x", bw / 2, lat, b),
                               ("y", bw, 0.0, 0.0), ("z", bw / 2, 0.0, 0.0))])
        full, half, full_0, half_0 = (total(comm_time(RingAllreduce(
            r, (f"{r}0", f"{r}1"), nbytes), g), r) for r in "wxyz")
        assert half < 2.0 * full
        assert half_0 == pytest.approx(2.0 * full_0, rel=1e-12)
    assert time.perf_counter() - start < 1.0
    report(2)


def test_acceptance_3_contention_oracle():
    start = time.perf_counter()
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        flows = [Flow(id=f"f{i}", bytes=rng.uniform(5e6, 2e7),
                      release=rng.choice([0.0, rng.uniform(0, 2e-3)]),
                      offset=rng.choice([0.0, rng.uniform(0, 2e-3)]))
                 for i in range(n)]
        sw = SwitchModel(upstream_bandwidth=rng.uniform(2.0, 6.0),
                         per_flow_cap=rng.uniform(1.0, 6.0))
        result = simulate(flows, sw)
        oracle, _ = time_stepped_sim(flows, sw)
        for flow in flows:
            assert finish_times(result)[flow.id] == pytest.approx(
                oracle[flow.id], rel=1e-3)
        # work conservation: integrate allocated bandwidth over the event log
        moved = 0.0
        for prev, cur in zip(result.events, result.events[1:]):
            dt = cur.time_s - prev.time_s
            moved += dt * prev.active_flows * prev.per_flow_rate_gbps * 1e9
        assert moved == pytest.approx(sum(f.bytes for f in flows), rel=1e-9)
    assert time.perf_counter() - start < 30.0
    report(3)


def test_acceptance_4_stagger_benefit():
    sw = SwitchModel(upstream_bandwidth=16.0, per_flow_cap=16.0)
    for n in range(2, 9):
        flows = [Flow(id=f"f{i}", bytes=16e9) for i in range(n)]
        naive = simulate(flows, sw)
        offsets = optimize_stagger(flows, sw)
        staggered = simulate(with_offsets(flows, offsets), sw)
        ratio = (n + 1) / (2 * n)
        assert staggered.mean_completion == pytest.approx(
            ratio * naive.mean_completion, rel=1e-12)
        assert staggered.peak_concurrency == 1
        assert naive.peak_concurrency == n
        assert staggered.makespan == pytest.approx(naive.makespan, rel=1e-12)
    report(4)


def test_acceptance_5_pipeline_on_nvlink4():
    start = time.perf_counter()
    graph = load_preset("nvlink4.topo")
    matrix = load_levels(
        "level ring4 strategy=ring_allreduce participants=gpu0,gpu1,gpu2,gpu3"
        " payload=10e9\n"
        "level ring2 strategy=ring_allreduce participants=gpu0,gpu1"
        " payload=10e9\n", graph)
    # ring4: 2(n-1) = 6 phases, chunk 2.5 GB; the ring gpu0-gpu1-gpu2-gpu3-gpu0
    # bottlenecks on its 20 GB/s hops -> 0.125 s per phase.
    assert matrix.phase_count == 6
    rows = expanded_rows(matrix)
    for k in range(6):
        assert rows[0][k] == pytest.approx(0.125, abs=1e-9)
    # ring2: 2 phases, chunk 5 GB over the dedicated 40 GB/s link -> 0.125 s.
    for k in range(2):
        assert rows[1][k] == pytest.approx(0.125, abs=1e-9)
    for k in range(2, 6):
        assert rows[1][k] == 0.0
    assert matrix.row_totals[0] == pytest.approx(0.75, abs=1e-9)
    assert matrix.row_totals[1] == pytest.approx(0.25, abs=1e-9)
    winner, total = matrix.winner()
    assert winner.name == "ring2"
    assert total == pytest.approx(0.25, abs=1e-9)
    assert time.perf_counter() - start < 1.0
    report(5)


def test_acceptance_6_ring_traffic_bytes():
    for n in range(2, 17):
        ids = tuple(f"g{i}" for i in range(n))
        payload = 8e9
        runs = RingAllreduce(name="r", participants=ids,
                             payload_bytes=payload).runs()
        # brute-force oracle: sum each participant's sent bytes per phase
        sent = {i: 0.0 for i in ids}
        for phase, count in runs:
            for _ in range(count):
                for flow in phase:
                    sent[flow.src] += flow.bytes
        expected = 2 * (n - 1) * payload / n
        for i in ids:
            assert sent[i] == pytest.approx(expected, rel=1e-12)
    report(6)


def test_acceptance_7_gnn_verification():
    start = time.perf_counter()

    def flatten(model):
        return np.concatenate([w.ravel() for w in model.weights]
                              + [b.ravel() for b in model.biases]
                              + [model.head_w, [model.head_b]])

    def unflatten_into(model, vec):
        i = 0
        for w in model.weights:
            w[:] = vec[i:i + w.size].reshape(w.shape)
            i += w.size
        for b in model.biases:
            b[:] = vec[i:i + b.size]
            i += b.size
        model.head_w[:] = vec[i:i + model.head_w.size]
        i += model.head_w.size
        model.head_b = float(vec[i])

    # (a) gradients vs central finite differences on 50 random instances
    rng = np.random.default_rng(7)
    samples = gnn.generate_dataset(seed=77, count=10)
    model = gnn.init_model(seed=7)
    base = flatten(model)
    checked = 0
    for sample in samples:
        a_hat, h = gnn.graph_inputs(sample.graph, sample.level)
        target = float(np.log(sample.label_seconds))
        grads = gnn.gradients(model, a_hat, h, target)
        gflat = np.concatenate(
            [gw.ravel() for gw in grads.weights]
            + [gb.ravel() for gb in grads.biases]
            + [grads.head_w, [grads.head_b]])
        for idx in rng.choice(base.size, size=5, replace=False):
            eps = 1e-5
            probe = gnn.init_model(seed=7)
            hi = base.copy(); hi[idx] += eps
            unflatten_into(probe, hi)
            loss_hi = (gnn.forward(probe, a_hat, h) - target) ** 2
            lo = base.copy(); lo[idx] -= eps
            unflatten_into(probe, lo)
            loss_lo = (gnn.forward(probe, a_hat, h) - target) ** 2
            fd = (loss_hi - loss_lo) / (2 * eps)
            scale = max(abs(fd), abs(gflat[idx]), 1e-8)
            assert abs(fd - gflat[idx]) / scale < 1e-4
            checked += 1
    assert checked == 50

    # (b) permutation invariance of forward
    for seed in range(5):
        sample = gnn.generate_dataset(seed=100 + seed, count=1)[0]
        a_hat, h = gnn.graph_inputs(sample.graph, sample.level)
        reference = gnn.forward(model, a_hat, h)
        perm = np.random.default_rng(seed).permutation(len(h))
        permuted = gnn.forward(model, a_hat[np.ix_(perm, perm)], h[perm])
        assert permuted == pytest.approx(reference, abs=1e-12)

    # (c) deterministic training + MAPE gate on a 200-sample seeded dataset
    dataset = gnn.generate_dataset(seed=0, count=200)
    cfg = gnn.TrainConfig()
    model_a, _, val_idx = gnn.train(gnn.init_model(seed=cfg.seed), dataset,
                                    cfg)
    model_b, _, _ = gnn.train(gnn.init_model(seed=cfg.seed), dataset, cfg)
    assert gnn.save_model(model_a) == gnn.save_model(model_b)
    mape = gnn.validation_mape(model_a, dataset, val_idx)
    assert mape <= 0.25, mape
    assert f"{mape:.4f}" == "0.1608"
    assert time.perf_counter() - start < 120.0
    report(7)


def test_acceptance_8_topology_round_trip():
    for name in PRESET_NAMES:
        graph = load_preset(name)
        assert load_topology(export_topo(graph)) == graph
    rng = random.Random(8)
    for _ in range(200):
        graph = random_graph(rng)
        assert load_topology(export_topo(graph)) == graph
    report(8)


def test_acceptance_9_gdr_routing():
    graph_off = load_topology(GDR_FIXTURE)
    path_off = resolve_path(graph_off, "gpu", "nic")
    kinds_off = {graph_off.node(n).kind for n in path_off.nodes}
    assert NodeKind.HOST_MEMORY in kinds_off

    graph_on = load_topology(GDR_FIXTURE.replace("gdr=false", "gdr=true"))
    path_on = resolve_path(graph_on, "gpu", "nic")
    assert len(path_on.links) <= len(path_off.links) - 1
    nbytes = 1e9
    assert path_time(nbytes, path_on) < path_time(nbytes, path_off)
    report(9)

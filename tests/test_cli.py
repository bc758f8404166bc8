import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersmith import gnn, parallelism, topology
from clustersmith.cli import load_levels, main
from clustersmith.commcost import RoutingIndex
from clustersmith.errors import ValidationError

from conftest import dual_socket_text, run, write

PRESETS = resources.files("clustersmith.presets")


@pytest.fixture
def nvlink4_path(tmp_path):
    p = tmp_path / "nvlink4.topo"
    p.write_text(PRESETS.joinpath("nvlink4.topo").read_text())
    return str(p)


def test_topo_validate_preset(capsys, nvlink4_path):
    code, out, _ = run(capsys, "topo", "validate", nvlink4_path)
    assert code == 0
    assert "valid" in out


def test_topo_validate_broken(capsys, tmp_path):
    p = tmp_path / "broken.topo"
    p.write_text("node cpu kind=CpuSocket\nlink cpu gpu9 kind=Pcie bw=16\n")
    code, _, err = run(capsys, "topo", "validate", str(p))
    assert code == 2
    assert "gpu9" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["bw", "lat", "b"])
def test_non_finite_link_numbers_rejected(capsys, tmp_path, key, value):
    numbers = {"bw": "40", "lat": "1", "b": "0.5", key: value}
    p = tmp_path / "bad.topo"
    p.write_text("node a kind=Gpu\nnode b kind=Gpu\nlink a b kind=NvLink "
                 + " ".join(f"{k}={v}" for k, v in numbers.items()) + "\n")
    rule = "> 0" if key == "bw" else ">= 0"
    expected = (f"error: line 3, col 1: link a-b: {key} must be finite and "
                f"{rule}, got {value}\n")
    assert run(capsys, "topo", "validate", str(p)) == (2, "", expected)
    levels = tmp_path / "levels.txt"
    levels.write_text("level r strategy=ring_allreduce participants=a,b payload=1e9\n")
    assert run(capsys, "plan", "--topo", str(p),
               "--levels", str(levels)) == (2, "", expected)


class Stream(io.StringIO):
    def __init__(self, tty):
        super().__init__()
        self.tty = tty

    def isatty(self):
        return self.tty


@pytest.mark.parametrize("out_tty,err_tty", [(True, False), (False, True)])
def test_colour_follows_the_stream_printed_to(monkeypatch, tmp_path,
                                              nvlink4_path, out_tty, err_tty):
    monkeypatch.delenv("CLUSTERSMITH_NO_COLOR")
    broken = tmp_path / "broken.topo"
    broken.write_text("node a kind=Gpu\nnode a kind=Gpu\n")
    for path, to, code, message in (
            (nvlink4_path, "stdout", "32", "valid: 4 nodes, 6 links"),
            (str(broken), "stderr", "31",
             "error: line 2, col 6: duplicate node id 'a'")):
        streams = {"stdout": Stream(out_tty), "stderr": Stream(err_tty)}
        for name, stream in streams.items():
            monkeypatch.setattr(sys, name, stream)
        main(["topo", "validate", path])
        printed = {name: stream.getvalue() for name, stream in streams.items()}
        assert printed.pop(to) == (f"\x1b[{code}m{message}\x1b[0m\n"
                                   if streams[to].tty else message + "\n")
        assert list(printed.values()) == [""]  # nothing on the other stream


def test_topo_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "topo", "validate", "/nonexistent.topo")
    assert code == 1


def test_topo_export_dot(capsys, nvlink4_path):
    code, out, _ = run(capsys, "topo", "export", nvlink4_path,
                       "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 6


LEVELS = """
level r4 strategy=ring_allreduce participants=gpu0,gpu1,gpu2,gpu3 payload=10e9
level r2 strategy=ring_allreduce participants=gpu0,gpu1 payload=10e9
"""


def test_plan_two_levels(capsys, tmp_path, nvlink4_path):
    levels = tmp_path / "levels.txt"
    levels.write_text(LEVELS)
    matrix = tmp_path / "matrix.csv"
    code, out, _ = run(capsys, "plan", "--topo", nvlink4_path,
                       "--levels", str(levels), "--matrix", str(matrix))
    assert code == 0
    assert "selected r2" in out
    rows = list(csv.reader(matrix.read_text().splitlines()))
    assert len(rows) == 3  # header + 2 levels
    assert rows[0][0] == "level"
    assert float(rows[2][-1]) == pytest.approx(0.25)


def test_plan_empty_levels(capsys, tmp_path, nvlink4_path):
    levels = tmp_path / "levels.txt"
    levels.write_text("# nothing here\n")
    code, _, err = run(capsys, "plan", "--topo", nvlink4_path,
                       "--levels", str(levels))
    assert code == 2
    assert "no levels" in err


def test_plan_single_level(capsys, tmp_path, nvlink4_path):
    levels = tmp_path / "levels.txt"
    levels.write_text("level only strategy=ring_allreduce "
                      "participants=gpu0,gpu1 payload=1e9\n")
    code, out, _ = run(capsys, "plan", "--topo", nvlink4_path,
                       "--levels", str(levels))
    assert code == 0
    assert "selected only" in out


DUAL_SOCKET_LEVELS = """
level r4 strategy=ring_allreduce participants=gpu0,gpu1,gpu2,gpu3 payload=10e9
level r2 strategy=ring_allreduce participants=gpu0,gpu1 payload=10e9
level ps strategy=parameter_server participants=gpu0,gpu1,gpu2,gpu3 server=nic0 payload=1e9
level ps_cpu strategy=parameter_server participants=gpu0,gpu1 server=cpu1 payload=1e9
level pipe strategy=pipeline_p2p participants=gpu0,gpu1,gpu2 payload=0 microbatches=4 activation=1e8
"""


def test_plan_evaluates_each_level_and_route_once(capsys, tmp_path, monkeypatch):
    levels = tmp_path / "levels.txt"
    levels.write_text(DUAL_SOCKET_LEVELS)
    topo = tmp_path / "dual.topo"
    topo.write_text(PRESETS.joinpath("dual-socket-pcie-switch.topo").read_text())
    level_calls = Counter()
    indexes = []
    routes = Counter()
    comm_time = parallelism.comm_time
    init, route = RoutingIndex.__init__, RoutingIndex.route

    def counting_comm_time(level, g):
        level_calls[level.name] += 1
        return comm_time(level, g)

    def counting_init(self, g):
        indexes.append(self)
        init(self, g)

    def counting_route(self, src, dst):
        routes[(src, dst)] += 1
        return route(self, src, dst)

    monkeypatch.setattr(parallelism, "comm_time", counting_comm_time)
    monkeypatch.setattr(RoutingIndex, "__init__", counting_init)
    monkeypatch.setattr(RoutingIndex, "route", counting_route)
    code, out, _ = run(capsys, "plan", "--topo", str(topo),
                       "--levels", str(levels), "--json", str(tmp_path / "m.json"))
    assert code == 0 and out.startswith("selected ")
    assert level_calls == {name: 1 for name in ("r4", "r2", "ps", "ps_cpu", "pipe")}
    assert len(indexes) == 1
    # one route per transfer of each distinct phase; the GDR-off NIC
    # server's transfers take the host-memory detour
    planned, transfers = routes.copy(), Counter()
    g = topology.load_topology(topo.read_text())
    for level in load_levels(DUAL_SOCKET_LEVELS, g).levels:
        for phase, _ in level.runs():
            transfers.update((x.src, x.dst) for x in phase)
    assert planned == transfers
    assert ("gpu0", "nic0") in routes


# One level of each strategy on the dual-socket preset: the ring shares
# switch links, transfers to and from the NIC detour through host memory and
# UPI, and the aggregation's 64-packet window is wider than its contended
# path, so the path prices it.
ALL_STRATEGIES_LEVELS = """
level ring strategy=ring_allreduce participants=gpu0,gpu1,gpu2,gpu3 payload=1e9
level ps strategy=parameter_server participants=gpu0,gpu1 server=nic0 payload=1e8
level ina strategy=in_network_aggregation participants=gpu0,gpu1,gpu2 server=net0 payload=1e8 window=64
level pipe strategy=pipeline_p2p participants=gpu0,gpu1,nic0 payload=0 microbatches=3 activation=1e8
"""
# `plan --json` output on ALL_STRATEGIES_LEVELS, pinned bit for bit.
ALL_STRATEGIES_STDOUT = "selected pipe (pipeline_p2p, n=3): 0.0187524 s total\n"
ALL_STRATEGIES_JSON = """\
{
  "levels": [
    {
      "name": "ring",
      "strategy": "ring_allreduce",
      "n": 4,
      "payload_bytes": 1000000000.0
    },
    {
      "name": "ps",
      "strategy": "parameter_server",
      "n": 2,
      "payload_bytes": 100000000.0
    },
    {
      "name": "ina",
      "strategy": "in_network_aggregation",
      "n": 3,
      "payload_bytes": 100000000.0
    },
    {
      "name": "pipe",
      "strategy": "pipeline_p2p",
      "n": 3,
      "payload_bytes": 0.0
    }
  ],
  "phase_count": 6,
  "entries": [
    [
      0.015625,
      0.015625,
      0.015625,
      0.015625,
      0.015625,
      0.015625
    ],
    [
      0.012500800000000001,
      0.012500800000000001,
      0.0,
      0.0,
      0.0,
      0.0
    ],
    [
      0.0240016,
      0.0240016,
      0.0,
      0.0,
      0.0,
      0.0
    ],
    [
      0.0062508,
      0.0062508,
      0.0062508,
      0.0,
      0.0,
      0.0
    ]
  ],
  "row_totals": [
    0.09375,
    0.025001600000000002,
    0.0480032,
    0.0187524
  ]
}
"""


def test_plan_output_of_every_strategy_is_pinned(capsys, tmp_path):
    levels = tmp_path / "levels.txt"
    levels.write_text(ALL_STRATEGIES_LEVELS)
    topo = tmp_path / "dual.topo"
    topo.write_text(PRESETS.joinpath("dual-socket-pcie-switch.topo").read_text())
    out_json = tmp_path / "m.json"
    assert run(capsys, "plan", "--topo", str(topo), "--levels", str(levels),
               "--json", str(out_json)) == (0, ALL_STRATEGIES_STDOUT, "")
    assert out_json.read_text() == ALL_STRATEGIES_JSON


REWRITE_LEVELS = """
level ring4 strategy=ring_allreduce participants=gpu0,gpu1,gpu2,gpu3 payload=1e9
level ps strategy=parameter_server participants=gpu0,gpu1,gpu2,gpu3 server=nic0 payload=1e9
level ina strategy=in_network_aggregation participants=gpu0,gpu1,gpu2,gpu3 server=net0 payload=1e9
"""


# Only `ps` moves, and only in its latency digits, until GDR, socket-direct
# and the second switch together open a wider route to the NIC.
@pytest.mark.parametrize("rewrites,ps", [
    ((), "0.5000016"),
    (("gdr",), "0.5000012"),
    (("socket_direct",), "0.5000004"),
    (("gdr", "socket_direct"), "0.5"),
    (("nic_split",), "0.5000016"),
    (("second_switch",), "0.5000016"),
    (("gdr", "socket_direct", "second_switch"), "0.375"),
])
def test_hardware_rewrites_are_topology_edits(capsys, tmp_path, rewrites, ps):
    topo, levels = tmp_path / "edited.topo", tmp_path / "levels.txt"
    topo.write_text(dual_socket_text(*rewrites))
    levels.write_text(REWRITE_LEVELS)
    out_json = tmp_path / "m.json"
    code, _, _ = run(capsys, "plan", "--topo", str(topo), "--levels",
                     str(levels), "--json", str(out_json))
    assert code == 0
    totals = json.loads(out_json.read_text())["row_totals"]
    assert [repr(t) for t in totals] == ["0.09375", ps, "4.545454545454545"]


def test_plan_subnormal_rtt_applies_no_window_bound(capsys, tmp_path):
    # rtt=1e-320 us is 0.0 s as a float, as if the window were unbounded
    topo = tmp_path / "dual.topo"
    topo.write_text(PRESETS.joinpath("dual-socket-pcie-switch.topo").read_text())
    levels = tmp_path / "levels.txt"
    results = []
    for rtt in ("1e-320", "1e-300"):
        levels.write_text("level i strategy=in_network_aggregation "
                          "participants=gpu0,gpu1 server=net0 payload=1e9 "
                          f"rtt={rtt} window=1 pkt=1\n")
        results.append(run(capsys, "plan", "--topo", str(topo),
                           "--levels", str(levels)))
    assert results[0] == results[1] == (
        0, "selected i (in_network_aggregation, n=2): 0.3200032 s total\n", "")


@pytest.mark.parametrize("topo, payload, message", [
    # finite links whose phase time overflows
    ("node gpu0 kind=Gpu\nnode gpu1 kind=Gpu\n"
     "link gpu0 gpu1 kind=NvLink bw=1e-300\n", "1e308",
     "error: line 1, col 1: level 'r': time is not a finite number of "
     "seconds\n"),
    # finite latencies whose sum along the route overflows
    ("node gpu0 kind=Gpu\nnode sw kind=PcieSwitch\nnode gpu1 kind=Gpu\n"
     "link gpu0 sw kind=Pcie bw=16 lat=1e308\n"
     "link sw gpu1 kind=Pcie bw=16 lat=1e308\n", "1e9",
     "error: line 1, col 33: level 'r': route from 'gpu0' to 'gpu1': latency "
     "or b is not a finite number of microseconds\n"),
])
def test_plan_time_that_is_not_finite_exits_2(capsys, tmp_path, topo, payload,
                                              message):
    (tmp_path / "t.topo").write_text(topo)
    (tmp_path / "levels.txt").write_text(
        "level r strategy=ring_allreduce participants=gpu0,gpu1 "
        f"payload={payload}\n")
    out_json = tmp_path / "m.json"
    assert run(capsys, "plan", "--topo", str(tmp_path / "t.topo"),
               "--levels", str(tmp_path / "levels.txt"),
               "--json", str(out_json)) == (2, "", message)
    assert not out_json.exists()


def test_plan_memory_does_not_grow_with_microbatches(capsys, tmp_path,
                                                     nvlink4_path, nvlink4):
    levels = tmp_path / "levels.txt"

    def plan(microbatches, *outputs):
        levels.write_text("level pp strategy=pipeline_p2p participants=gpu0,gpu1 "
                          f"payload=0 activation=1e8 microbatches={microbatches}\n")
        tracemalloc.start()
        try:
            result = run(capsys, "plan", "--topo", nvlink4_path,
                         "--levels", str(levels), *outputs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plan(1)  # first use: lazy imports and caches
    _, base_peak = plan(1)
    (t, _), = load_levels(levels.read_text(), nvlink4).runs[0]
    # 10**6 first: a per-phase list would cost megabytes there, not gigabytes
    for microbatches in (10 ** 6, 10 ** 9):
        result, peak = plan(microbatches)
        assert peak - base_peak < 64 * 1024
        assert result == (0, "selected pp (pipeline_p2p, n=2): "
                          f"{float(microbatches) * t!r} s total\n", "")
    # the matrix files are written a chunk at a time, never held whole
    matrix, as_json = tmp_path / "matrix.csv", tmp_path / "matrix.json"
    outputs = ("--matrix", str(matrix), "--json", str(as_json))
    plan(1, *outputs)
    _, base_peak = plan(1, *outputs)
    result, peak = plan(10 ** 5, *outputs)
    assert peak - base_peak < 64 * 1024
    assert result[0] == 0
    assert matrix.read_text().count(f",{t!r}") == 10 ** 5
    assert json.loads(as_json.read_text())["entries"] == [[t] * 10 ** 5]


FLOWS = "flow f0 bytes=10e9\nflow f1 bytes=10e9\n"
BIG = "1" + "0" * 400  # an integer too large for a float


def test_stagger_two_flows(capsys, tmp_path):
    flows = tmp_path / "flows.txt"
    flows.write_text(FLOWS)
    code, out, _ = run(capsys, "stagger", "--flows", str(flows),
                       "--upstream", "16")
    assert code == 0
    assert "naive     makespan=1.25 mean=1.25 peak=2" in out
    assert "staggered makespan=1.25 mean=0.9375 peak=1" in out


def test_stagger_single_flow(capsys, tmp_path):
    flows = tmp_path / "flows.txt"
    flows.write_text("flow solo bytes=8e9\n")
    code, out, _ = run(capsys, "stagger", "--flows", str(flows),
                       "--upstream", "16")
    assert code == 0
    assert "offset solo 0.0" in out


def test_stagger_negative_bytes(capsys, tmp_path):
    flows = tmp_path / "flows.txt"
    flows.write_text("flow bad bytes=-5\n")
    code, _, err = run(capsys, "stagger", "--flows", str(flows),
                       "--upstream", "16")
    assert code == 2


@pytest.mark.parametrize("line", [
    "flow x bytes=1e9 release=nan", "flow x bytes=nan", "flow x bytes=inf",
    "flow x bytes=0", "flow x bytes=1e9 release=-1",
    "flow x bytes=1e9 offset=-inf", "flow f1 bytes=1e9",
])
def test_stagger_bad_flow_exit_2(capsys, tmp_path, line):
    flows = tmp_path / "flows.txt"
    flows.write_text(FLOWS + line + "\n")
    code, out, err = run(capsys, "stagger", "--flows", str(flows),
                         "--upstream", "16")
    assert code == 2 and out == ""
    assert err.startswith("error: line 3, col 1: ")
    assert "flow 'x'" in err or "repeated flow id 'f1'" in err


@pytest.mark.parametrize("option,value", [
    ("--upstream", "nan"), ("--upstream", "inf"), ("--upstream", "0"),
    ("--upstream", "-16"), ("--cap", "nan"), ("--cap", "inf"), ("--cap", "0"),
])
def test_stagger_bad_bandwidth_exit_2(capsys, tmp_path, option, value):
    flows = tmp_path / "flows.txt"
    flows.write_text(FLOWS)
    argv = {"--upstream": "16", option: value}
    code, out, err = run(capsys, "stagger", "--flows", str(flows),
                         *[a for kv in argv.items() for a in kv])
    field = "upstream_bandwidth" if option == "--upstream" else "per_flow_cap"
    assert code == 2 and out == ""
    assert err == f"error: {field} must be finite and > 0, got {float(value)!r}\n"


@pytest.mark.parametrize("flows,upstream", [
    ("flow a bytes=1e308\n", "1e-300"),
    ("flow a bytes=1e308\nflow b bytes=1e308\n", "1e-300"),
    # each alone finishes, but not both at once
    ("flow a bytes=1e308\nflow b bytes=1e308\n", "1e-9"),
    # half the upstream rounds to 0.0
    ("flow a bytes=1\nflow b bytes=1\n", "5e-324"),
])
def test_stagger_flow_time_past_a_float_exit_2(capsys, tmp_path, flows, upstream):
    path = tmp_path / "flows.txt"
    path.write_text(flows)
    code, out, err = run(capsys, "stagger", "--flows", str(path),
                         "--upstream", upstream)
    assert code == 2 and out == ""
    assert err == (f"error: flow 'a': time on the switch (upstream "
                   f"{float(upstream)!r} GB/s, per-flow cap {float(upstream)!r} "
                   "GB/s) is not a finite number of seconds\n")


def test_stagger_mean_of_huge_finite_times_is_finite(capsys, tmp_path):
    path = tmp_path / "flows.txt"
    path.write_text("flow a bytes=8e307\nflow b bytes=8e307\n")
    code, out, err = run(capsys, "stagger", "--flows", str(path),
                         "--upstream", "1e-9")
    assert code == 0 and err == ""
    assert out.splitlines()[-2:] == [
        "naive     makespan=1.6e+308 mean=1.6e+308 peak=2",
        "staggered makespan=1.6e+308 mean=1.2e+308 peak=1"]


def test_stagger_start_past_a_float_exit_2(capsys, tmp_path):
    path = tmp_path / "flows.txt"
    path.write_text("flow a bytes=1e9 release=1e308 offset=1e308\n")
    code, out, err = run(capsys, "stagger", "--flows", str(path),
                         "--upstream", "16")
    assert code == 2 and out == ""
    assert err == ("error: line 1, col 1: flow 'a': start (release + offset) "
                   "must be finite and >= 0, got inf\n")


def test_stagger_dropped_options_are_gone(capsys, tmp_path):
    flows = tmp_path / "flows.txt"
    flows.write_text(FLOWS)
    for option in ("--objective", "--cpu-event-cost"):
        with pytest.raises(SystemExit) as exc:
            main(["stagger", "--flows", str(flows), "--upstream", "16",
                  option, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_stagger_event_log(capsys, tmp_path):
    flows = tmp_path / "flows.txt"
    flows.write_text(FLOWS)
    events = tmp_path / "events.csv"
    code, _, _ = run(capsys, "stagger", "--flows", str(flows),
                     "--upstream", "16", "--events", str(events))
    assert code == 0
    header = events.read_text().splitlines()[0]
    assert header == "time_s,event,flow_id,active_flows,per_flow_rate_GBps"


def test_price_coverage_flags(capsys):
    code, out, _ = run(capsys, "price", "coverage",
                       "--funding", "68200", "--monthly", "3751.82")
    assert code == 0
    assert out.strip() == "18.18"


def test_price_coverage_tables(capsys):
    code, out, _ = run(capsys, "price", "coverage", "--tables")
    assert code == 0
    assert "36 cells within 0.01" in out
    assert out.count("computed") == 36


def test_price_breakeven(capsys):
    code, out, _ = run(capsys, "price", "breakeven",
                       "--capex", "0", "--monthly", "100")
    assert code == 0 and out.strip() == "1"


def test_price_breakeven_never(capsys):
    code, _, err = run(capsys, "price", "breakeven", "--capex", "1000",
                       "--opex", "100", "--monthly", "50")
    assert code == 2
    assert "error" in err


def test_gnn_train_deterministic_and_predict(capsys, tmp_path, nvlink4_path):
    models = []
    for name in ("m1.txt", "m2.txt"):
        out_path = tmp_path / name
        code, _, _ = run(capsys, "gnn", "train", "--seed", "7",
                         "--count", "30", "--epochs", "30",
                         "--out", str(out_path),
                         "--loss-csv", str(tmp_path / ("loss_" + name)))
        assert code == 0
        models.append(out_path.read_bytes())
    assert models[0] == models[1]

    level = tmp_path / "level.txt"
    level.write_text("level r2 strategy=ring_allreduce "
                     "participants=gpu0,gpu1 payload=1e9\n")
    code, out, _ = run(capsys, "gnn", "predict",
                       "--model", str(tmp_path / "m1.txt"),
                       "--topo", nvlink4_path, "--level", str(level),
                       "--compare")
    assert code == 0
    assert "predicted" in out and "relative error" in out


def test_gnn_train_mape_is_the_mean_gnn_predict_error(capsys, tmp_path):
    model = tmp_path / "model.txt"
    code, out, _ = run(capsys, "gnn", "train", "--seed", "3", "--count", "20",
                       "--epochs", "20", "--out", str(model))
    assert code == 0
    samples = gnn.generate_dataset(seed=3, count=20)
    _, _, val_idx = gnn.train(gnn.init_model(seed=3), samples,
                              gnn.TrainConfig(seed=3, epochs=0))
    errs = []
    for i in val_idx:
        s = samples[i]
        topo, level = tmp_path / f"{i}.topo", tmp_path / f"{i}.level"
        topo.write_text(topology.export_topo(s.graph))
        level.write_text(f"level ring strategy=ring_allreduce participants="
                         f"{','.join(s.level.participants)} "
                         f"payload={s.level.payload_bytes!r}\n")
        code, predicted, _ = run(capsys, "gnn", "predict", "--model", str(model),
                                 "--topo", str(topo), "--level", str(level))
        assert code == 0
        seconds = float(predicted.split()[1])
        errs.append(abs(seconds - s.label_seconds) / s.label_seconds)
    mape = gnn.validation_mape(gnn.load_model(model.read_text()), samples,
                               val_idx)
    assert mape == np.mean(errs)
    assert out == f"trained on 20 samples; validation MAPE {mape:.4f}\n"


R2 = "level r2 strategy=ring_allreduce participants=gpu0,gpu1 payload=1e9\n"


@pytest.mark.parametrize("command,text,message", [
    ("plan", "# nothing here\n", "line 1, col 1: no levels in levels file"),
    ("plan", "", "line 1, col 1: no levels in levels file"),
    ("stagger", "\n# no flows\n", "line 1, col 1: no flows in flows file"),
    ("stagger", "flow f0 release=0.5\n", "line 1, col 1: flow needs bytes="),
    ("topo", "node a kind=Gpu\nnode b kind=Gpu\nlink a b\n",
     "line 3, col 1: link needs <idA> <idB> kind= bw="),
    ("predict", "# none\n",
     "line 1, col 1: gnn predict expects exactly one level"),
    ("predict", R2 + "# another\n  " + R2.replace("r2", "r3"),
     "line 3, col 3: gnn predict expects exactly one level"),
])
def test_file_level_errors_are_placed(capsys, tmp_path, nvlink4_path,
                                      command, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    model = tmp_path / "model.txt"
    model.write_text(gnn.save_model(gnn.init_model(seed=0)))
    argv = {"plan": ["plan", "--topo", nvlink4_path, "--levels", str(path)],
            "stagger": ["stagger", "--flows", str(path), "--upstream", "16"],
            "topo": ["topo", "validate", str(path)],
            "predict": ["gnn", "predict", "--model", str(model),
                        "--topo", nvlink4_path, "--level", str(path)]}
    code, out, err = run(capsys, *argv[command])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_gnn_predict_zero_weight_model(capsys, tmp_path, nvlink4_path):
    out_path = tmp_path / "model.txt"
    code, _, _ = run(capsys, "gnn", "train", "--seed", "1", "--count", "5",
                     "--epochs", "1", "--out", str(out_path))
    assert code == 0
    # zero out every weight: prediction in normalized space becomes 0
    from clustersmith import gnn
    model = gnn.load_model(out_path.read_text())
    for w in model.weights:
        w[:] = 0
    model.head_w[:] = 0
    model.head_b = 0.0
    model.label_mu = 0.0
    model.label_sigma = 1.0
    out_path.write_text(gnn.save_model(model))
    level = tmp_path / "level.txt"
    level.write_text("level r2 strategy=ring_allreduce "
                     "participants=gpu0,gpu1 payload=1e9\n")
    code, out, _ = run(capsys, "gnn", "predict", "--model", str(out_path),
                       "--topo", nvlink4_path, "--level", str(level))
    assert code == 0
    # exp(0) with identity scaling: the raw network output is zero
    assert "predicted 1.0 s" in out


def test_gnn_predict_bad_model_file(capsys, tmp_path, nvlink4_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    level = tmp_path / "level.txt"
    level.write_text("level r2 strategy=ring_allreduce "
                     "participants=gpu0,gpu1 payload=1e9\n")
    code, _, _ = run(capsys, "gnn", "predict", "--model", str(bad),
                     "--topo", nvlink4_path, "--level", str(level))
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (["--learning-rate", "-1"], "learning_rate must be finite and >= 0"),
    (["--learning-rate", "nan"], "learning_rate must be finite and >= 0"),
    (["--epochs", "-3"], "epochs must be finite and >= 0, got -3"),
    (["--learning-rate", "1e6", "--count", "20", "--epochs", "50"],
     "training diverged"),
    (["--count", "1"], "validation needs at least one held-out sample"),
    (["--count", "2"], "validation needs at least one held-out sample"),
])
def test_gnn_train_bad_settings_exit_2(capsys, tmp_path, argv, message):
    out_path = tmp_path / "model.txt"
    code, out, err = run(capsys, "gnn", "train", "--epochs", "5", *argv,
                         "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err and "Warning" not in err
    assert not out_path.exists()


def test_gnn_train_negative_seed_exits_2_before_any_work(capsys, tmp_path,
                                                         monkeypatch):
    def no_dataset(**kwargs):
        raise AssertionError("the dataset was generated")
    monkeypatch.setattr(gnn, "generate_dataset", no_dataset)
    out_path = tmp_path / "model.txt"
    code, out, err = run(capsys, "gnn", "train", "--seed", "-1",
                         "--out", str(out_path))
    assert (code, out, err) == (
        2, "", "error: seed must be finite and >= 0, got -1\n")
    assert not out_path.exists()
    with pytest.raises(ValidationError,
                       match="^seed must be finite and >= 0, got -1$"):
        gnn.init_model(seed=-1)
    gnn.TrainConfig(seed=2**1100)  # a seed of any size >= 0 is fine


def test_gnn_train_too_few_samples_exits_2_before_any_work(capsys, tmp_path,
                                                          monkeypatch):
    def no_dataset(**kwargs):
        raise AssertionError("the dataset was generated")
    monkeypatch.setattr(gnn, "generate_dataset", no_dataset)
    out_path = tmp_path / "model.txt"
    code, out, err = run(capsys, "gnn", "train", "--count", "2", "--epochs",
                         "1000000000", "--out", str(out_path))
    assert (code, out, err) == (
        2, "", "error: validation needs at least one held-out sample\n")
    assert not out_path.exists()


def test_gnn_train_zero_epochs_writes_the_initial_model(capsys, tmp_path):
    out_path, loss = tmp_path / "model.txt", tmp_path / "loss.csv"
    code, out, err = run(capsys, "gnn", "train", "--count", "20", "--epochs", "0",
                         "--out", str(out_path), "--loss-csv", str(loss))
    assert code == 0 and err == ""
    assert out.startswith("trained on 20 samples; validation MAPE ")
    assert loss.read_text() == "epoch,train_mse\n"
    # the label scaling is fitted; every weight is still init_model's
    initial = gnn.save_model(gnn.init_model(seed=0)).splitlines()
    saved = out_path.read_text().splitlines()
    assert saved[:2] == initial[:2] and saved[4:] == initial[4:]


@pytest.mark.parametrize("edit,message", [
    (lambda ls: ls[:2], "missing field 'label_mu'"),
    (lambda ls: ls[:4] + ls[5:], "missing field 'W0'"),
    (lambda ls: ls[:5] + ["b0 0.5"] + ls[6:],
     "line 6, col 1: b0 has 1 values, expected 16"),
    (lambda ls: ls[:2] + ["label_mu abc"] + ls[3:],
     "line 3, col 10: label_mu: not a number: 'abc'"),
    (lambda ls: ls[:9] + ["head_b nan"], "line 10, col 8: head_b: 'nan'"),
    (lambda ls: ["# v2", "clustersmith-gnn v2"] + ls[1:],
     "line 2, col 1: unrecognized model format header"),
    (lambda ls: [], "line 1, col 1: unrecognized model format header"),
    # well formed, W0 13 x 16, but not for the 14 features a graph gives
    (lambda ls: [ls[0], "dims 13 16 16", *ls[2:4], ls[4].rsplit(" ", 16)[0],
                 *ls[5:]],
     "error: line 2, col 6: dims: input size 13 is not the feature dimension 14\n"),
])
def test_gnn_predict_malformed_model_exit_2(capsys, tmp_path, nvlink4_path,
                                            edit, message):
    lines = gnn.save_model(gnn.init_model(seed=0)).splitlines()
    model = tmp_path / "model.txt"
    model.write_text("\n".join(edit(lines)) + "\n")
    level = tmp_path / "level.txt"
    level.write_text("level r2 strategy=ring_allreduce "
                     "participants=gpu0,gpu1 payload=1e9\n")
    code, out, err = run(capsys, "gnn", "predict", "--model", str(model),
                         "--topo", nvlink4_path, "--level", str(level))
    assert code == 2 and out == ""
    assert message in err


@pytest.fixture(scope="module")
def trained_model_lines():
    """The lines of the model that `gnn train --count 20 --epochs 50` writes."""
    model, _, _ = gnn.train(gnn.init_model(seed=0),
                            gnn.generate_dataset(seed=0, count=20),
                            gnn.TrainConfig(epochs=50))
    return gnn.save_model(model).splitlines()


@pytest.mark.parametrize("field,value,got", [
    ("label_sigma", "1e300", "inf"), ("label_mu", "1e308", "inf"),
    ("label_mu", "-1e308", "0.0"), ("W0", "1e200", "0.0"),
])
def test_gnn_predict_out_of_range_prediction_exit_2(
        capsys, tmp_path, nvlink4_path, trained_model_lines, field, value, got):
    # every value of `field` set to `value`: the model passes load_model,
    # but exp takes its prediction out of the float range
    lines = [" ".join([field] + [value] * (len(line.split()) - 1))
             if line.split()[0] == field else line
             for line in trained_model_lines]
    model = tmp_path / "model.txt"
    model.write_text("\n".join(lines) + "\n")
    gnn.load_model(model.read_text())
    level = tmp_path / "level.txt"
    level.write_text(R2)
    code, out, err = run(capsys, "gnn", "predict", "--compare", "--model",
                         str(model), "--topo", nvlink4_path, "--level", str(level))
    assert (code, out, err) == (2, "", f"error: model {str(model)!r}: predicted "
                                f"seconds must be finite and > 0, got {got}\n")


# the keys each strategy reads besides strategy= and participants=
READS = {"ring_allreduce": ("payload",),
         "parameter_server": ("payload", "server"),
         "in_network_aggregation": ("payload", "server", "window", "pkt", "rtt"),
         "pipeline_p2p": ("payload", "microbatches", "activation")}
# a valid level of each strategy on the dual-socket preset, and a valid
# value of each level key
LEVEL_OF = {"ring_allreduce": "participants=gpu0,gpu1 payload=1e9",
            "parameter_server": "participants=gpu0,gpu1 payload=1e9 server=nic0",
            "in_network_aggregation":
                "participants=gpu0,gpu1 payload=1e9 server=net0",
            "pipeline_p2p": "participants=gpu0,gpu1 payload=1e9"}
VALUES = {"payload": "1e9", "server": "nic0", "window": "8", "pkt": "1100",
          "rtt": "10", "microbatches": "4", "activation": "1e8"}


@pytest.mark.parametrize("fields,message", [
    ("participants=gpu0,gpu1 payload=nan", "payload_bytes must be finite"),
    ("participants=gpu0,gpu1 payload=inf", "payload_bytes must be finite"),
    ("participants=gpu0,gpu1 payload=-5", "payload_bytes must be finite"),
    ("participants=gpu0,gpu1 payload=1e9 activation=nan",
     "activation_bytes must be finite and >= 0"),
    ("participants=gpu0,gpu1 payload=1e9 rtt=0", "rtt_us must be finite and > 0"),
    ("participants=gpu0,gpu1 payload=1e9 rtt=nan", "rtt_us must be finite"),
    ("participants=gpu0,gpu1 payload=1e9 window=-4", "window_packets must be"),
    ("participants=gpu0,gpu1 payload=1e9 pkt=0", "packet_bytes must be"),
    ("participants=gpu0,gpu1 payload=1e9 microbatches=0", "microbatches must be"),
    ("participants=gpu0,gpu0 payload=1e9", "repeated participants ['gpu0']"),
    ("participants=gpu0,gpu1,gpu0,gpu1 payload=1e9",
     "repeated participants ['gpu0', 'gpu1']"),
    *(pytest.param(f"participants=gpu0,gpu1 payload=1e9 {key}={BIG}",
                   f"{field} must be finite and > 0, got an integer too "
                   "large for a float", id=f"{key}-too-large-for-a-float")
      for key, field in (("window", "window_packets"), ("pkt", "packet_bytes"),
                         ("microbatches", "microbatches"))),
])
def test_bad_level_exit_2(capsys, tmp_path, nvlink4_path, fields, message):
    # on the first strategy that reads every key of the case: its number
    # rule breaks before any server is looked for
    keys = {token.partition("=")[0] for token in fields.split()} - {"participants"}
    strategy = next(s for s, reads in READS.items() if keys <= set(reads))
    line = f"level r strategy={strategy} {fields}\n"
    levels = tmp_path / "levels.txt"
    levels.write_text(LEVELS.strip() + "\n" + line)
    code, out, err = run(capsys, "plan", "--topo", nvlink4_path,
                         "--levels", str(levels))
    assert code == 2 and out == ""
    assert err.startswith("error: line 3, col 1: ") and message in err
    model = tmp_path / "model.txt"
    model.write_text(gnn.save_model(gnn.init_model(seed=0)))
    level = tmp_path / "level.txt"
    level.write_text(line)
    code, out, err = run(capsys, "gnn", "predict", "--model", str(model),
                         "--topo", nvlink4_path, "--level", str(level))
    assert code == 2 and message in err



@pytest.mark.parametrize("argv,message", [
    (["coverage", "--funding", "1000", "--monthly", "0"],
     "monthly rent must be finite and > 0"),
    (["coverage", "--funding", "-1", "--monthly", "10"],
     "funding amount must be finite and >= 0"),
    (["coverage", "--funding", "inf", "--monthly", "10"],
     "funding amount must be finite"),
    (["coverage", "--funding", "nan", "--monthly", "10"],
     "funding amount must be finite"),
    (["coverage", "--funding", "10", "--monthly", "nan"],
     "monthly rent must be finite"),
    (["coverage", "--funding", "1e30", "--monthly", "1"],
     "coverage ratio 1.000e+30 is too large"),
    (["breakeven", "--monthly", "nan", "--capex", "5"],
     "monthly rent must be finite"),
    (["breakeven", "--monthly", "10", "--capex", "-1"],
     "capex must be finite and >= 0"),
    (["breakeven", "--monthly", "10", "--capex", "inf"], "capex must be finite"),
    (["breakeven", "--monthly", "10", "--opex", "nan"],
     "monthly opex must be finite"),
    (["breakeven", "--monthly", "1e-300", "--capex", "1e308"],
     "break-even month count overflows"),
    (["coverage", "--funding", "5"],
     "coverage needs --funding and --monthly (or --tables)"),
    (["coverage", "--tables", "--funding", "5", "--monthly", "-1"],
     "coverage --tables takes no --funding"),
    (["coverage", "--monthly", "100", "--tables"],
     "coverage --tables takes no --monthly"),
])
def test_price_bad_numbers_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "price", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data(), action=st.sampled_from(["coverage", "breakeven"]))
def test_price_arguments_fuzzed_exit_0_or_2(data, action):
    values = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308",
                              "1e-300", BIG, "12.5"])
    if action == "coverage":  # either number may be left out, for --tables
        values, options = st.none() | values, ("--funding", "--monthly")
    else:
        options = ("--capex", "--opex", "--monthly")
    argv = ["price", action] + [f"{o}={v}" for o in options
                                if (v := data.draw(values, label=o)) is not None]
    tables = action == "coverage" and data.draw(st.booleans(), label="--tables")
    if tables:
        argv.append("--tables")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
    if tables:  # --tables alone checks the bundled cells, and takes no number
        assert code == (0 if len(argv) == 3 else 2), argv


@pytest.mark.parametrize("fields,message", [
    ("strategy=parameter_server participants=gpu0,nic0 server=nic0",
     "server 'nic0' is also a participant"),
    ("strategy=in_network_aggregation participants=gpu0,gpu1 server=gpu1",
     "server 'gpu1' is also a participant"),
])
def test_bad_server_exit_2(capsys, tmp_path, fields, message):
    topo = tmp_path / "dual.topo"
    topo.write_text(PRESETS.joinpath("dual-socket-pcie-switch.topo").read_text())
    levels = tmp_path / "levels.txt"
    levels.write_text(DUAL_SOCKET_LEVELS.strip() + f"\nlevel x {fields} "
                      "payload=1e6\n")
    code, out, err = run(capsys, "plan", "--topo", str(topo),
                         "--levels", str(levels))
    assert code == 2 and out == ""
    assert err == f"error: line 6, col 1: level 'x': {message}\n"


@pytest.mark.parametrize("key", VALUES)
@pytest.mark.parametrize("strategy", READS)
def test_a_level_takes_only_the_keys_its_strategy_reads(capsys, tmp_path,
                                                        strategy, key):
    fields = dict(token.split("=") for token in LEVEL_OF[strategy].split())
    value = fields.pop(key, VALUES[key])
    line = (f"level x strategy={strategy} "
            + "".join(f"{k}={v} " for k, v in fields.items()) + f"{key}={value}")
    topo, levels, model = write(tmp_path, **{
        "dual.topo": PRESETS.joinpath("dual-socket-pcie-switch.topo").read_text(),
        "levels.txt": line + "\n",
        "model.txt": gnn.save_model(gnn.init_model(seed=0))})
    predict = ["gnn", "predict", "--model", model, "--topo", topo,
               "--level", levels]
    got = [run(capsys, "plan", "--topo", topo, "--levels", levels),
           run(capsys, *predict), run(capsys, *predict, "--compare")]
    if key in READS[strategy]:
        assert [code for code, _, _ in got] == [0, 0, 0]
        assert got[0][1].startswith(f"selected x ({strategy}, n=2): ")
    else:
        error = (f"error: line 1, col {line.index(f' {key}=') + 2}: "
                 f"unknown {strategy} level key {key!r}\n")
        assert got == [(2, "", error)] * 3


@pytest.mark.parametrize("fields,key,message", [
    ("strategy=parameter_server participants=gpu0,gpu1", None,
     "parameter_server needs a server= node"),
    ("strategy=ring_allreduce participants=,", "participants",
     "needs at least one participant"),
    ("strategy=ring_allreduce participants=gpu0,gpu9", "participants",
     "unknown node 'gpu9'"),
    ("strategy=pipeline_p2p participants=gpu9", "participants",
     "unknown node 'gpu9'"),
    ("strategy=parameter_server participants=gpu0,gpu1 server=gpu2", "server",
     "server 'gpu2' is Gpu, expected one of Nic/Dpu/CpuSocket"),
    ("strategy=in_network_aggregation participants=gpu0,gpu1 server=zz",
     "server", "unknown node 'zz'"),
])
def test_level_checked_against_the_graph_exit_2(capsys, tmp_path, fields, key,
                                                message):
    topo = tmp_path / "dual.topo"
    topo.write_text(PRESETS.joinpath("dual-socket-pcie-switch.topo").read_text())
    line = f"level x {fields} payload=1e6"
    col = line.index(f" {key}=") + 2 if key else 1
    levels = tmp_path / "levels.txt"
    levels.write_text(DUAL_SOCKET_LEVELS.strip() + f"\n{line}\n")
    code, out, err = run(capsys, "plan", "--topo", str(topo),
                         "--levels", str(levels))
    assert (code, out) == (2, "")
    assert err == f"error: line 6, col {col}: level 'x': {message}\n"
    # the same level alone, with or without the analytic time
    model = tmp_path / "model.txt"
    model.write_text(gnn.save_model(gnn.init_model(seed=0)))
    level = tmp_path / "level.txt"
    level.write_text(f"# one level\n{line}\n")
    for compare in ((), ("--compare",)):
        code, out, err = run(capsys, "gnn", "predict", "--model", str(model),
                             "--topo", str(topo), "--level", str(level),
                             *compare)
        assert (code, out) == (2, "")
        assert err == f"error: line 2, col {col}: level 'x': {message}\n"


def test_single_participant_level_prices_as_no_traffic(capsys, tmp_path):
    topo = tmp_path / "dual.topo"
    topo.write_text(PRESETS.joinpath("dual-socket-pcie-switch.topo").read_text())
    levels = tmp_path / "levels.txt"
    levels.write_text("level solo strategy=parameter_server participants=gpu0 "
                      "payload=1e9\n")
    code, out, _ = run(capsys, "plan", "--topo", str(topo),
                       "--levels", str(levels))
    assert code == 0
    assert out == "selected solo (parameter_server, n=1): 0.0 s total\n"


@pytest.mark.parametrize("argv", [
    ["gnn", "predict", "--epochs", "3"],
    ["gnn", "train", "--compare"],
    ["gnn", "train", "--model", "m.txt"],
    ["price", "breakeven", "--funding", "5"],
    ["price", "breakeven", "--tables"],
    ["price", "coverage", "--capex", "5"],
    ["topo", "validate", "x.topo", "--format", "topo"],
    ["topo", "validate", "x.topo", "--out", "y"],
])
def test_each_action_takes_only_its_own_options(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "are required" in err


@pytest.mark.parametrize("argv,required", [
    (["gnn", "predict"], "--model, --topo, --level"),
    (["gnn", "predict", "--model", "m", "--topo", "t"], "--level"),
    (["price", "breakeven", "--capex", "5"], "--monthly"),
])
def test_required_action_options(capsys, argv, required):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: the following arguments are required: "
                        f"{required}\n")


def test_non_utf8_input_exit_2(capsys, tmp_path, nvlink4_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# comment\nnode a kind=\xffGpu\n")
    expected = "error: line 2, col 13: not UTF-8: byte 0xff at offset 22\n"
    levels = tmp_path / "levels.txt"
    levels.write_text(LEVELS)
    for argv in (["topo", "validate", str(bad)],
                 ["plan", "--topo", str(bad), "--levels", str(levels)],
                 ["plan", "--topo", nvlink4_path, "--levels", str(bad)],
                 ["stagger", "--flows", str(bad), "--upstream", "16"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", expected), argv


# ---------------------------------------------------------------------------
# Output files: every output is overwritten in place, then cut to length


def output_commands(tmp_path, nvlink4_path):
    """`(argv, output paths)` for every command that writes a file."""
    levels, flows = tmp_path / "levels.txt", tmp_path / "flows.txt"
    levels.write_text(LEVELS)
    flows.write_text(FLOWS)
    out = [str(tmp_path / f"out{i}") for i in range(7)]
    return [
        (["topo", "export", nvlink4_path, "--out", out[0]], out[:1]),
        (["topo", "export", nvlink4_path, "--format", "topo", "--out", out[1]],
         out[1:2]),
        (["plan", "--topo", nvlink4_path, "--levels", str(levels),
          "--matrix", out[2], "--json", out[3]], out[2:4]),
        (["stagger", "--flows", str(flows), "--upstream", "16",
          "--events", out[4]], out[4:5]),
        (["gnn", "train", "--count", "30", "--epochs", "5",
          "--out", out[5], "--loss-csv", out[6]], out[5:7]),
    ]


def written(capsys, argv, paths):
    code, out, err = run(capsys, *argv)
    return code, out, err, [Path(p).read_bytes() for p in paths]


def test_outputs_overwrite_longer_files_with_no_stale_tail(capsys, tmp_path,
                                                           nvlink4_path):
    for argv, paths in output_commands(tmp_path, nvlink4_path):
        fresh = written(capsys, argv, paths)
        assert fresh[0] == 0, argv
        for p in paths:
            with open(p, "wb") as fh:
                fh.write(b"stale\n" * 100_000)
        # into longer existing files, then again into its own output
        assert written(capsys, argv, paths) == fresh, argv
        assert written(capsys, argv, paths) == fresh, argv


def test_outputs_open_no_file_truncating(capsys, tmp_path, nvlink4_path,
                                         monkeypatch):
    """The flush ext4 starts on closing a file truncated to zero and written
    again is avoided only if no output is opened with O_TRUNC: not by
    `os.open`, and not by `open` of a path in a writing mode.  (`open` of a
    descriptor in mode "w" truncates nothing.)"""
    from clustersmith import cli
    flags, modes = [], []
    os_open, builtin_open = os.open, open

    def spy_os_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return os_open(path, flag, *args, **kwargs)

    def spy_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int):
            modes.append(mode)
        return builtin_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(cli, "open", spy_open, raising=False)
    commands = output_commands(tmp_path, nvlink4_path)
    for _ in range(2):  # into new files, then into existing ones
        for argv, _ in commands:
            assert run(capsys, *argv)[0] == 0, argv
    assert len(flags) == 2 * sum(len(paths) for _, paths in commands)
    assert not [f for f in flags if f & os.O_TRUNC]
    assert set(modes) <= {"rb"}


def test_matrix_to_dev_null_exits_0(capsys, tmp_path, nvlink4_path):
    levels = tmp_path / "levels.txt"
    levels.write_text(LEVELS)
    code, out, _ = run(capsys, "plan", "--topo", nvlink4_path, "--levels",
                       str(levels), "--matrix", os.devnull, "--json", os.devnull)
    assert code == 0 and "selected r2" in out


def test_matrix_to_a_pipe(tmp_path, nvlink4_path):
    levels = tmp_path / "levels.txt"
    levels.write_text(LEVELS)
    matrix = tmp_path / "matrix.csv"
    argv = ["plan", "--topo", nvlink4_path, "--levels", str(levels)]
    assert main(argv + ["--matrix", str(matrix)]) == 0
    src = Path(parallelism.__file__).parents[1]
    env = dict(os.environ, CLUSTERSMITH_NO_COLOR="1", PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "clustersmith.cli", *argv,
         "--matrix", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert matrix.read_bytes() in proc.stdout


def test_outputs_to_dev_stdout_follow_stdout_in_order(tmp_path, nvlink4_path):
    # redirected to a file, /dev/stdout reopens that file: the outputs must
    # still follow the printed line, as they do into a pipe
    levels = tmp_path / "levels.txt"
    levels.write_text(LEVELS)
    src = Path(parallelism.__file__).parents[1]
    env = dict(os.environ, CLUSTERSMITH_NO_COLOR="1", PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "clustersmith.cli", "plan", "--topo",
            nvlink4_path, "--levels", str(levels)]
    for outputs in (["--matrix", "/dev/stdout"], ["--json", "/dev/stdout"],
                    ["--matrix", "/dev/stdout", "--json", "/dev/stdout"]):
        piped = subprocess.run(argv + outputs, stdout=subprocess.PIPE,
                               env=env, timeout=120, check=True).stdout
        assert piped.startswith(b"selected r2 ")
        path = tmp_path / "stdout.txt"
        with open(path, "wb") as fh:
            subprocess.run(argv + outputs, stdout=fh, env=env, timeout=120,
                           check=True)
        assert path.read_bytes() == piped, outputs


def test_output_through_a_symlink_writes_its_target(capsys, tmp_path,
                                                    nvlink4_path):
    target, link = tmp_path / "target.dot", tmp_path / "link.dot"
    target.write_text("old\n" * 10_000)
    link.symlink_to(target)
    assert run(capsys, "topo", "export", nvlink4_path, "--out", str(link))[0] == 0
    assert link.is_symlink()
    code, out, _ = run(capsys, "topo", "export", nvlink4_path)
    assert (code, target.read_text()) == (0, out)


@pytest.mark.parametrize("target", ["directory", "read-only", "under-a-file"])
def test_unwritable_output_exits_1(capsys, tmp_path, nvlink4_path, monkeypatch,
                                   target):
    path = tmp_path / "out"
    if target == "directory":
        path.mkdir()
    elif target == "under-a-file":
        path.write_text("old\n")
        path = path / "out"
    else:
        path.write_text("old\n")
        path.chmod(0o444)
        if os.access(path, os.W_OK):  # a privileged user may write it anyway
            os_open = os.open

            def refuse(file, flags, *args, **kwargs):
                if file == str(path) and flags & os.O_WRONLY:
                    raise PermissionError(13, "Permission denied", file)
                return os_open(file, flags, *args, **kwargs)

            monkeypatch.setattr(os, "open", refuse)
    code, out, err = run(capsys, "topo", "export", nvlink4_path,
                         "--out", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("i/o error: ")
    if target == "read-only":
        assert path.read_text() == "old\n"


def test_failed_write_leaves_at_most_the_written_prefix(tmp_path):
    from clustersmith.cli import _write_out

    def chunks():
        yield "new 1\n" * 2000
        yield "new 2\n"
        raise RuntimeError("generator failed")

    new = "new 1\n" * 2000 + "new 2\n"
    for failing, error in ((chunks(), RuntimeError),
                           (["new 1\n" * 2000, "new 2\n", "\ud800"],
                            UnicodeEncodeError)):
        path = tmp_path / "out.csv"
        path.write_text("old\n" * 100_000)
        with pytest.raises(error):
            _write_out(failing, str(path))
        text = path.read_text()
        assert new.startswith(text) and "old" not in text


def test_new_output_mode_follows_umask(capsys, tmp_path, nvlink4_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        assert run(capsys, "topo", "export", nvlink4_path,
                   "--out", str(tmp_path / "out"))[0] == 0
    finally:
        os.umask(old)
    mode = (tmp_path / "out").stat().st_mode & 0o777
    assert mode == (tmp_path / "plain").stat().st_mode & 0o777 == 0o640

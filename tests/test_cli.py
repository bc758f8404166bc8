import contextlib
import csv
import io
import os
import sys
import tracemalloc
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersmith import gnn, parallelism
from clustersmith.cli import load_levels, main
from clustersmith.commcost import RoutingIndex

PRESETS = resources.files("clustersmith.presets")


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("CLUSTERSMITH_NO_COLOR", "1")


@pytest.fixture
def nvlink4_path(tmp_path):
    p = tmp_path / "nvlink4.topo"
    p.write_text(PRESETS.joinpath("nvlink4.topo").read_text())
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    transfers = Counter()
    for level in load_levels(DUAL_SOCKET_LEVELS):
        for phase, _ in parallelism.traffic_for_level(level):
            transfers.update((x.src, x.dst) for x in phase)
    assert routes == transfers
    assert ("gpu0", "nic0") in routes


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
     "error: level 'r': time is not a finite number of seconds\n"),
    # finite latencies whose sum along the route overflows
    ("node gpu0 kind=Gpu\nnode sw kind=PcieSwitch\nnode gpu1 kind=Gpu\n"
     "link gpu0 sw kind=Pcie bw=16 lat=1e308\n"
     "link sw gpu1 kind=Pcie bw=16 lat=1e308\n", "1e9",
     "error: route from 'gpu0' to 'gpu1': latency or b is not a finite "
     "number of microseconds\n"),
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

    def plan(microbatches):
        levels.write_text("level pp strategy=pipeline_p2p participants=gpu0,gpu1 "
                          f"payload=0 activation=1e8 microbatches={microbatches}\n")
        tracemalloc.start()
        try:
            result = run(capsys, "plan", "--topo", nvlink4_path,
                         "--levels", str(levels))
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plan(1)  # first use: lazy imports and caches
    _, base_peak = plan(1)
    (t, _), = parallelism.comm_time(load_levels(levels.read_text())[0],
                                    nvlink4)
    # 10**6 first: a per-phase list would cost megabytes there, not gigabytes
    for microbatches in (10 ** 6, 10 ** 9):
        result, peak = plan(microbatches)
        assert peak - base_peak < 64 * 1024
        assert result == (0, "selected pp (pipeline_p2p, n=2): "
                          f"{float(microbatches) * t!r} s total\n", "")


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
    levels = tmp_path / "levels.txt"
    levels.write_text(LEVELS.strip() + "\nlevel r strategy=ring_allreduce "
                      + fields + "\n")
    code, out, err = run(capsys, "plan", "--topo", nvlink4_path,
                         "--levels", str(levels))
    assert code == 2 and out == ""
    assert err.startswith("error: line 3, col 1: ") and message in err
    model = tmp_path / "model.txt"
    model.write_text(gnn.save_model(gnn.init_model(seed=0)))
    level = tmp_path / "level.txt"
    level.write_text("level r strategy=ring_allreduce " + fields + "\n")
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
    options = (("--funding", "--monthly") if action == "coverage"
               else ("--capex", "--opex", "--monthly"))
    argv = ["price", action] + [f"{o}={data.draw(values, label=o)}"
                                for o in options]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""


@pytest.mark.parametrize("fields,message", [
    ("strategy=parameter_server participants=gpu0,nic0 server=nic0",
     "server 'nic0' is also a participant"),
    ("strategy=in_network_aggregation participants=gpu0,gpu1 server=gpu1",
     "server 'gpu1' is also a participant"),
    ("strategy=ring_allreduce participants=gpu0,gpu1 server=nic0",
     "ring_allreduce takes no server"),
    ("strategy=pipeline_p2p participants=gpu0,gpu1 server=nic0",
     "pipeline_p2p takes no server"),
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

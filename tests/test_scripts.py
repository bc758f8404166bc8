"""The demo scripts run in-process on small inputs."""

import csv
import importlib.util
import io
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stagger_sweep(capsys):
    assert load_script("stagger_sweep").main(["--max-flows", "4"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [int(r["n_flows"]) for r in rows] == [1, 2, 3, 4]
    for r in rows:
        n = int(r["n_flows"])
        assert int(r["naive_peak"]) == n and int(r["staggered_peak"]) == 1
        assert float(r["mean_ratio"]) == pytest.approx((n + 1) / (2 * n),
                                                       abs=1e-6)
    assert list(rows[0]) == ["n_flows", "naive_mean_s", "staggered_mean_s",
                             "mean_ratio", "naive_peak", "staggered_peak"]


def test_plan_matrix_demo(capsys):
    assert load_script("plan_matrix_demo").main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "level"
    assert [line.split()[0] for line in lines[1:-1]] == ["ring2", "ring3",
                                                         "ring4"]
    assert lines[-1].startswith("selected ring")

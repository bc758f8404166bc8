"""The demo scripts run in-process on small inputs."""

import csv
import importlib.util
import io
import random
from pathlib import Path

import pytest

from clustersmith import gnn

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
        # one start and one finish per flow, at the default 1e-4 s each
        assert float(r["staggered_cpu_s"]) == pytest.approx(2 * n * 1e-4)


def test_plan_matrix_demo(capsys):
    assert load_script("plan_matrix_demo").main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "level"
    assert [line.split()[0] for line in lines[1:-1]] == ["ring2", "ring3",
                                                         "ring4"]
    assert lines[-1].startswith("selected ring")


def test_train_gnn(capsys, tmp_path):
    out_path = tmp_path / "model.txt"
    script = load_script("train_gnn")
    assert script.main(["--count", "20", "--epochs", "20",
                        "--out", str(out_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    epochs = [int(line.split()[1]) for line in lines[:-2]]
    assert epochs == list(range(0, 20, 2)) + [19]
    assert all(line.split()[2:4] == ["train", "loss"] for line in lines[:-2])
    words = lines[-2].split()
    assert words[:2] == ["validation", "MAPE"]
    assert words[3:] == ["over", "4", "held-out", "samples"]
    assert lines[-1] == f"model written to {out_path}"
    model = gnn.load_model(out_path.read_text())
    assert model.dims == (gnn.FEATURE_DIM, 16, 16)
    samples = gnn.generate_dataset(seed=0, count=20)
    order = list(range(20))
    random.Random(0).shuffle(order)
    assert float(words[2]) == pytest.approx(
        gnn.validation_mape(model, samples, order[16:]), abs=5e-4)


def test_train_gnn_bad_settings(capsys, tmp_path):
    out_path = tmp_path / "model.txt"
    script = load_script("train_gnn")
    assert script.main(["--count", "2", "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: validation needs at least one held-out sample\n"
    assert not out_path.exists()
    assert script.main(["--count", "20", "--epochs", "0",
                        "--out", str(out_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith(
        "validation MAPE")

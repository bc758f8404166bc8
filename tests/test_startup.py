"""Start-up cost: only `gnn` imports numpy, only reading a bundled file
imports `importlib.resources`, nothing imports `typing` (records are
`collections.namedtuple`s), and `main` builds its parser once per process
without carrying state from one call to the next."""

import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import clustersmith
from clustersmith.cli import build_parser, main

SRC = str(Path(clustersmith.__file__).resolve().parent.parent)
PRESETS = resources.files("clustersmith.presets")

LEVELS = """
level r4 strategy=ring_allreduce participants=gpu0,gpu1,gpu2,gpu3 payload=10e9
level ps strategy=parameter_server participants=gpu0,gpu1,gpu2,gpu3 server=nic0 payload=1e9
level pipe strategy=pipeline_p2p participants=gpu0,gpu1,gpu2 payload=0 microbatches=4 activation=1e8
"""
FLOWS = "flow f0 bytes=10e9\nflow f1 bytes=4e9 release=0.01\nflow f2 bytes=1e9\n"

# Runs each argv through `main` with numpy made unimportable, and prints
# one JSON list of (exit code, stdout) pairs.
BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
sys.path.insert(0, sys.argv[1])
from clustersmith.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "dual.topo").write_text(
        PRESETS.joinpath("dual-socket-pcie-switch.topo").read_text())
    (tmp_path / "levels.txt").write_text(LEVELS)
    (tmp_path / "flows.txt").write_text(FLOWS)
    return tmp_path


def commands(d: Path) -> list:
    return [
        ["topo", "validate", str(d / "dual.topo")],
        ["topo", "export", str(d / "dual.topo")],
        ["topo", "export", str(d / "dual.topo"), "--format", "topo",
         "--out", str(d / "export.topo")],
        ["plan", "--topo", str(d / "dual.topo"), "--levels", str(d / "levels.txt"),
         "--matrix", str(d / "matrix.csv"), "--json", str(d / "matrix.json")],
        ["stagger", "--flows", str(d / "flows.txt"), "--upstream", "16",
         "--cap", "10", "--events", str(d / "events.csv")],
        ["price", "coverage", "--tables"],
    ]


def run_in_process(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def python(*args):
    env = dict(os.environ, CLUSTERSMITH_NO_COLOR="1")
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_numpy_out():
    out = python("-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                 "import clustersmith.cli; print('numpy' in sys.modules)", SRC)
    assert out == "False\n"
    # -S: a site-packages .pth file may import pathlib on its own
    out = python("-S", "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                 "import clustersmith.cli; print([m for m in "
                 "('importlib.resources', 'pathlib', 'typing') "
                 "if m in sys.modules])", SRC)
    assert out == "[]\n"


def test_commands_run_without_numpy(capsys, tmp_path, inputs):
    blocked_dir = tmp_path / "blocked"
    blocked_dir.mkdir()
    for name in ("dual.topo", "levels.txt", "flows.txt"):
        (blocked_dir / name).write_bytes((inputs / name).read_bytes())
    blocked = json.loads(python("-c", BLOCKED, SRC,
                                json.dumps(commands(blocked_dir))))
    expected = [list(run_in_process(capsys, argv)) for argv in commands(inputs)]
    assert [code for code, _ in expected] == [0] * len(expected)
    assert blocked == expected
    for name in ("export.topo", "matrix.csv", "matrix.json", "events.csv"):
        assert (blocked_dir / name).read_bytes() == (inputs / name).read_bytes()


def test_options_do_not_carry_over_between_calls(capsys, inputs):
    flows = str(inputs / "flows.txt")
    plain = ["stagger", "--flows", flows, "--upstream", "16"]
    fresh = python("-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                   "from clustersmith.cli import main; sys.exit(main(sys.argv[2:]))",
                   SRC, *plain)
    first = run_in_process(capsys, plain)
    assert first == (0, fresh)
    capped = run_in_process(capsys, plain[:-1] + ["16", "--cap", "4"])
    assert capped[0] == 0 and capped[1] != fresh
    run_in_process(capsys, commands(inputs)[3])     # plan writing both files
    (inputs / "matrix.csv").unlink()
    (inputs / "matrix.json").unlink()
    plan = ["plan", "--topo", str(inputs / "dual.topo"),
            "--levels", str(inputs / "levels.txt")]
    assert run_in_process(capsys, plan)[0] == 0
    assert not (inputs / "matrix.csv").exists()
    assert not (inputs / "matrix.json").exists()
    run_in_process(capsys, ["price", "coverage", "--funding", "10", "--monthly", "3"])
    assert run_in_process(capsys, plain) == (0, fresh)


def parse_exit(parser_call, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parser_call(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    ["--help"], ["stagger", "--help"], ["plan", "--help"], ["gnn", "--help"],
    [], ["bogus"], ["plan"], ["stagger", "--flows", "f", "--upstream", "x"],
    ["price", "coverage", "--funding"], ["topo", "validate", "a", "--format", "png"],
])
def test_help_and_usage_errors_match_a_fresh_parser(argv):
    fresh = build_parser.__wrapped__  # build_parser itself is cached
    expected = parse_exit(lambda a: fresh().parse_args(a), argv)
    assert expected[0] in (0, 2)
    for _ in range(3):
        assert parse_exit(main, argv) == expected

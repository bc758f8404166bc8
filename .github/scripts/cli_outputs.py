"""Print one `name: sha256` line per output of a source tree's command line,
so that two trees' outputs diff to exactly the outputs that changed:

- `plan` stdout, `--matrix` CSV and `--json` on `tests/data`'s seed-1
  cluster (all four strategies) and on the dual-socket preset with
  `tests/test_startup.py`'s LEVELS;
- `topo export` in both formats on both presets;
- `stagger` stdout and `--events` CSV on `tests/test_startup.py`'s FLOWS,
  without and with `--cap 10`;
- a small `gnn train` model, and `gnn predict --compare` with it;
- `price coverage --tables`, one `price coverage` and one `price breakeven`.

Each stdout is hashed after its exit code.

    python .github/scripts/cli_outputs.py TREE > outputs.txt
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

RING = ("level r strategy=ring_allreduce participants=gpu0,gpu1,gpu2,gpu3 "
        "payload=1e9\n")


def main() -> None:
    tree = Path(sys.argv[1]).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]
    os.environ["CLUSTERSMITH_NO_COLOR"] = "1"
    from clustersmith.cli import main as cli
    from test_startup import FLOWS, LEVELS

    presets = tree / "src" / "clustersmith" / "presets"
    dual = presets / "dual-socket-pcie-switch.topo"
    seed1 = tree / "tests" / "data" / "plan-cluster-seed1"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "dual.levels").write_text(LEVELS)
        (tmp / "ring.level").write_text(RING)
        (tmp / "flows.txt").write_text(FLOWS)

        def run(name, *argv, files=()):
            """Run `argv`; print the hash of its stdout, then of each of
            `files` it wrote, as `(label, path)`."""
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli([str(a) for a in argv])
            outputs = [("stdout", f"exit {code}\n{out.getvalue()}".encode())]
            outputs += [(label, path.read_bytes()) for label, path in files]
            for label, data in outputs:
                print(f"{name} {label}: {hashlib.sha256(data).hexdigest()}")

        for name, topo, levels in (
                ("plan seed1", seed1.with_suffix(".topo"),
                 seed1.with_suffix(".levels")),
                ("plan dual-socket", dual, tmp / "dual.levels")):
            csv, js = tmp / "m.csv", tmp / "m.json"
            run(name, "plan", "--topo", topo, "--levels", levels,
                "--matrix", csv, "--json", js,
                files=(("matrix", csv), ("json", js)))
        for preset in sorted(presets.glob("*.topo")):
            for fmt in ("dot", "topo"):
                out = tmp / "export"
                run(f"topo export {preset.stem} {fmt}", "topo", "export",
                    preset, "--format", fmt, "--out", out,
                    files=(("file", out),))
        for name, cap in (("stagger", ()), ("stagger cap 10", ("--cap", 10))):
            events = tmp / "events.csv"
            run(name, "stagger", "--flows", tmp / "flows.txt", "--upstream", 16,
                *cap, "--events", events, files=(("events", events),))
        model = tmp / "model.txt"
        run("gnn train small", "gnn", "train", "--count", 20, "--epochs", 50,
            "--out", model, files=(("model", model),))
        run("gnn predict dual-socket", "gnn", "predict", "--model", model,
            "--topo", dual, "--level", tmp / "ring.level", "--compare")
        run("price coverage tables", "price", "coverage", "--tables")
        run("price coverage", "price", "coverage", "--funding", 68200,
            "--monthly", 3751.82)
        run("price breakeven", "price", "breakeven", "--capex", 40000,
            "--opex", 200, "--monthly", 1700)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark of the clustersmith command line, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload is a closed loop with one
client: every operation is one `clustersmith` command run in-process
through `cli.main`, issued when the previous one returns, on inputs made
from the seed.  Outputs are checked against the oracles in `oracles.py`.
With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics
of a traced run, whose spans are written to `perfbench/.runs/`.
Without `--workload`, every workload runs in turn, each in its own process.
"""

import os

# One thread for numpy's BLAS: all load comes from this one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS, Output  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / ".runs"
SETUP_REPS = 9

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"),
              ("work_per_s", "1/s"))

# Starts a fresh interpreter, imports the CLI and runs the set-up command
# given after the source directory, if any.
SETUP_CODE = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import clustersmith.cli as cli\n"
              "sys.exit(cli.main(sys.argv[2:]) if sys.argv[2:] else 0)\n")


class OpDeadline(BaseException):
    """Raised by the interval timer when one command overruns its deadline."""


def _on_alarm(signum, frame):
    raise OpDeadline


def load_program() -> SimpleNamespace:
    """Import clustersmith from this checkout's `src`, or exit non-zero."""
    if not (SRC / "clustersmith" / "cli.py").is_file():
        sys.exit(f"run.py: no clustersmith sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"clustersmith.{name}") for name in tracer.LAYERS}
    for mod in mods.values():
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            sys.exit(f"run.py: imported {mod.__name__} from {mod.__file__}, not {SRC}")
    return SimpleNamespace(**mods)


class Setup:
    """Launches of a fresh interpreter that imports the CLI and runs any
    program work the workload needs before its first operation."""

    def __init__(self, workload):
        self.argv = workload.setup_argv() or []
        self.times, self.errors = [], []
        self.made = None            # text of the file the first launch wrote

    def launch(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *self.argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=170)
        self.times.append(time.perf_counter() - t0)
        if proc.returncode:
            self.errors.append(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        elif self.argv:
            made = Path(self.argv[-1]).read_text(encoding="utf-8")
            if self.made is None:
                self.made = made
            elif made != self.made:
                self.errors.append("set-up runs with one seed wrote different files")


def run_op(cli, op, deadline_s):
    """(seconds, Output) for a completed command, or (None, reason)."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(op.argv)
            elapsed = time.perf_counter() - t0
    except OpDeadline:
        return None, f"no result within {deadline_s} s"
    except Exception as exc:    # a crashing command is a failed operation
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if code != 0:
        return None, f"exit {code}: {err.getvalue().strip()[-300:]}"
    files = {}
    for path in op.files:
        with open(path, encoding="utf-8") as fh:
            files[path] = fh.read()
    return elapsed, Output(out.getvalue(), files)


@dataclass
class Loop:
    """What one closed-loop run of a workload's rounds recorded."""
    times: list = field(default_factory=list)          # untraced command seconds
    traced_times: list = field(default_factory=list)
    round_rates: list = field(default_factory=list)    # work units per command second
    failures: dict = field(default_factory=dict)       # key -> reasons
    first: dict = field(default_factory=dict)          # key -> first Output
    completed: dict = field(default_factory=dict)      # key -> count
    errors: list = field(default_factory=list)
    attempted: int = 0
    rounds: int = 0


def closed_loop(cs, workload, ops, setup, seconds, tr) -> Loop:
    """Whole rounds of `ops` until `seconds` have passed.

    Whole rounds only, so the failed share is the same in every run.  With
    a tracer, untraced and traced commands alternate.  Set-up launches are
    spread over the run, so that they meet the same machine load as the
    commands.
    """
    setup_reps = 1 if tr else SETUP_REPS
    package = [m for n, m in sys.modules.items() if n.startswith("clustersmith")]
    run = Loop()
    start = time.perf_counter()
    while True:
        round_work = round_time = 0.0
        for op in ops:
            traced = tr is not None and run.attempted % 2 == 1
            if traced:
                tr.install(package)
                tr.begin_op()
            elapsed, result = run_op(cs.cli, op, workload.deadline_s)
            if traced:
                tr.end_op()
                tr.uninstall()
            run.attempted += 1
            if elapsed is None:
                run.failures.setdefault(op.key, []).append(result)
                continue
            (run.traced_times if traced else run.times).append(elapsed)
            round_work += op.work
            round_time += elapsed
            run.completed[op.key] = run.completed.get(op.key, 0) + 1
            if op.key not in run.first:
                run.first[op.key] = result
            elif result != run.first[op.key]:
                run.errors.append(f"{op.key}: output differs between runs of the same input")
        run.rounds += 1
        if round_time:
            run.round_rates.append(round_work / round_time)
        elapsed = time.perf_counter() - start
        while len(setup.times) < setup_reps and elapsed >= len(setup.times) * seconds / setup_reps:
            setup.launch()
            elapsed = time.perf_counter() - start
        if elapsed >= seconds and (tr is None or run.attempted >= 2):
            break
    while len(setup.times) < setup_reps:
        setup.launch()
    return run


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cs = load_program()
    workdir = RUNS / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, workdir, cs)
    setup = Setup(workload)
    setup.launch()              # also makes what the operations need
    ops = workload.prepare()
    tr = tracer.Tracer({layer: getattr(cs, layer) for layer in tracer.LAYERS},
                       OpDeadline) if trace else None
    signal.signal(signal.SIGALRM, _on_alarm)
    run = closed_loop(cs, workload, ops, setup, seconds, tr)
    times, traced_times, first = run.times, run.traced_times, run.first
    errors = setup.errors + run.errors
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # retraining with the same seed must give the same model bytes
    for op in ops:
        if workload.repeat_checked and run.completed.get(op.key) == 1:
            elapsed, result = run_op(cs.cli, op, workload.deadline_s)
            if elapsed is None or result != first[op.key]:
                errors.append(f"{op.key}: a second run gave a different result")
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    try:
        errors += workload.check(first)
    except Exception as exc:    # output the checks cannot read is wrong output
        errors.append(f"checks failed on the output: {type(exc).__name__}: {exc}")
    if trace:
        c = tr.counters
        if c.get("contention.simulate_events", 0) != 2 * c.get("contention.simulate_completed_flows", 0):
            errors.append("simulate logged other than two events per flow")
        tr.dump(workdir / "trace.json")

    failed = sum(len(v) for v in run.failures.values())
    extras = workload.extras()
    lines = [f"workload {name}: seed {seed}, {run.rounds} rounds, {run.attempted} commands "
             f"attempted, {failed} failed, {len(times) + len(traced_times)} timed"]
    for key, reasons in sorted(run.failures.items()):
        lines.append(f"  failed {key} x{len(reasons)}: {reasons[0]}")
    if getattr(workload, "redrawn", 0):
        lines.append(f"  {workload.redrawn} seeded scenarios redrawn because the "
                     f"simulator does not finish them")
    if trace:
        metrics = tr.report()
        metrics["trace_overhead"] = (statistics.median(traced_times) / statistics.median(times)
                                     if times and traced_times else 0.0)
        metrics["gnn.val_mape"] = extras.get("val_mape", (0.0, ""))[0]
        units = dict(tracer.METRICS, trace_overhead="ratio", **{"gnn.val_mape": "ratio"})
    elif not times:
        errors.append("no command completed")
        metrics = dict.fromkeys(dict(END_TO_END), 0.0)
        units = dict(END_TO_END)
    else:
        rate = statistics.median(run.round_rates)
        metrics = {"setup_s": statistics.median(setup.times),
                   "op_p50_s": statistics.median(times),
                   "peak_rss_mb": peak_rss_mb, "work_per_s": rate}
        units = dict(END_TO_END)
        report = {workload.rate_name: (rate, "1/s")}
        if len(times) >= 100:   # ten samples beyond the 90th percentile
            report["op_p90_s"] = (statistics.quantiles(times, n=10)[-1], "s")
        report.update(extras)
        for key, (value, unit) in report.items():
            lines.append(f"  {key} = {value:.6g} {unit}")
    for key, value in metrics.items():
        lines.append(f"  {key} = {value:.6g} {units[key]}")
    for e in errors[:20]:
        lines.append(f"  CHECK FAILED: {e}")
    print("\n".join(lines), flush=True)
    return {"correct": not errors, "attempted": run.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own process; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            sys.exit(f"run.py: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

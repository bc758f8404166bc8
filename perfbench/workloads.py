"""The four benchmark workloads: inputs, operations and output checks.

A workload writes its seeded inputs into a work directory and returns one
round of operations.  Each operation is one `clustersmith` command line,
run in-process through `cli.main`.  Operations with the same `key` read
the same inputs, so their outputs must be byte-identical; `check` is
handed the first output of each key and compares it with the oracles.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import inputs
import oracles

REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    argv: list
    key: str
    work: float                     # work units done when the command completes
    files: tuple = ()               # output files the command writes


@dataclass
class Output:
    stdout: str
    files: dict = field(default_factory=dict)   # path -> text


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


class Workload:
    name = ""
    rate_name = ""                  # report name of work_per_s for this workload
    deadline_s = 120.0              # per-operation limit
    repeat_checked = False          # rerun once if a run completed only one command

    def __init__(self, seed: int, workdir: Path, cs):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.dir = workdir
        self.cs = cs                # namespace of clustersmith modules

    def setup_argv(self):
        """Program work needed before the first operation, or None."""
        return None

    def prepare(self) -> list:
        """Write inputs; return one round of operations."""
        raise NotImplementedError

    def check(self, outputs: dict) -> list:
        """Error messages for the first output of each key."""
        raise NotImplementedError

    def extras(self) -> dict:
        """Workload-specific figures found by `check`, for the report."""
        return {}

    def _write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)


# ---------------------------------------------------------------------------


class PlanCluster(Workload):
    name = "plan-cluster"
    rate_name = "plan_flow_phases_per_s"

    def prepare(self):
        self.topo_text = inputs.cluster_topology(self.rng)
        self.levels_text = inputs.cluster_levels(self.rng)
        self.levels = oracles.parse_levels(self.levels_text)
        topo = self._write("cluster.topo", self.topo_text)
        levels = self._write("cluster.levels", self.levels_text)
        self.csv_path = str(self.dir / "matrix.csv")
        self.json_path = str(self.dir / "matrix.json")
        argv = ["plan", "--topo", topo, "--levels", levels,
                "--matrix", self.csv_path, "--json", self.json_path]
        work = oracles.flow_phase_count(self.levels)
        return [Op(argv, "plan", work, (self.csv_path, self.json_path))]

    def check(self, outputs):
        out = outputs["plan"]
        errors = []
        csv_rows = [line.split(",") for line in out.files[self.csv_path].splitlines()]
        doc = json.loads(out.files[self.json_path])
        names = [lv.name for lv in self.levels]
        width = max(len(lv.phases()) for lv in self.levels)
        if [r[0] for r in csv_rows[1:]] != names or \
                [lv["name"] for lv in doc["levels"]] != names:
            return [f"level rows {[r[0] for r in csv_rows[1:]]} != {names}"]
        if doc["phase_count"] != width or len(csv_rows[0]) != width + 2:
            errors.append(f"phase count {doc['phase_count']} != {width}")
        for row, entries, total in zip(csv_rows[1:], doc["entries"], doc["row_totals"]):
            if [float(x) for x in row[1:]] != list(entries) + [total]:
                errors.append(f"{row[0]}: CSV and JSON matrices differ")
        topo = oracles.Topology.parse(self.topo_text)
        routes = {}
        for lv, entries, total in zip(self.levels, doc["entries"], doc["row_totals"]):
            bounds = oracles.phase_bounds(topo, lv, routes)
            for k, (lo, hi) in enumerate(bounds):
                t = entries[k]
                if not lo * (1 - 1e-12) <= t <= hi * (1 + 1e-12):
                    errors.append(f"{lv.name} phase {k + 1}: {t!r} outside [{lo!r}, {hi!r}]")
            if any(x != 0.0 for x in entries[len(bounds):]):
                errors.append(f"{lv.name}: padding past its phases is not zero")
            if not _close(total, math.fsum(entries), 1e-12):
                errors.append(f"{lv.name}: row total {total!r} != sum of phases")
        # documented tie-break: smallest total, then fewer participants,
        # then declaration order
        best = min(range(len(names)), key=lambda i: (doc["row_totals"][i],
                                                     len(self.levels[i].participants), i))
        head = out.stdout.split()
        if head[:2] != ["selected", names[best]] or \
                float(head[-3]) != doc["row_totals"][best]:
            errors.append(f"selected line {out.stdout.strip()!r}, expected "
                          f"{names[best]} at {doc['row_totals'][best]!r}")
        return errors


# ---------------------------------------------------------------------------


class StaggerSwitch(Workload):
    name = "stagger-switch"
    rate_name = "stagger_flows_per_s"   # naive plus staggered, per completed command
    deadline_s = 0.5
    scenarios = 200
    hang_event_limit = 200_000      # profiler events; completed scenarios use < 5,000

    def prepare(self):
        ops = []
        self.by_key = {}
        self.redrawn = 0
        k = 0
        while len(ops) < self.scenarios:
            sc = inputs.switch_scenario(self.rng, f"s{k:03d}")
            k += 1
            if self._hangs(sc):
                self.redrawn += 1
                continue
            ops.append(self._op(sc))
        ops.append(self._op(inputs.known_hang_scenario()))
        return ops

    def _op(self, sc):
        self.by_key[sc.name] = sc
        flows = self._write(f"{sc.name}.flows", sc.flows_text)
        events = str(self.dir / f"{sc.name}.events.csv")
        return Op(sc.argv(flows, events), sc.name, 2 * len(sc.flows), (events,))

    def _hangs(self, sc) -> bool:
        """Whether the program's simulator fails to finish this scenario.

        Runs the same calls as `clustersmith stagger` under a profiler that
        counts events, so the verdict is deterministic: it does not depend
        on how fast this machine is.  A seeded scenario that hangs is
        redrawn, because which seeds hit the hang is arbitrary; the hang
        itself is kept in every round by `inputs.known_hang_scenario`.
        """
        cli, contention = self.cs.cli, self.cs.contention
        flows = cli.load_flows(sc.flows_text)
        sw = contention.SwitchModel(sc.upstream, sc.cap or sc.upstream)
        count = [0]

        class Stalled(Exception):
            pass

        def profile(frame, event, arg):
            count[0] += 1
            if count[0] > self.hang_event_limit:
                raise Stalled

        sys.setprofile(profile)
        try:
            contention.simulate(flows, sw)
            offsets = contention.optimize_stagger(flows, sw)
            contention.simulate(contention.with_offsets(flows, offsets), sw)
        except Stalled:
            return True
        except Exception:           # the command itself will report it
            return False
        finally:
            sys.setprofile(None)
        return False

    def check(self, outputs):
        errors = []
        for key, out in outputs.items():
            errors += [f"{key}: {e}" for e in self._check_one(self.by_key[key], out)]
        return errors

    def _check_one(self, sc, out):
        flows = sc.flows
        cap = sc.cap or sc.upstream
        lines = out.stdout.splitlines()
        offsets = {}
        for line in lines[:len(flows)]:
            _, fid, value = line.split()
            offsets[fid] = float(value)
        errors = []
        if list(offsets) != [f[0] for f in flows] or lines[len(flows)][:5] != "naive":
            return [f"unexpected output {out.stdout[:200]!r}"]
        if not all(v >= 0 and math.isfinite(v) for v in offsets.values()):
            errors.append(f"negative or non-finite offset in {offsets}")

        def summary(line):
            kv = dict(t.split("=") for t in line.split()[1:])
            return float(kv["makespan"]), float(kv["mean"])

        naive = oracles.fair_share_completions(
            [(fid, b, Fraction(r)) for fid, b, r in flows], sc.upstream, cap)
        starts = {fid: Fraction(r) + Fraction(offsets[fid]) for fid, _, r in flows}
        staggered = oracles.fair_share_completions(
            [(fid, b, starts[fid]) for fid, b, _ in flows], sc.upstream, cap)
        for label, exact, line in (("naive", naive, lines[len(flows)]),
                                   ("staggered", staggered, lines[len(flows) + 1])):
            makespan, mean = summary(line)
            want = (max(exact.values()), sum(exact.values()) / len(exact))
            if not (_close(makespan, float(want[0])) and _close(mean, float(want[1]))):
                errors.append(f"{label} makespan/mean {makespan!r}/{mean!r}, "
                              f"exact {float(want[0])!r}/{float(want[1])!r}")
        errors += self._check_events(next(iter(out.files.values())), flows, staggered)
        return errors

    @staticmethod
    def _check_events(text, flows, exact):
        """Finish times match the exact schedule; logged rates deliver every
        flow's bytes; active counts follow the starts and finishes."""
        rows = [line.split(",") for line in text.splitlines()[1:]]
        size = {fid: b for fid, b, _ in flows}
        errors = []
        if sorted((r[1], r[2]) for r in rows) != sorted(
                (ev, fid) for fid in size for ev in ("finish", "start")):
            return [f"event log does not start and finish each flow once: {len(rows)} rows"]
        got = {fid: Fraction(0) for fid in size}
        active = set()
        t_prev, rate = Fraction(0), Fraction(0)
        for time_s, event, fid, n_active, rate_gbps in rows:
            t = Fraction(float(time_s))
            if t < t_prev:
                errors.append(f"event log goes back in time at {time_s}")
            for a in active:
                got[a] += rate * (t - t_prev)
            (active.add if event == "start" else active.discard)(fid)
            if int(n_active) != len(active):
                errors.append(f"{event} {fid}: logged {n_active} active, counted {len(active)}")
            if event == "finish" and not _close(float(t), float(exact[fid])):
                errors.append(f"{fid} finishes at {time_s}, exact {float(exact[fid])!r}")
            t_prev, rate = t, Fraction(float(rate_gbps)) * 10 ** 9
        for fid, b in size.items():
            if abs(got[fid] - Fraction(b)) > REL_TOL * Fraction(b):
                errors.append(f"{fid}: log delivers {float(got[fid])!r} of {b!r} bytes")
        return errors


# ---------------------------------------------------------------------------


class GnnTrain(Workload):
    name = "gnn-train"
    rate_name = "gnn_sample_epochs_per_s"
    repeat_checked = True           # retraining must give identical model bytes
    # CLI defaults of `gnn train`; the split fraction is TrainConfig's
    count, epochs, train_seed, split = 200, 500, 0, 0.8
    fd_samples = 3

    def prepare(self):
        self.model_path = str(self.dir / "model.txt")
        self.n_train = max(1, int(round(self.split * self.count)))
        return [Op(["gnn", "train", "--out", self.model_path], "train",
                   self.n_train * self.epochs, (self.model_path,))]

    def check(self, outputs):
        gnn = self.cs.gnn
        out = outputs["train"]
        model = oracles.GcnModel(out.files[self.model_path])
        errors = []
        # The validation graphs come from the program's seeded generator (they
        # are inputs); their labels and predictions are computed here.
        samples = gnn.generate_dataset(seed=self.train_seed, count=self.count)
        order = list(range(self.count))
        random.Random(self.train_seed).shuffle(order)
        errs = []
        for i in order[self.n_train:]:
            topo, level = _topology_of(samples[i].graph), samples[i].level
            label = oracles.ring_allreduce_seconds(topo, level.participants,
                                                   level.payload_bytes)
            if not _close(label, samples[i].label_seconds):
                errors.append(f"sample {i}: analytic label {samples[i].label_seconds!r}, "
                              f"brute force {label!r}")
            pred = oracles.gcn_predict_seconds(
                model, *oracles.gcn_inputs(topo, level.participants, level.payload_bytes))
            errs.append(abs(pred - label) / label)
        self.val_mape = sum(errs) / len(errs)
        printed = float(out.stdout.split()[-1])
        if self.val_mape > 0.25:
            errors.append(f"validation MAPE {self.val_mape:.4f} > 0.25")
        if abs(self.val_mape - printed) > 5e-5 + 1e-9:
            errors.append(f"printed MAPE {printed} != recomputed {self.val_mape:.6f}")
        picks = random.Random(self.seed).sample(order[:self.n_train], self.fd_samples)
        for i in picks:
            topo, level = _topology_of(samples[i].graph), samples[i].level
            a_hat, h = oracles.gcn_inputs(topo, level.participants, level.payload_bytes)
            target = (math.log(samples[i].label_seconds) - model.mu) / model.sigma
            g = gnn.gradients(gnn.GnnModel(
                weights=[w.copy() for w in model.weights],
                biases=[b.copy() for b in model.biases],
                head_w=model.head_w.copy(), head_b=model.head_b,
                label_mu=model.mu, label_sigma=model.sigma), a_hat, h, target)
            grads = []
            for w, b in zip(g.weights, g.biases):
                grads += [w, b]
            grads += [g.head_w, [g.head_b]]
            worst, scale, skipped = oracles.finite_difference_check(model, a_hat, h,
                                                                   target, grads)
            n_params = sum(p.size for p in model.params())
            if worst > 1e-4 * max(scale, 1e-12) or skipped > n_params // 20:
                errors.append(f"sample {i}: gradients differ from central differences "
                              f"by {worst:.3g} (scale {scale:.3g}, {skipped} skipped)")
        return errors

    def extras(self):
        return {"val_mape": (self.val_mape, "ratio")}


def _topology_of(g) -> oracles.Topology:
    """The oracle's view of a program graph: its declarations only."""
    kinds = {n.id: n.kind.value for n in g.nodes}
    edges = [oracles.Edge(l.endpoint_a, l.endpoint_b, l.bandwidth,
                          l.latency + l.extra_overhead_b, l.duplex, k)
             for k, l in enumerate(g.links)]
    return oracles.Topology(kinds, edges, g.gdr)


# ---------------------------------------------------------------------------


class PredictSmall(Workload):
    name = "predict-small"
    rate_name = "predict_per_s"
    topologies = 200
    # a short seeded training run makes the model during set-up
    train_count, train_epochs = 40, 60

    def setup_argv(self):
        self.model_path = str(self.dir / "model.txt")
        return ["gnn", "train", "--seed", str(self.seed), "--count", str(self.train_count),
                "--epochs", str(self.train_epochs), "--out", self.model_path]

    def prepare(self):
        ops = []
        self.cases = {}
        for k in range(self.topologies):
            topo_text, level_text = inputs.small_topology(self.rng)
            key = f"t{k:03d}"
            self.cases[key] = (topo_text, level_text)
            topo = self._write(f"{key}.topo", topo_text)
            level = self._write(f"{key}.level", level_text)
            ops.append(Op(["gnn", "predict", "--model", self.model_path, "--topo", topo,
                           "--level", level, "--compare"], key, 1))
        return ops

    def check(self, outputs):
        model = oracles.GcnModel(Path(self.model_path).read_text(encoding="utf-8"))
        errors = []
        for key, out in outputs.items():
            topo_text, level_text = self.cases[key]
            topo = oracles.Topology.parse(topo_text)
            level = oracles.parse_levels(level_text)[0]
            words = out.stdout.split()
            predicted, analytic = float(words[1]), float(words[4])
            want_pred = oracles.gcn_predict_seconds(
                model, *oracles.gcn_inputs(topo, level.participants, level.payload))
            want_time = oracles.ring_allreduce_seconds(topo, level.participants,
                                                       level.payload)
            if not _close(predicted, want_pred):
                errors.append(f"{key}: predicted {predicted!r}, forward pass {want_pred!r}")
            if not _close(analytic, want_time):
                errors.append(f"{key}: analytic {analytic!r}, brute force {want_time!r}")
        return errors


WORKLOADS = {w.name: w for w in (PlanCluster, StaggerSwitch, GnnTrain, PredictSmall)}

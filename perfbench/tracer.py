"""Per-layer tracing from outside the program.

`Tracer.install` replaces every public function of the traced modules
with a timing wrapper, in its own module and under every name another
clustersmith module imported it as (so `parallelism.resolve_path` and
`gnn.comm_time` are timed too).  Spans and counters stay in memory and
are written out by `Tracer.dump` when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time

LAYERS = ("cli", "topology", "commcost", "parallelism", "contention", "gnn")

# Per-layer metrics reported per traced command: (name, unit).
METRICS = (
    ("commcost.resolve_path_calls", "count"),
    ("commcost.resolve_path_s", "s"),
    ("commcost.resolve_path_distinct", "count"),
    ("commcost.resolve_path_repeat_ratio", "ratio"),
    ("parallelism.comm_time_calls", "count"),
    ("parallelism.comm_time_self_s", "s"),
    ("parallelism.build_time_matrix_s", "s"),
    ("parallelism.select_level_s", "s"),
    ("parallelism.comm_time_per_level", "count"),
    ("contention.simulate_calls", "count"),
    ("contention.simulate_s", "s"),
    ("contention.optimize_stagger_s", "s"),
    ("contention.events_to_csv_s", "s"),
    ("contention.simulate_deadline_hits", "count"),
    ("contention.simulate_events", "count"),
    ("gnn.generate_dataset_s", "s"),
    ("gnn.train_s", "s"),
    ("gnn.gradients_calls", "count"),
    ("gnn.gradients_s", "s"),
    ("gnn.save_model_s", "s"),
    ("gnn.forward_calls", "count"),
    ("gnn.forward_s", "s"),
    ("gnn.node_features_s", "s"),
    ("gnn.normalized_adjacency_s", "s"),
    ("gnn.load_model_s", "s"),
    ("topology.load_topology_calls", "count"),
    ("topology.load_topology_s", "s"),
    ("topology.build_graph_calls", "count"),
    ("topology.build_graph_s", "s"),
    ("cli.build_parser_s", "s"),
    ("cli.load_levels_s", "s"),
    ("cli.load_flows_s", "s"),
)


class Tracer:
    def __init__(self, modules: dict, deadline_error: type):
        self.modules = modules          # layer name -> module
        self.deadline_error = deadline_error
        self.names = []                 # span name table
        self.name_ids = {}
        self.spans = []                 # [name id, parent span, op, start ns, dur ns, self ns]
        self.stack = []                 # [span index, child ns] of open spans
        self.patches = []               # (module, attribute, original)
        self.ops = 0                    # traced commands so far
        self.counters = {}
        self._keep = []                 # keeps objects alive so id() stays unique per op
        self._distinct_paths = set()
        self._distinct_levels = set()

    # -- installation -----------------------------------------------------

    def install(self, all_modules) -> None:
        wrappers = {}
        for layer, mod in self.modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in all_modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and inspect.isfunction(val):
                    self.patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.patches):
            setattr(mod, attr, original)
        self.patches.clear()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn) if observe else None
        perf = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0]
            self.stack.append(frame)
            start = perf()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dur = perf() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += dur
                self.spans[index] = [nid, parent, self.ops - 1, start, dur, dur - frame[1]]
                if observe is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    observe(list(bound.values()), result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters at layer boundaries ----------------------------------------
    # Observers get the call's arguments in parameter order.

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _observe_commcost_resolve_path(self, args, result, error):
        g, src, dst = args[:3]
        self._keep.append(g)
        self._distinct_paths.add((id(g), src, dst))

    def _observe_parallelism_comm_time(self, args, result, error):
        self._keep.append(args[0])
        self._distinct_levels.add(id(args[0]))

    def _observe_contention_simulate(self, args, result, error):
        if isinstance(error, self.deadline_error):
            self._count("contention.simulate_deadline_hits")
        if error is not None:
            return
        self._count("contention.simulate_events", len(result.events))
        self._count("contention.simulate_completed_flows", len(args[0]))

    # -- operations -------------------------------------------------------

    def begin_op(self) -> None:
        self.ops += 1

    def end_op(self) -> None:
        self._count("commcost.resolve_path_distinct", len(self._distinct_paths))
        self._count("parallelism.levels_evaluated", len(self._distinct_levels))
        self._distinct_paths.clear()
        self._distinct_levels.clear()
        self._keep.clear()

    # -- report -----------------------------------------------------------

    def report(self) -> dict:
        """Per-command values of every metric in METRICS."""
        calls, total, own = {}, {}, {}
        for nid, _, _, _, dur, self_ns in filter(None, self.spans):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + dur
            own[name] = own.get(name, 0) + self_ns
        ops = max(self.ops, 1)
        c = self.counters
        derived = {
            "commcost.resolve_path_distinct": c.get("commcost.resolve_path_distinct", 0) / ops,
            "commcost.resolve_path_repeat_ratio": _ratio(
                calls.get("commcost.resolve_path", 0), c.get("commcost.resolve_path_distinct", 0)),
            "parallelism.comm_time_per_level": _ratio(
                calls.get("parallelism.comm_time", 0), c.get("parallelism.levels_evaluated", 0)),
            "contention.simulate_deadline_hits": c.get("contention.simulate_deadline_hits", 0) / ops,
            "contention.simulate_events": c.get("contention.simulate_events", 0) / ops,
        }
        out = {}
        for metric, _ in METRICS:
            if metric in derived:
                out[metric] = derived[metric]
            elif metric.endswith("_self_s"):
                out[metric] = own.get(metric[:-len("_self_s")], 0) / 1e9 / ops
            elif metric.endswith("_calls"):
                out[metric] = calls.get(metric[:-len("_calls")], 0) / ops
            else:
                out[metric] = total.get(metric[:-len("_s")], 0) / 1e9 / ops
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "ops": self.ops, "counters": self.counters,
                       "span_fields": ["name", "parent", "op", "start_ns", "dur_ns", "self_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0

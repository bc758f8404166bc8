"""Command-line front end.

Subcommands: topo, plan, stagger, price, gnn.  Exit codes are uniform:
0 success, 1 I/O error, 2 domain/validation error.  All randomness flows
from explicit --seed flags, so identical invocations produce identical
bytes.  Set CLUSTERSMITH_NO_COLOR to disable ANSI styling.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import contention, lineformat, parallelism, pricing, topology
from .errors import ClusterError

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2


def _color(text: str, code: str, stream) -> str:
    if os.environ.get("CLUSTERSMITH_NO_COLOR") or not stream.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _ok(text):
    print(_color(text, "32", sys.stdout))


def _err(text):
    print(_color(text, "31", sys.stderr), file=sys.stderr)


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        return lineformat.decode(fh.read())


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Input-file parsers, in the line format of `clustersmith.lineformat`

# level keys taking a number: (key, ParallelLevel field, type)
_LEVEL_NUMBERS = (("window", "window_packets", int),
                  ("pkt", "packet_bytes", int),
                  ("rtt", "rtt_us", float),
                  ("microbatches", "microbatches", int),
                  ("activation", "activation_bytes", float))


def load_levels(text: str) -> list[parallelism.ParallelLevel]:
    """`level <name> strategy=<s> participants=a,b,c payload=<bytes> ...`,
    in the line format of `clustersmith.lineformat`."""
    levels = []
    for line in lineformat.records(text):
        tokens = line.tokens
        if tokens[0] != "level" or len(tokens) < 2:
            raise line.error("expected `level <name> key=value ...`")
        kv = line.fields(2)
        if not {"strategy", "participants", "payload"} <= kv.keys():
            raise line.error("level needs strategy=, participants= and payload=")
        strategy = line.enum(kv, "strategy", parallelism.Strategy, "strategy")
        kwargs = {attr: line.number(kv, key, kind)
                  for key, attr, kind in _LEVEL_NUMBERS if key in kv}
        if "server" in kv:
            kwargs["server"] = kv.pop("server")
        participants = tuple(p for p in kv.pop("participants").split(",") if p)
        payload = line.number(kv, "payload")
        line.no_more(kv, "level")
        levels.append(line.build(
            parallelism.ParallelLevel, name=tokens[1], strategy=strategy,
            participants=participants, payload_bytes=payload, **kwargs))
    return levels


def load_flows(text: str) -> list[contention.Flow]:
    """`flow <id> bytes=<n> [release=<s>] [offset=<s>]`, in the line format
    of `clustersmith.lineformat`."""
    flows = []
    ids = set()
    for line in lineformat.records(text):
        tokens = line.tokens
        if tokens[0] != "flow" or len(tokens) < 3:
            raise line.error("expected `flow <id> bytes=<n> ...`")
        if tokens[1] in ids:
            raise line.error(f"repeated flow id {tokens[1]!r}")
        ids.add(tokens[1])
        kv = line.fields(2)
        if "bytes" not in kv:
            raise line.error("flow needs bytes=")
        flows.append(line.build(
            contention.Flow, id=tokens[1], bytes=line.number(kv, "bytes"),
            release=line.number(kv, "release", default=0.0),
            offset=line.number(kv, "offset", default=0.0)))
        line.no_more(kv, "flow")
    return flows


# ---------------------------------------------------------------------------
# Subcommands


def cmd_topo(args) -> int:
    g = topology.load_topology(_read(args.file))
    if args.action == "validate":
        _ok(f"valid: {len(g.nodes)} nodes, {len(g.links)} links")
        return EXIT_OK
    if args.format == "dot":
        _write_out(topology.export_dot(g), args.out)
    else:
        _write_out(topology.export_topo(g), args.out)
    return EXIT_OK


def cmd_plan(args) -> int:
    g = topology.load_topology(_read(args.topo))
    levels = load_levels(_read(args.levels))
    if not levels:
        raise ClusterError("no levels in levels file")
    matrix = parallelism.build_time_matrix(levels, g)
    winner, total = matrix.winner()
    print(f"selected {winner.name} ({winner.strategy.value}, n={winner.n}): "
          f"{total!r} s total")
    if args.matrix:
        _write_out(matrix.to_csv(), args.matrix)
    if args.json:
        _write_out(json.dumps(matrix.to_json_obj(), indent=2) + "\n", args.json)
    return EXIT_OK


def cmd_stagger(args) -> int:
    flows = load_flows(_read(args.flows))
    if not flows:
        raise ClusterError("no flows in flows file")
    sw = contention.SwitchModel(
        args.upstream, args.upstream if args.cap is None else args.cap)
    naive = contention.simulate(flows, sw)
    offsets = contention.optimize_stagger(flows, sw)
    staggered = contention.simulate(contention.with_offsets(flows, offsets), sw)
    for f in flows:
        print(f"offset {f.id} {offsets[f.id]!r}")
    print(f"naive     makespan={naive.makespan!r} "
          f"mean={naive.mean_completion!r} peak={naive.peak_concurrency}")
    print(f"staggered makespan={staggered.makespan!r} "
          f"mean={staggered.mean_completion!r} peak={staggered.peak_concurrency}")
    if args.events:
        _write_out(contention.events_to_csv(staggered.events), args.events)
    return EXIT_OK


def cmd_price(args) -> int:
    if args.action == "coverage":
        if args.tables:
            cells = pricing.coverage_table_cells()
            worst = 0.0
            for c in cells:
                worst = max(worst, abs(c.delta))
                print(f"{c.table} {c.provider} vs {c.funding_label}: "
                      f"computed {c.computed:.2f} printed {c.printed:.2f}")
            if worst > 0.01 + 1e-9:
                _err(f"mismatch beyond 0.01 (max {worst:.4f})")
                return EXIT_DOMAIN
            _ok(f"{len(cells)} cells within 0.01")
            return EXIT_OK
        if args.funding is None or args.monthly is None:
            raise ClusterError("coverage needs --funding and --monthly "
                               "(or --tables)")
        months = pricing.coverage_months(
            pricing.FundingLevel("funding", args.funding),
            pricing.RentalQuote("quote", args.monthly))
        print(f"{months:.2f}")
        return EXIT_OK
    if args.monthly is None:
        raise ClusterError("breakeven needs --monthly")
    months = pricing.break_even(
        pricing.PurchaseOption(capex=args.capex, monthly_opex=args.opex),
        pricing.RentalQuote("quote", args.monthly))
    print(months)
    return EXIT_OK


def cmd_gnn(args) -> int:
    from . import gnn  # the only command that needs numpy

    if args.action == "train":
        cfg = gnn.TrainConfig(seed=args.seed, epochs=args.epochs,
                              learning_rate=args.learning_rate)
        samples = gnn.generate_dataset(seed=args.seed, count=args.count)
        model = gnn.init_model(seed=args.seed)
        model, history, val_idx = gnn.train(model, samples, cfg)
        mape = gnn.validation_mape(model, samples, val_idx)
        _write_out(gnn.save_model(model), args.out)
        if args.loss_csv:
            lines = ["epoch,train_mse"] + [
                f"{i + 1},{loss!r}" for i, loss in enumerate(history)]
            _write_out("\n".join(lines) + "\n", args.loss_csv)
        print(f"trained on {args.count} samples; validation MAPE {mape:.4f}")
        return EXIT_OK
    if not (args.model and args.topo and args.level):
        raise ClusterError("gnn predict needs --model, --topo, and --level")
    model = gnn.load_model(_read(args.model))
    g = topology.load_topology(_read(args.topo))
    levels = load_levels(_read(args.level))
    if len(levels) != 1:
        raise ClusterError("gnn predict expects exactly one level")
    level = levels[0]
    predicted = gnn.predict_seconds(model, g, level)
    print(f"predicted {predicted!r} s")
    if args.compare:
        analytic = parallelism.total(parallelism.comm_time(level, g), level.name)
        rel = abs(predicted - analytic) / analytic if analytic else float("inf")
        print(f"analytic  {analytic!r} s (relative error {rel:.4f})")
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustersmith",
        description="Cluster topology, communication cost, contention, "
                    "parallelism planning, and rent-vs-buy analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topo", help="validate or export a topology file")
    p.add_argument("action", choices=["validate", "export"])
    p.add_argument("file")
    p.add_argument("--format", choices=["dot", "topo"], default="dot")
    p.add_argument("--out")
    p.set_defaults(func=cmd_topo)

    p = sub.add_parser("plan", help="evaluate parallel levels on a topology")
    p.add_argument("--topo", required=True)
    p.add_argument("--levels", required=True)
    p.add_argument("--matrix", help="write the time matrix CSV here")
    p.add_argument("--json", help="write the time matrix JSON here")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("stagger", help="simulate and stagger switch transfers")
    p.add_argument("--flows", required=True)
    p.add_argument("--upstream", type=float, required=True, help="GB/s")
    p.add_argument("--cap", type=float, help="per-flow cap GB/s "
                   "(default: upstream)")
    p.add_argument("--events", help="write the staggered event log CSV here")
    p.set_defaults(func=cmd_stagger)

    p = sub.add_parser("price", help="coverage ratios and break-even")
    p.add_argument("action", choices=["coverage", "breakeven"])
    p.add_argument("--funding", type=float)
    p.add_argument("--monthly", type=float)
    p.add_argument("--capex", type=float, default=0.0)
    p.add_argument("--opex", type=float, default=0.0)
    p.add_argument("--tables", action="store_true",
                   help="recompute every bundled table cell")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("gnn", help="train or query the learned cost model")
    p.add_argument("action", choices=["train", "predict"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--learning-rate", type=float, default=5e-2)
    p.add_argument("--out", help="model file to write (train)")
    p.add_argument("--loss-csv", help="loss history CSV (train)")
    p.add_argument("--model", help="model file to read (predict)")
    p.add_argument("--topo", help="topology file (predict)")
    p.add_argument("--level", help="single-level file (predict)")
    p.add_argument("--compare", action="store_true",
                   help="also print the analytic time (predict)")
    p.set_defaults(func=cmd_gnn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ClusterError as exc:
        _err(f"error: {exc}")
        return EXIT_DOMAIN
    except OSError as exc:
        _err(f"i/o error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: topo, plan, stagger, price, gnn.  Exit codes are uniform:
0 success, 1 I/O error, 2 domain/validation error.  All randomness flows
from explicit --seed flags, so identical invocations produce identical
bytes.  Set CLUSTERSMITH_NO_COLOR to disable ANSI styling.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from . import contention, lineformat, parallelism, pricing, topology
from .errors import ClusterError, ParseError, ValidationError

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


def _write_out(text, out: str | None) -> None:
    """Write `text`, a string or an iterable of string chunks, to the file
    `out` as UTF-8, or to stdout if `out` is None.

    An existing file is overwritten in place from offset 0 and then cut at
    the end of the new text, also when writing raises, so it never keeps a
    stale tail after new bytes.  It is not truncated first: closing a file
    that was truncated to zero and written again makes ext4 flush it
    (`auto_da_alloc`), which costs far more than the write.  A target that
    is not a regular file, such as /dev/null or a pipe, is not cut.  A
    target that is stdout's own file, such as /dev/stdout, is written
    through stdout, after what was printed before.
    """
    chunks = (text,) if isinstance(text, str) else text
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666) if out else None
    if fd is None or _is_stdout(fd):
        if fd is not None:
            os.close(fd)
        sys.stdout.writelines(chunks)
        return
    # a descriptor opened in mode "w" is not truncated, unlike a path
    with open(fd, "w", encoding="utf-8") as fh:
        try:
            fh.writelines(chunks)
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _is_stdout(fd: int) -> bool:
    """Whether `fd` is open on the file that `sys.stdout` writes to."""
    try:
        return os.path.samestat(os.fstat(fd), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # a stdout with no file, as under capture
        return False


# ---------------------------------------------------------------------------
# Input-file parsers, in the line format of `clustersmith.lineformat`

_FLOW_NUMBERS = (("bytes", float, None), ("release", float, 0.0),
                 ("offset", float, 0.0))


def load_levels(text: str,
                g: topology.TopologyGraph) -> parallelism.TimeMatrix:
    """The `TimeMatrix` on `g` of `level <name> strategy=<s>
    participants=a,b,c payload=<bytes> ...` lines, in the line format of
    `clustersmith.lineformat`.  Each level is built and priced at its line,
    so an error names the first line at fault, at the token of the field at
    fault, else at the line's first."""
    levels, runs, totals = [], [], []
    for line in lineformat.records(text):
        tokens = line.tokens
        if tokens[0] != "level" or len(tokens) < 2:
            raise line.error("expected `level <name> key=value ...`")
        kv = line.fields(2)
        if not {"strategy", "participants", "payload"} <= kv.keys():
            raise line.error("level needs strategy=, participants= and payload=")
        cls = line.enum(kv, "strategy", parallelism.STRATEGIES, "strategy")
        # any key but these is an error; an absent one keeps its default
        values = line.numbers(kv, [(key, kind, None)
                                   for key, kind, _ in cls.keys])
        kwargs = {field: v for (*_, field), v in zip(cls.keys, values)
                  if v is not None}
        names = kv.pop("participants").split(",")
        participants = tuple(p for p in names if p)
        # no name at all is a level without participants, which pricing rejects
        if participants and len(participants) < len(names):
            raise line.error(f"level {tokens[1]!r}: empty participant name",
                             "participants")
        line.no_more(kv, f"{cls.strategy} level")
        try:
            level = cls(tokens[1], participants, **kwargs)
            priced = parallelism.comm_time(level, g)
            totals.append(parallelism.total(priced, level.name))
        except ValidationError as exc:  # at the field's token, else the line's
            raise line.error(str(exc), exc.at and exc.at[1] or 0) from exc
        levels.append(level)
        runs.append(priced)
    return parallelism.TimeMatrix(tuple(levels), tuple(runs), tuple(totals))


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
        try:
            flows.append(contention.Flow(
                tokens[1], *line.numbers(kv, _FLOW_NUMBERS)))
        except ValidationError as exc:
            raise line.error(str(exc)) from exc
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
    matrix = load_levels(_read(args.levels), g)
    if not matrix.levels:
        raise ParseError("no levels in levels file", 1, 1)
    winner, total = matrix.winner()
    print(f"selected {winner.name} ({winner.strategy}, n={winner.n}): "
          f"{total!r} s total")
    if args.matrix:
        _write_out(matrix.csv_chunks(), args.matrix)
    if args.json:
        _write_out(matrix.json_chunks(), args.json)
    return EXIT_OK


def cmd_stagger(args) -> int:
    flows = load_flows(_read(args.flows))
    if not flows:
        raise ParseError("no flows in flows file", 1, 1)
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
            if worst > 0.01:
                _err(f"mismatch beyond 0.01 (max {worst:.4f})")
                return EXIT_DOMAIN
            _ok(f"{len(cells)} cells within 0.01")
            return EXIT_OK
        if args.funding is None or args.monthly is None:
            raise ValidationError("coverage needs --funding and --monthly "
                                  "(or --tables)")
        months = pricing.coverage_months(
            pricing.FundingLevel("funding", args.funding),
            pricing.RentalQuote("quote", args.monthly))
        print(f"{months:.2f}")
        return EXIT_OK
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
    model = gnn.load_model(_read(args.model))
    g = topology.load_topology(_read(args.topo))
    text = _read(args.level)
    matrix = load_levels(text, g)
    if len(matrix.levels) != 1:  # at the second level, or atop an empty file
        message = "gnn predict expects exactly one level"
        lines = lineformat.records(text)
        second = next(lines, None) and next(lines, None)
        raise second.error(message) if second else ParseError(message, 1, 1)
    predicted = gnn.predict_seconds(model, g, matrix.levels[0])
    print(f"predicted {predicted!r} s")
    if args.compare:
        analytic = matrix.row_totals[0]
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
    p.set_defaults(func=cmd_topo)
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("validate", help="check a topology file")
    a.add_argument("file")
    a = actions.add_parser("export", help="write a topology as DOT or .topo")
    a.add_argument("file")
    a.add_argument("--format", choices=["dot", "topo"], default="dot")
    a.add_argument("--out")

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
    p.set_defaults(func=cmd_price)
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("coverage", help="months of rent a funding covers")
    a.add_argument("--funding", type=float)
    a.add_argument("--monthly", type=float)
    a.add_argument("--tables", action="store_true",
                   help="recompute every bundled table cell")
    a = actions.add_parser("breakeven", help="months until buying pays off")
    a.add_argument("--monthly", type=float, required=True)
    a.add_argument("--capex", type=float, default=0.0)
    a.add_argument("--opex", type=float, default=0.0)

    p = sub.add_parser("gnn", help="train or query the learned cost model")
    p.set_defaults(func=cmd_gnn)
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("train", help="train a model on generated graphs")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--count", type=int, default=200)
    a.add_argument("--epochs", type=int, default=500)
    a.add_argument("--learning-rate", type=float, default=5e-2)
    a.add_argument("--out", help="model file to write")
    a.add_argument("--loss-csv", help="loss history CSV")
    a = actions.add_parser("predict", help="predict one level's time")
    a.add_argument("--model", required=True, help="model file to read")
    a.add_argument("--topo", required=True, help="topology file")
    a.add_argument("--level", required=True, help="single-level file")
    a.add_argument("--compare", action="store_true",
                   help="also print the analytic time")
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

#!/usr/bin/env python3
"""Sweep flow counts through the switch simulator and report the benefit of
greedy stagger offsets versus releasing everything at once.

Writes a CSV with naive/staggered mean completion and peak concurrency per
flow count.
"""

import argparse
import csv
import sys

from clustersmith.contention import (Flow, SwitchModel, optimize_stagger,
                                     simulate, with_offsets)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-flows", type=int, default=8)
    parser.add_argument("--bytes", type=float, default=10e9,
                        help="bytes per flow")
    parser.add_argument("--upstream", type=float, default=16.0,
                        help="shared upstream bandwidth, GB/s")
    parser.add_argument("--cap", type=float, default=16.0,
                        help="per-flow downstream cap, GB/s")
    parser.add_argument("--out", default="-", help="output CSV ('-' = stdout)")
    args = parser.parse_args(argv)

    sw = SwitchModel(upstream_bandwidth=args.upstream, per_flow_cap=args.cap)
    out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(out)
    writer.writerow(["n_flows", "naive_mean_s", "staggered_mean_s",
                     "mean_ratio", "naive_peak", "staggered_peak"])
    for n in range(1, args.max_flows + 1):
        flows = [Flow(id=f"f{i}", bytes=args.bytes) for i in range(n)]
        naive = simulate(flows, sw)
        offsets = optimize_stagger(flows, sw)
        staggered = simulate(with_offsets(flows, offsets), sw)
        writer.writerow([n, f"{naive.mean_completion:.6f}",
                         f"{staggered.mean_completion:.6f}",
                         f"{staggered.mean_completion / naive.mean_completion:.6f}",
                         naive.peak_concurrency, staggered.peak_concurrency])
    if out is not sys.stdout:
        out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

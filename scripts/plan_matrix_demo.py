#!/usr/bin/env python3
"""Build the per-phase time matrix for a few candidate parallel levels on a
bundled preset and show which one the planner selects.

Run with no arguments for the 4-GPU NVLink preset, or point --topo at any
topology file.
"""

import argparse

from clustersmith.parallelism import ParallelLevel, Strategy, build_time_matrix
from clustersmith.topology import load_preset, load_topology


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--topo", help="topology file (default: nvlink4 preset)")
    parser.add_argument("--payload", type=float, default=10e9,
                        help="payload bytes per level")
    args = parser.parse_args(argv)

    if args.topo:
        with open(args.topo) as fh:
            graph = load_topology(fh.read())
    else:
        graph = load_preset("nvlink4.topo")

    gpus = tuple(sorted(n.id for n in graph.nodes if n.kind.value == "Gpu"))
    levels = [
        ParallelLevel(name=f"ring{k}", strategy=Strategy.RING_ALLREDUCE,
                      participants=gpus[:k], payload_bytes=args.payload)
        for k in range(2, len(gpus) + 1)
    ]
    matrix = build_time_matrix(levels, graph)
    header = ["level"] + [f"t{k+1}" for k in range(matrix.phase_count)]
    print("  ".join(f"{h:>8}" for h in header) + f"  {'total':>8}")
    for level, row, total in zip(matrix.levels, matrix.entries,
                                 matrix.row_totals):
        cells = "  ".join(f"{v:8.4f}" for v in row)
        print(f"{level.name:>8}  {cells}  {total:8.4f}")
    winner, total = matrix.winner()
    print(f"selected {winner.name} ({total:.4f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

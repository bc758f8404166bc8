#!/usr/bin/env python3
"""Train the communication-time regressor on a seeded synthetic dataset and
report validation error against the analytic cost model.

Equivalent to `clustersmith gnn train` but also prints a short loss-curve
summary, which is handy when tuning the learning rate or epoch budget.
"""

import argparse
import sys

from clustersmith import gnn
from clustersmith.errors import ClusterError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=500)
    parser.add_argument("--learning-rate", type=float, default=5e-2)
    parser.add_argument("--out", default="model.txt")
    args = parser.parse_args(argv)

    try:
        cfg = gnn.TrainConfig(learning_rate=args.learning_rate,
                              epochs=args.epochs, seed=args.seed)
        dataset = gnn.generate_dataset(seed=args.seed, count=args.count)
        model, history, val_idx = gnn.train(gnn.init_model(seed=cfg.seed),
                                            dataset, cfg)
        mape = gnn.validation_mape(model, dataset, val_idx)
    except ClusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with open(args.out, "w") as fh:
        fh.write(gnn.save_model(model))
    step = max(1, len(history) // 10)
    for epoch in range(0, len(history), step):
        print(f"epoch {epoch:4d}  train loss {history[epoch]:.6f}")
    if history:
        print(f"epoch {len(history) - 1:4d}  train loss {history[-1]:.6f}")
    print(f"validation MAPE {mape:.3f} over {len(val_idx)} held-out samples")
    print(f"model written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

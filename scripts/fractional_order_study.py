#!/usr/bin/env python3
"""Robustness study across fractional orders: solve both examples for a list of
alpha values at a fixed grid and report AAE, maximum error, solve time,
iteration count and convergence per run.

Usage: python3 scripts/fractional_order_study.py [--size 16] [--alphas 0.1,0.3,0.5,0.75,1.0]
       [--csv out.csv]
"""

import argparse

from fbbmb.cli import RunConfig, format_csv, format_table, run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=16)
    ap.add_argument("--alphas", default="0.1,0.3,0.5,0.75,1.0")
    ap.add_argument("--csv", default=None, help="also write results to this CSV file")
    args = ap.parse_args()
    alphas = [float(a) for a in args.alphas.split(",")]

    results = []
    for problem in ("example1", "example2"):
        for alpha in alphas:
            results.append(
                run(RunConfig(problem=problem, alpha=alpha, n=args.size, m=args.size))
            )
    print(format_table(results))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(format_csv(results))
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()

"""Tabulate kernel extrema and the logarithmic growth of the height sums.

Usage: python3 scripts/extrema_growth.py [--orders 16,64,256,1024]
"""

import argparse
import math

from torusl1 import coefficient_sum, crossing_check, find_extrema


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--orders", default="16,64,256,1024")
    ap.add_argument("--show-table", type=int, metavar="N",
                    help="also print the full extrema table for one order")
    args = ap.parse_args()
    orders = [int(tok) for tok in args.orders.split(",")]

    sums = coefficient_sum(orders)
    print("N      c_sum       c_sum/lnN   envelope_err   sandwich")
    for N, s, ratio in sums:
        rep = crossing_check(find_extrema(N))
        print(f"{N:<6d} {s:<11.6f} {ratio:<11.6f} {rep.max_product_error:<14.2e}"
              f" {rep.sandwich_ok}")

    ratios = [r for _, _, r in sums if math.isfinite(r)]
    print(f"\nband factor max/min = {max(ratios) / min(ratios):.4f}")

    if args.show_table:
        print(f"\nextrema of order {args.show_table}:")
        table = find_extrema(args.show_table)
        for r in table.rows:
            print(f"  i={r.i:4d}  t={r.t:.10f}  height={r.height:+.6f}  c={r.c:.6f}")


if __name__ == "__main__":
    main()

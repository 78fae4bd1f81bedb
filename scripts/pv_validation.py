#!/usr/bin/env python3
"""Validate the closed-form principal-value integrals against quadrature.

Evaluates both self-energy integrals on both sign branches over a log-spaced
argument grid, compares the closed forms with the contour quadrature
oracle, and prints the worst absolute error per branch.

Usage:
    python scripts/pv_validation.py [--output pv.csv]
"""

import argparse

import numpy as np

from gsesim.io import write_pv_csv
from gsesim.lambpv import pv_closed, pv_quadrature


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None, help="optional CSV path")
    parser.add_argument("--n", type=int, default=40, help="grid size")
    args = parser.parse_args()

    xs = np.geomspace(0.5, 50.0, args.n)
    for branch in ("+", "-"):
        rows = []
        worst_a = worst_b = 0.0
        for x in xs:
            closed = pv_closed(float(x), branch)
            quad = pv_quadrature(float(x), branch)
            err_a = abs(closed.a_value - quad.a_value)
            err_b = abs(closed.b_value - quad.b_value)
            worst_a = max(worst_a, err_a)
            worst_b = max(worst_b, err_b)
            rows.append((float(x), closed.a_value, quad.a_value,
                         closed.b_value, quad.b_value, err_a, err_b))
        print(f"branch {branch}: worst |A err| = {worst_a:.3e}, "
              f"worst |B err| = {worst_b:.3e} over x in [{xs[0]:.2g}, {xs[-1]:.2g}]")
        if args.output:
            path = args.output if branch == "+" else args.output + ".minus"
            write_pv_csv(path, rows)
            print(f"  wrote {path}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Generate the level-repulsion and level-attraction transmission maps.

Sweeps the detuning between the two hybridizing modes at each working
point, writes a |S21| map CSV plus complex-eigenvalue traces, and reports
the coupling splitting 2|J| fitted to the dip branches (repulsion) and the
merged linewidth (attraction).

Usage:
    python scripts/detuning_maps.py --outdir out/
"""

import argparse
import pathlib

import numpy as np

from gsesim.core import FrequencyGrid
from gsesim.fitting import avoided_crossing_splitting, merged_linewidth
from gsesim.io import write_eigen_csv, write_map_csv
from gsesim.nested import FitFormParams, eigen_traces, map_nested_vs_detuning

MHZ = 1e6

POINTS = {
    # coherent working point: Gamma ~ 0, splitting 2J expected
    "repulsion": FitFormParams(
        4.35e9, 4.35e9, 1.15 * MHZ, 1.26e-4 * MHZ,
        1.54 * MHZ, 0.86 * MHZ, 1.01 * MHZ, 3.28e-4 * MHZ,
    ),
    # dissipative working point: J ~ 0, modes merge into one broad dip
    "attraction": FitFormParams(
        4.96e9, 4.96e9, 2.98 * MHZ, 2.78 * MHZ,
        1.84 * MHZ, 1.28 * MHZ, 6.11e-4 * MHZ, 2.89 * MHZ,
    ),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory")
    parser.add_argument("--span-mhz", type=float, default=10.0,
                        help="detuning half-span in MHz")
    parser.add_argument("--columns", type=int, default=81)
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    detunings = np.linspace(-args.span_mhz * MHZ, args.span_mhz * MHZ, args.columns)

    for name, params in POINTS.items():
        grid = FrequencyGrid(params.f_o - 4 * args.span_mhz * MHZ,
                             params.f_o + 4 * args.span_mhz * MHZ, 4001)
        columns = map_nested_vs_detuning(params, params.f_o + detunings, grid)
        # label columns by detuning rather than absolute outer frequency
        columns = [(d, s) for d, (_, s) in zip(detunings, columns)]
        map_path = outdir / f"{name}_map.csv"
        write_map_csv(map_path, columns)

        eigs, _ = eigen_traces(params, params.f_o + detunings)
        write_eigen_csv(outdir / f"{name}_eigen.csv", detunings, eigs)

        mag = np.array([np.abs(s.s21) for _, s in columns])
        print(f"{name}: wrote {map_path}")
        if name == "repulsion":
            split = avoided_crossing_splitting(detunings, grid.frequencies, mag)
            print(f"  2|J| from a hyperbola fit of the dip branches {split / MHZ:.3f} MHz "
                  f"(model 2J = {2 * params.j / MHZ:.3f} MHz)")
        else:
            width = merged_linewidth(grid.frequencies, mag[args.columns // 2])
            total = params.kappa_i_g + params.kappa_o_g + params.beta_i + params.beta_o
            print(f"  merged linewidth at zero detuning {width / MHZ:.3f} MHz "
                  f"(total rate sum = {total / MHZ:.3f} MHz)")


if __name__ == "__main__":
    main()

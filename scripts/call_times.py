#!/usr/bin/env python3
"""Per-call times of the N-emitter engine, cold and warm, as JSON.

Each call is `s_matrix` under one convention, or `build_effective`, on a
seeded layout of N = 2, 8 or 32 emitters with four interleaved coupling
points each, plus `s_matrix` under 'probe' at N = 64 with eight points each
on 501 points, the largest case of the multipoint-scatter benchmark. For
every call the script reports:

- cold_ms: the median over the repeats of the call timed right after a
  fixed loop of interpreter bytecode, small numpy ufuncs and small LAPACK
  solves, which leaves the caches as other work between calls does;
- warm_ms: the median of the same call timed again straight after;
- peak_mib: the traced peak (tracemalloc) of one call.

Compare two trees by running the script with each tree's src on
PYTHONPATH, BLAS on one thread and pinned to one CPU, for example

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src taskset -c 1 python scripts/call_times.py --repeats 15

Usage:
    python scripts/call_times.py [--repeats R] [--points NF] [--output FILE]
"""

import argparse
import json
import statistics
import sys
import time
import tracemalloc
import warnings

import numpy as np

from gsesim.core import Emitter, FrequencyGrid, Topology, Waveguide
from gsesim.multipoint import build_effective, s_matrix

SIZES = (2, 8, 32)
POINTS_PER_EMITTER = 4
CONVENTIONS = ("resonance", "mixed", "probe")
LARGE_PROBE = (64, 8, 501)  # emitters, points per emitter, grid points


def layout(rng, n, m):
    """n emitters with m points each, interleaved at random within 0.3 m."""
    positions = np.sort(rng.uniform(0.0, 0.3, n * m))
    owner = rng.permutation(n * m).reshape(n, m)
    return Topology(tuple(
        Emitter(f"e{j}", rng.uniform(4.33e9, 4.37e9), rng.uniform(3e5, 1.5e6),
                tuple(rng.uniform(1e5, 6e5, m)), tuple(positions[np.sort(owner[j])]))
        for j in range(n)
    ))


def calls(points):
    """(name, zero-argument call) for every case."""
    wg = Waveguide(3.26e7)
    grid = FrequencyGrid(4.3e9, 4.4e9, points)
    out = []
    for n in SIZES:
        t = layout(np.random.default_rng([6, n]), n, POINTS_PER_EMITTER)
        for convention in CONVENTIONS:
            out.append((f"{convention}_n{n}", lambda t=t, c=convention: s_matrix(t, wg, grid, convention=c)))
        out.append((f"build_effective_n{n}", lambda t=t: build_effective(t, wg)))
    n, m, nf = LARGE_PROBE
    t, large = layout(np.random.default_rng([6, n]), n, m), FrequencyGrid(4.3e9, 4.4e9, nf)
    out.append((f"probe_n{n}_m{m}", lambda: s_matrix(t, wg, large, convention="probe")))
    return out


def busy_loop():
    """Fixed work between calls: bytecode, small ufuncs and 24 x 24 solves."""
    total = 0
    for i in range(400_000):
        total += i * i
    x = np.linspace(0.0, 1.0, 4000)
    m = np.eye(24) + 0.01 * np.outer(x[:24], x[::-1][:24])
    for _ in range(160):
        x = np.sin(x) + np.cos(x)
        np.linalg.solve(m, x[:24])
    return total


def timed(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(points, repeats):
    cases = calls(points)
    cold = {name: [] for name, _ in cases}
    warm = {name: [] for name, _ in cases}
    for name, call in cases:  # one untimed call each: imports and first-touch costs
        call()
    for _ in range(repeats):
        for name, call in cases:
            busy_loop()
            cold[name].append(timed(call))
            warm[name].append(timed(call))
    return {
        name: {
            "cold_ms": round(1e3 * statistics.median(cold[name]), 4),
            "warm_ms": round(1e3 * statistics.median(warm[name]), 4),
            "peak_mib": round(traced_peak(call) / 2**20, 3),
        }
        for name, call in cases
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--points", type=int, default=2001, help="grid points of every case but probe_n64_m8")
    parser.add_argument("--output", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.points < 2:
        parser.error("--repeats must be >= 1 and --points >= 2")
    with warnings.catch_warnings():
        # the lossy layouts are not passive under 'resonance' and 'mixed'
        warnings.simplefilter("ignore")
        results = measure(args.points, args.repeats)
    report = {"points": args.points, "repeats": args.repeats, "numpy": np.__version__, "calls": results}
    text = json.dumps(report, indent=1)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

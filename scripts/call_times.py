#!/usr/bin/env python3
"""Per-call times of the N-emitter engine, cold and warm, as JSON.

Each call is `s_matrix` under one convention, or `build_effective`, on a
seeded layout of N = 2, 8 or 32 emitters with four interleaved coupling
points each; `s_matrix` under 'probe' at N = _MAX_ELIMINATION_N of
gsesim.multipoint (4), the largest N whose blocks are laid out along the
frequencies, with this tree's N for both trees under --against; and
`s_matrix` under 'probe' at N = 64 with eight points each on 501 points,
the largest case of the multipoint-scatter benchmark. For every call the
script reports:

- cold_ms: the median over the repeats of the call timed right after a
  fixed loop of interpreter bytecode, small numpy ufuncs and small LAPACK
  solves, which leaves the caches as other work between calls does;
- warm_ms: the median of the same call timed again straight after;
- peak_mib: the traced peak (tracemalloc) of one call.

With --against TREE the script also imports TREE/src/gsesim, under the
package name gsesim_against, and times every call of both trees in one
process, alternating between them call by call (which tree goes first
alternates from repeat to repeat). Each call then reports both trees'
figures, under "this" and "against", the change (the median over the
repeats of this tree's time over the other's in the same repeat, minus 1)
and in how many repeats this tree's cold and warm times were the lower.
Run one after the other in two processes, the trees see different host
speeds on a shared machine; alternating in one process, and compared
repeat by repeat, they see the same. For example, from the root of one
tree:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src taskset -c 1 python scripts/call_times.py --repeats 21 --against ../parent

Usage:
    python scripts/call_times.py [--repeats R] [--points NF] [--against TREE] [--output FILE]
"""

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
import tracemalloc
import warnings

import numpy as np

import gsesim.multipoint

SIZES = (2, 8, 32)
POINTS_PER_EMITTER = 4
CONVENTIONS = ("resonance", "mixed", "probe")
LARGE_PROBE = (64, 8, 501)  # emitters, points per emitter, grid points


def layout(rng, n, m, core):
    """n emitters with m points each, interleaved at random within 0.3 m, as
    a Topology of the module `core`."""
    positions = np.sort(rng.uniform(0.0, 0.3, n * m))
    owner = rng.permutation(n * m).reshape(n, m)
    return core.Topology(tuple(
        core.Emitter(f"e{j}", rng.uniform(4.33e9, 4.37e9), rng.uniform(3e5, 1.5e6),
                     tuple(rng.uniform(1e5, 6e5, m)), tuple(positions[np.sort(owner[j])]))
        for j in range(n)
    ))


def calls(points, package):
    """(name, zero-argument call) for every case, on the modules of `package`."""
    core, mp = package.core, package.multipoint
    wg = core.Waveguide(3.26e7)
    grid = core.FrequencyGrid(4.3e9, 4.4e9, points)

    def probe(t, g=grid):
        return lambda: mp.s_matrix(t, wg, g, convention="probe")

    out = []
    for n in SIZES:
        t = layout(np.random.default_rng([6, n]), n, POINTS_PER_EMITTER, core)
        for convention in CONVENTIONS:
            out.append((f"{convention}_n{n}", lambda t=t, c=convention: mp.s_matrix(t, wg, grid, convention=c)))
        out.append((f"build_effective_n{n}", lambda t=t: mp.build_effective(t, wg)))
    n = gsesim.multipoint._MAX_ELIMINATION_N  # emitters: 'probe' blocks leave the frequency axis above this N
    out.append((f"probe_n{n}", probe(layout(np.random.default_rng([6, n]), n, POINTS_PER_EMITTER, core))))
    n, m, nf = LARGE_PROBE
    out.append((f"probe_n{n}_m{m}", probe(layout(np.random.default_rng([6, n]), n, m, core),
                                            core.FrequencyGrid(4.3e9, 4.4e9, nf))))
    return out


def import_tree(root, name="gsesim_against"):
    """root/src/gsesim imported as the package `name`, with its model modules loaded."""
    path = os.path.join(root, "src", "gsesim")
    spec = importlib.util.spec_from_file_location(name, os.path.join(path, "__init__.py"),
                                                  submodule_search_locations=[path])
    if spec is None or not os.path.isfile(spec.origin):
        raise FileNotFoundError(f"no gsesim package under {os.path.join(root, 'src')}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("core", "multipoint"):
        importlib.import_module(f"{name}.{module}")
    return package


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


def summary(cold, warm, call):
    return {
        "cold_ms": round(1e3 * statistics.median(cold), 4),
        "warm_ms": round(1e3 * statistics.median(warm), 4),
        "peak_mib": round(traced_peak(call) / 2**20, 3),
    }


def measure(trees, points, repeats):
    """Cold and warm times of every case of each package in trees, the
    trees alternating call by call; returns {name: [summary per tree]}."""
    cases = [calls(points, package) for package in trees]
    names = [name for name, _ in cases[0]]
    times = [{name: ([], []) for name in names} for _ in trees]
    for tree in cases:  # one untimed call each: imports and first-touch costs
        for _, call in tree:
            call()
    for r in range(repeats):
        order = [(k + r) % len(trees) for k in range(len(trees))]  # who goes first alternates
        for i, name in enumerate(names):
            for k in order:
                call = cases[k][i][1]
                busy_loop()
                cold, warm = times[k][name]
                cold.append(timed(call))
                warm.append(timed(call))
    return {name: [summary(*times[k][name], cases[k][i][1]) for k in range(len(trees))]
            for i, name in enumerate(names)}, times


def compare(results, times):
    """Per call: both trees' summaries, the median over the repeats of this
    tree's time over the other's in the same repeat, minus 1, and the
    repeats in which this tree was the faster."""
    this, against = times
    out = {}
    for name, (mine, theirs) in results.items():
        entry = {"this": mine, "against": theirs}
        for k, kind in enumerate(("cold", "warm")):
            pairs = list(zip(this[name][k], against[name][k]))
            entry[f"{kind}_change"] = round(statistics.median(a / b for a, b in pairs) - 1.0, 4)
            entry[f"{kind}_wins"] = sum(a < b for a, b in pairs)
        out[name] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--points", type=int, default=2001, help="grid points of every case but probe_n64_m8")
    parser.add_argument("--against", metavar="TREE", help="root of a second tree to alternate with, call by call")
    parser.add_argument("--output", help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.points < 2:
        parser.error("--repeats must be >= 1 and --points >= 2")
    trees = [gsesim]
    if args.against:
        try:
            trees.append(import_tree(args.against))
        except (FileNotFoundError, ImportError) as exc:
            parser.error(f"--against: {exc}")
    with warnings.catch_warnings():
        # the lossy layouts are not passive under 'resonance' and 'mixed'
        warnings.simplefilter("ignore")
        results, times = measure(trees, args.points, args.repeats)
    report = {"points": args.points, "repeats": args.repeats, "numpy": np.__version__}
    if args.against:
        report["against"] = os.path.abspath(args.against)
        report["calls"] = compare(results, times)
    else:
        report["calls"] = {name: summaries[0] for name, summaries in results.items()}
    text = json.dumps(report, indent=1)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Worker process: one workload's set-up and timed passes, spawned by run.py.

    python3 perfbench/worker.py MODE WORKLOAD --seed N --workdir DIR --out FILE
        [--passes N] [--deadline T]

MODE is `setup` (set up, report when ready, exit), `run` (set up, then
time `--passes` whole passes), `coverage` (one pass with every probe
installed, set-up included) or `overhead` (passes alternating untraced
and traced). For cli-pipeline only `setup` applies: it writes the configs
and the session plan. The result is JSON in FILE; `ready` is the
CLOCK_MONOTONIC time at which set-up finished, which run.py compares with
the time it spawned the process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
MODULES = {"multipoint-scatter": "multipoint_scatter", "fit-extract": "fit_extract"}


def _run_task(task, tr, calibrator):
    name, points, run, check, fits = task
    if tr is not None:
        tr.task = name
    start = time.perf_counter()
    try:
        result, failures = run(), []
    except Exception as exc:  # a failed task is counted, not fatal
        result, failures = None, [f"{name}: {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    calibration = calibrator.after()
    if result is not None:
        failures = [f"{name}: {msg}" for msg in check(result)]
    return {"task": name, "seconds": seconds, "points": points, "calibration": calibration,
            "failures": failures}, result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "coverage", "overhead"))
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--deadline", type=float, default=float("inf"))
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    if args.workload == "cli-pipeline":
        import cli_pipeline

        plan = cli_pipeline.write_inputs(args.workdir, args.seed, args.threads)
        ready = time.monotonic()
        calibration = speed.reading()
        with open(os.path.join(args.workdir, "plan.json"), "w") as fh:
            json.dump(plan, fh)
        with open(args.out, "w") as fh:
            json.dump({"ready": ready, "ready_calibration": calibration}, fh)
        return 0

    tracer.import_gsesim(ROOT / "src")
    module = importlib.import_module(MODULES[args.workload])
    tr = tracer.Tracer() if args.mode in ("coverage", "overhead") else None
    if args.mode == "coverage":
        tr.install()
    tasks = module.setup(args.seed, args.workdir)
    ready = time.monotonic()
    calibrator = speed.Calibrator()
    out = {"ready": ready, "ready_calibration": calibrator.last, "samples": [],
           "recovered": 0, "attempted_fits": 0}
    if args.mode != "setup":
        passes = 1 if args.mode == "coverage" else args.passes
        first = {}
        for p in range(passes):
            if p and time.monotonic() > args.deadline:
                break
            traced = args.mode == "coverage" or (args.mode == "overhead" and p % 2 == 1)
            if args.mode == "overhead":
                tr.install() if traced else tr.uninstall()
            for task in tasks:
                sample, result = _run_task(task, tr if traced else None, calibrator)
                sample["traced"] = traced
                if result is not None:
                    fingerprint = module.fingerprint(result)
                    if first.setdefault(sample["task"], fingerprint) != fingerprint:
                        sample["failures"].append(f"{sample['task']}: output differs from the first pass")
                    fits = task[4]
                    if fits is not None and args.mode == "coverage":
                        outcomes = fits(result)
                        out["recovered"] += sum(bool(ok) for _, ok in outcomes)
                        out["attempted_fits"] += len(outcomes)
                out["samples"].append(sample)
        if tr is not None:
            tr.uninstall()
            out["trace"] = [tr.export()]
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""gsesim benchmark: three seeded workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads: cli-pipeline (cold CLI processes), multipoint-scatter
(in-process `s_matrix`) and fit-extract (in-process fitting and CSV
reads); see perfbench/README.md. With --trace 0 a run times whole passes
of the workload and prints the end-to-end metrics; with --trace 1 it runs
one traced pass of every workload, which yields the per-module metrics,
and measures the tracing overhead on the named workload. `all` does both
for every workload. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

The number of passes is round(S / nominal pass time), at least one, so a
parent and a change measure the same work; a run stops starting passes
after 3 * S seconds so that a slow change still finishes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy loads, here and in every child
sys.path.insert(0, str(HERE))

import cli_pipeline  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

# nominal seconds of one pass on the reference machine (README.md)
NOMINAL_PASS_S = {"cli-pipeline": 15.0, "multipoint-scatter": 7.0, "fit-extract": 0.9}
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
THREADS = os.cpu_count() or 1  # --threads for map and pv-check

E2E_UNITS = {
    "setup_s": "s", "task_p50_s": "s", "task_tail_s": "s",
    "points_per_s": "1/s", "peak_rss_mb": "MB",
}

# per-module metric, unit, and the end-to-end metric and workload it should move
PER_LAYER = [
    ("cli.interp_s", "s", "nothing: a bare interpreter start, the control"),
    ("cli.import_s", "s", "task_p50_s on cli-pipeline, setup_s on multipoint-scatter; not fit-extract"),
    *[(f"cli.{c}_s", "s", "task_p50_s on cli-pipeline") for c in (
        "simulate-single", "simulate-nested", "synth", "fit", "fit-geometry",
        "simulate-general", "map-detuning", "map-field", "anisotropy", "pv-check")],
    ("io.write_s", "s", "task_p50_s on cli-pipeline, setup_s on fit-extract"),
    ("io.write_bytes", "bytes", "task_p50_s on cli-pipeline, setup_s on fit-extract"),
    ("io.manifest_s", "s", "task_p50_s on cli-pipeline"),
    ("io.hashed_bytes", "bytes", "task_p50_s on cli-pipeline"),
    ("io.config_s", "s", "task_p50_s on cli-pipeline"),
    ("io.read_s", "s", "task_p50_s on fit-extract"),
    ("io.read_bytes", "bytes", "task_p50_s on fit-extract"),
    ("single.s21_s", "s", "task_p50_s on cli-pipeline"),
    ("nested.map_s", "s", "task_p50_s on cli-pipeline"),
    ("nested.map_points", "count", "task_p50_s on cli-pipeline"),
    ("nested.eigen_s", "s", "task_p50_s on cli-pipeline and fit-extract"),
    ("nested.eigen_points", "count", "task_p50_s on cli-pipeline and fit-extract"),
    ("nested.s21_matrix_s", "s", "task_p50_s on cli-pipeline"),
    ("multipoint.s_matrix_resonance_s", "s", "task_p50_s, points_per_s on multipoint-scatter"),
    ("multipoint.s_matrix_mixed_s", "s", "task_p50_s, points_per_s on multipoint-scatter"),
    ("multipoint.s_matrix_probe_s", "s", "task_p50_s, points_per_s, peak_rss_mb on multipoint-scatter"),
    ("multipoint.build_effective_s", "s", "task_p50_s on multipoint-scatter"),
    ("multipoint.pair_sums_calls", "count", "task_p50_s, points_per_s on multipoint-scatter"),
    ("multipoint.emitter_points", "count", "points_per_s on multipoint-scatter"),
    ("lambpv.quadrature_s", "s", "task_p50_s on cli-pipeline"),
    ("lambpv.quadrature_calls", "count", "task_p50_s on cli-pipeline"),
    ("lambpv.closed_s", "s", "task_p50_s on cli-pipeline"),
    ("anisotropy.sweep_s", "s", "task_p50_s on cli-pipeline (expected flat)"),
    ("fitting.fit_s", "s", "task_p50_s on fit-extract"),
    ("fitting.nfev", "count", "task_p50_s on fit-extract"),
    ("fitting.converged_ratio", "ratio", "task_p50_s on fit-extract"),
    ("fitting.geometry_s", "s", "task_p50_s on fit-extract"),
    ("fitting.decay_curve_s", "s", "task_p50_s on fit-extract"),
    ("fitting.crossing_s", "s", "task_p50_s on fit-extract"),
    ("core.topology_s", "s", "setup_s on multipoint-scatter"),
    ("trace.overhead_s", "s", "nothing: traced minus untraced task_p50_s on the named workload"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed task)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, cwd, log):
    """Run argv to completion; returns (exit code, wall seconds, peak RSS in KiB, spawn time)."""
    with open(log, "w") as out:
        spawned = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss, spawned


def _tail(log):
    with open(log, errors="replace") as fh:
        return fh.read()[-2000:]


def run_worker(mode, workload, seed, workdir, passes=1, deadline=float("inf")):
    """Spawn worker.py; returns (result, (set-up seconds, calibration), peak RSS in KiB)."""
    before = speed.reading()
    out = workdir / f"worker-{mode}.json"
    log = workdir / f"worker-{mode}.log"
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, "--seed", str(seed),
            "--workdir", str(workdir), "--out", str(out), "--passes", str(passes),
            "--deadline", repr(deadline), "--threads", str(THREADS)]
    code, _, peak, spawned = spawn(argv, workdir, log)
    if code != 0:
        raise BenchError(f"{workload} worker ({mode}) exited with {code}:\n{_tail(log)}")
    with open(out) as fh:
        result = json.load(fh)
    return result, (result["ready"] - spawned, 0.5 * (before + result["ready_calibration"])), peak


def passes_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


# ---------------------------------------------------------------- cli-pipeline

def cli_setup(seed, workdir):
    """Set up SETUP_REPEATS times; returns (plan, set-up seconds)."""
    times = [run_worker("setup", "cli-pipeline", seed, workdir)[1] for _ in range(SETUP_REPEATS)]
    with open(workdir / "plan.json") as fh:
        return json.load(fh), times


def cli_session(plan, workdir, traced, first_hashes):
    """Run every command of the plan once; returns (samples, peak KiB, exports).

    `first_hashes` maps each output to its sha256 in the first session; a
    later session that writes other bytes fails the command.
    """
    samples, exports, peak = [], [], 0
    calibrator = speed.Calibrator()
    for i, command in enumerate(plan):
        if traced:
            spans = workdir / f"spans-{i}.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), command["label"], "--"]
        else:
            argv = [sys.executable, "-m", "gsesim.cli"]
        log = workdir / f"cmd-{i}.log"
        code, seconds, rss, _ = spawn(argv + command["argv"], workdir, log)
        calibration = calibrator.after()
        peak = max(peak, rss)
        failures = cli_pipeline.check_command(str(workdir), command, code)
        if code == 0:
            produced = cli_pipeline.output_hashes(str(workdir), command)
            for rel, digest in produced.items():
                if first_hashes.setdefault(rel, digest) != digest:
                    failures.append(f"{command['label']}: {rel} differs from the first session")
            if traced:
                exports += tracer.load(spans)
        else:
            failures.append(_tail(log))
        samples.append({"task": command["label"], "seconds": seconds, "points": command["points"],
                        "calibration": calibration, "failures": failures, "traced": traced})
    return samples, peak, exports


def measure_cli(seed, seconds, workdir, mode="run"):
    plan, setups = cli_setup(seed, workdir)
    deadline = time.monotonic() + 3 * seconds
    samples, peak, first_hashes = [], 0, {}
    for p in range(passes_for("cli-pipeline", seconds)):
        if p and time.monotonic() > deadline:
            break
        traced = mode == "overhead" and p % 2 == 1
        s, rss, _ = cli_session(plan, workdir, traced, first_hashes)
        samples += s
        peak = max(peak, rss)
    digest = cli_pipeline.combined_digest(first_hashes)
    return samples, setups, peak, {"output digest": digest}


# ---------------------------------------------------------------- in-process

def measure_inprocess(workload, seed, seconds, workdir, mode="run"):
    setups = [run_worker("setup", workload, seed, workdir)[1] for _ in range(SETUP_REPEATS - 1)]
    result, setup, peak = run_worker(mode, workload, seed, workdir, passes_for(workload, seconds),
                                     time.monotonic() + 3 * seconds)
    return result["samples"], setups + [setup], peak, {}


def measure(workload, seed, seconds, workdir, mode="run"):
    """Timed passes; returns (samples, set-up seconds, peak RSS KiB, extra info)."""
    if workload == "cli-pipeline":
        return measure_cli(seed, seconds, workdir, mode)
    return measure_inprocess(workload, seed, seconds, workdir, mode)


# ---------------------------------------------------------------- metrics

def tail(values):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(samples, setups, peak_kib):
    """Metrics from timed samples and (seconds, calibration) set-ups, at reference speed."""
    times = [speed.scaled(s["seconds"], s["calibration"]) for s in samples]
    value, pct = tail(times)
    metrics = {
        "setup_s": statistics.median(speed.scaled(t, c) for t, c in setups),
        "task_p50_s": statistics.median(times),
        "task_tail_s": value,
        "points_per_s": sum(s["points"] for s in samples) / sum(times),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    raw = [s["seconds"] for s in samples]
    info = {
        "samples": len(times), "tail percentile": round(pct, 1), "setup repeats": len(setups),
        "raw wall seconds (setup, p50, tail)": [
            round(statistics.median(t for t, _ in setups), 6), round(statistics.median(raw), 6),
            round(tail(raw)[0], 6)],
    }
    return metrics, info


def coverage(seed, workdir):
    """One traced pass (set-up included) of every workload; returns exports, samples, fit counts."""
    exports, samples, recovered, attempted = [], [], 0, 0
    plan, _ = cli_setup(seed, workdir)
    s, _, exp = cli_session(plan, workdir, True, {})
    samples += s
    exports += exp
    for command, sample in zip(plan, s):
        if "fit_report" in command:
            attempted += 1
            recovered += not sample["failures"]
    for workload in ("multipoint-scatter", "fit-extract"):
        result, _, _ = run_worker("coverage", workload, seed, workdir)
        samples += result["samples"]
        exports += result["trace"]
        recovered += result["recovered"]
        attempted += result["attempted_fits"]
    return exports, samples, recovered, attempted


def interpreter_and_import(workdir):
    def median_wall(code):
        return statistics.median(
            spawn([sys.executable, "-c", code], workdir, workdir / "import.log")[1]
            for _ in range(IMPORT_REPEATS))

    interp = median_wall("pass")
    return interp, median_wall("import gsesim.cli") - interp


def per_layer(workload, seed, seconds, workdir):
    interp, imported = interpreter_and_import(workdir)
    exports, samples, recovered, attempted = coverage(seed, workdir)
    over, _, _, _ = measure(workload, seed, seconds, workdir, mode="overhead")
    traced = [speed.scaled(s["seconds"], s["calibration"]) for s in over if s["traced"]]
    untraced = [speed.scaled(s["seconds"], s["calibration"]) for s in over if not s["traced"]]
    overhead = statistics.median(traced) - statistics.median(untraced) if traced else 0.0

    seconds_by_span, counts = tracer.totals(exports)
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if unit == "s":
            metrics[name] = seconds_by_span.get(name[:-2], 0.0)
        else:
            metrics[name] = float(counts.get(name, 0))
    metrics["cli.interp_s"] = interp
    metrics["cli.import_s"] = imported
    metrics["fitting.converged_ratio"] = recovered / attempted
    # span totals cover many tasks, so they take the run's median speed
    scale = speed.factor([s["calibration"] for s in samples + over])
    for name, unit, _ in PER_LAYER:
        if unit == "s":
            metrics[name] *= scale
    metrics["trace.overhead_s"] = overhead
    info = {
        "speed factor": round(scale, 4),
        "overhead samples (untraced/traced)": f"{len(untraced)}/{len(traced)}",
        "self seconds (unscaled)": {k: round(v, 4) for k, v in sorted(tracer.self_times(exports).items())},
    }
    return metrics, samples + over, info


# ---------------------------------------------------------------- reporting

def machine_record():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS, "cli_threads": THREADS,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
    }


def report(title, metrics, units, info):
    print(f"== {title}")
    for name, value in metrics.items():
        print(f"   {name:34s} {value:14.6g} {units[name]}")
    for key, value in info.items():
        print(f"   [{key}] {value}")


def run_one(workload, seed, seconds, trace, workdir):
    """Returns (metrics with units, attempted, failures)."""
    if trace:
        metrics, samples, info = per_layer(workload, seed, seconds, workdir)
        report(f"{workload} traced (seed {seed}): per-module metrics", metrics, PER_LAYER_UNITS, info)
        units = PER_LAYER_UNITS
    else:
        samples, setups, peak, extra = measure(workload, seed, seconds, workdir)
        metrics, info = end_to_end(samples, setups, peak)
        failed = sum(bool(s["failures"]) for s in samples)
        info.update(extra, fail_ratio=f"{failed / len(samples):.6g} ({failed}/{len(samples)})")
        report(f"{workload} (seed {seed}): end-to-end metrics", metrics, E2E_UNITS, info)
        units = E2E_UNITS
    failed = 0
    for sample in samples:
        failed += bool(sample["failures"])
        for message in sample["failures"]:
            print(f"   FAILED {message}", file=sys.stderr)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, len(samples), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*NOMINAL_PASS_S, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gsesim" / "__init__.py").is_file():
        print(f"gsesim sources not found under {SRC}", file=sys.stderr)
        return 2
    # one CPU for the harness and every child, so the calibration loop runs
    # on the CPU whose speed it measures (speed.py)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "gsesim"), str(HERE)],
                   check=True, env=child_env())
    print(f"machine: {json.dumps(machine_record())}")

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "all":
            results, attempted, failed = {}, 0, 0
            for workload in NOMINAL_PASS_S:
                for trace in (0, 1):
                    metrics, a, f = run_one(workload, args.seed, args.seconds, trace, workdir)
                    results.update({f"{workload}.{k}": v for k, v in metrics.items()})
                    attempted += a
                    failed += f
        else:
            results, attempted, failed = run_one(args.workload, args.seed, args.seconds, args.trace, workdir)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

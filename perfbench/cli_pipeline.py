"""cli-pipeline: a device-study session of cold `gsesim` CLI processes.

`write_inputs` turns a seed into the session's JSON configs and command
lines; `check_command` verifies one command's outputs using only the
standard library, so the checks do not trust the code they check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

SPEED = 3.26e7
N_POINTS = 2001
HALF_SPAN = 20e6
MAP_DETUNINGS = 81
MAP_FIELDS = 41
ANGLES = 181
PV_POINTS = 40
GAMMA_2PI = 28.0e9

# relative tolerance on fitted rates, on the geometry fit's length, and the
# bound on |closed - quadrature| for the self-energy integrals
FIT_RATE_RTOL = 0.02
FIT_FRES_LINEWIDTHS = 0.02
GEOMETRY_LENGTH_RTOL = 1e-3
PV_WORST_BOUND = 1e-8

_HEADERS = {
    "spectrum": ["frequency_hz", "s21_re", "s21_im", "s21_mag", "s21_db"],
    "map": ["sweep_value", "frequency_hz", "s21_mag", "s21_db"],
    "eigen": ["sweep_value", "re1_hz", "im1_hz", "re2_hz", "im2_hz"],
    "anisotropy": ["theta_rad", "frequency_hz"],
    "pv": ["x", "a_closed", "a_quad", "b_closed", "b_quad", "abs_err_a", "abs_err_b"],
}


def hz(x):
    return f"{float(x)!r}Hz"


def _config(emitters, f_center, speed=SPEED):
    return {
        "waveguide": {"speed_mps": speed},
        "emitters": emitters,
        "probe": {
            "f_start_hz": f_center - HALF_SPAN,
            "f_stop_hz": f_center + HALF_SPAN,
            "n_points": N_POINTS,
        },
    }


def _emitter(name, f_res, beta, kappas, positions):
    return {
        "name": name, "f_res_hz": float(f_res), "beta_hz": float(beta),
        "points": [{"position_m": float(x), "kappa_hz": float(k)} for x, k in zip(positions, kappas)],
    }


def _single_device(rng):
    """Two-point emitter whose dip stays visible at three resonances."""
    kappa = rng.uniform(0.6e6, 0.9e6)
    beta = rng.uniform(1.2e6, 1.8e6)
    spacing = 0.25e9
    while True:
        length = rng.uniform(0.075, 0.09)
        f0 = rng.uniform(4.2e9, 4.3e9)
        resonances = [f0 + k * spacing for k in range(3)]
        phis = [2 * math.pi * f * length / SPEED for f in resonances]
        if all(math.cos(p) > -0.5 for p in phis):
            return kappa, beta, length, resonances, phis


def write_inputs(workdir, seed, threads):
    """Write the seeded configs into `workdir` and return the session plan.

    Every path in the plan is relative to `workdir`, where the commands
    run, so outputs and manifests do not depend on the checkout location.
    """
    rng = np.random.default_rng([seed, 1])
    kappa, beta, length, resonances, phis = _single_device(rng)
    configs = {}
    for k, f_res in enumerate(resonances):
        configs[f"single{k}.json"] = _config(
            [_emitter("gse", f_res, beta, (kappa, kappa), (0.0, length))], f_res)

    k_i, k_o = rng.uniform(0.6e6, 0.9e6, 2)
    l_i = rng.uniform(0.07, 0.09)
    l_o = 2 * l_i + rng.uniform(-0.005, 0.005)
    f_n = rng.uniform(4.3e9, 4.4e9)
    gap = 0.5 * (l_o - l_i)
    configs["nested.json"] = _config([
        _emitter("outer", f_n, rng.uniform(1.2e6, 1.6e6), (k_o, k_o), (0.0, l_o)),
        _emitter("inner", f_n, rng.uniform(1.4e6, 1.8e6), (k_i, k_i), (gap, gap + l_i)),
    ], f_n)

    a0, b0 = 0.0, rng.uniform(0.04, 0.06)
    a1, b1 = rng.uniform(0.09, 0.11), rng.uniform(0.14, 0.16)
    f_g = rng.uniform(4.3e9, 4.4e9)
    configs["braided.json"] = _config([
        _emitter("a", f_g + rng.uniform(-2e6, 2e6), rng.uniform(0.5e6, 1e6), rng.uniform(3e5, 8e5, 2), (a0, a1)),
        _emitter("b", f_g + rng.uniform(-2e6, 2e6), rng.uniform(0.5e6, 1e6), rng.uniform(3e5, 8e5, 2), (b0, b1)),
    ], f_g)

    for name, doc in configs.items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(doc, fh, indent=1)

    f_i = rng.uniform(4.3e9, 4.4e9)
    two_mode = {
        "--f-i": hz(f_i),
        "--kappa-i-g": hz(rng.uniform(0.9e6, 1.3e6)),
        "--kappa-o-g": hz(rng.uniform(100.0, 200.0)),
        "--beta-i": hz(rng.uniform(1.3e6, 1.7e6)),
        "--beta-o": hz(rng.uniform(0.7e6, 1.0e6)),
        "--j": hz(rng.uniform(0.9e6, 1.1e6)),
        "--gamma": hz(rng.uniform(200.0, 400.0)),
    }
    f_res0 = resonances[0]
    b_lo, b_hi = (f_res0 - 15e6) / GAMMA_2PI, (f_res0 + 15e6) / GAMMA_2PI
    x_lo, x_hi = rng.uniform(0.4, 0.6), rng.uniform(45.0, 55.0)
    noise = float(rng.uniform(0.005, 0.01))
    synth_seeds = rng.integers(0, 2**31, 3)

    truth_fit = {
        "f_res": f_res0 + kappa * math.sin(phis[0]),
        "kappa_g": 2 * kappa * (1 + math.cos(phis[0])),
        "beta": beta,
    }
    linewidth = truth_fit["kappa_g"] + beta

    def cmd(label, argv, points, csvs, manifest, **extra):
        return {"label": label, "argv": argv, "points": points, "csvs": csvs,
                "manifest": manifest, **extra}

    plan = [
        cmd("simulate-single",
            ["simulate-single", "--config", "single0.json", "--output", "single.csv"],
            N_POINTS, [("single.csv", "spectrum", N_POINTS)], "single.csv.manifest.json"),
        cmd("simulate-nested",
            ["simulate-nested", "--config", "nested.json", "--output", "nested.csv"],
            N_POINTS, [("nested.csv", "spectrum", N_POINTS)], "nested.csv.manifest.json"),
    ]
    for k in range(3):
        plan.append(cmd(
            "synth",
            ["synth", "--config", f"single{k}.json", "--noise-sigma", repr(noise),
             "--seed", str(int(synth_seeds[k])), "--output", f"synth{k}.csv"],
            N_POINTS, [(f"synth{k}.csv", "spectrum", N_POINTS)], f"synth{k}.csv.manifest.json"))
    plan += [
        cmd("fit",
            ["fit", "--data", "synth0.csv", "--model", "single_giant",
             f"--free=f_res={truth_fit['f_res'] + 0.1 * linewidth!r}:{f_res0 - 10e6!r}:{f_res0 + 10e6!r}",
             f"--free=kappa_g={1.3 * truth_fit['kappa_g']!r}:0.0:2e7",
             f"--free=beta={0.8 * beta!r}:0.0:2e7",
             "--output", "fit.json"],
            N_POINTS, [], "fit.json.manifest.json",
            fit_truth=truth_fit, fit_report="fit.json", linewidth=linewidth),
        cmd("fit-geometry",
            ["fit-geometry"]
            + [f"--dataset={hz(f)}=synth{k}.csv" for k, f in enumerate(resonances)]
            + [f"--free=kappa={1.2 * kappa!r}:0.0:1e8", f"--free=beta={0.8 * beta!r}:0.0:1e8",
               f"--free=length={length * 1.0005!r}:0.01:0.5", f"--fixed=speed={SPEED!r}",
               "--output", "geometry.json"],
            3 * N_POINTS, [], "geometry.json.manifest.json",
            geometry_truth={"kappa": kappa, "beta": beta, "length": length},
            fit_report="geometry.json"),
        cmd("simulate-general",
            ["simulate-general", "--config", "braided.json", "--convention", "probe",
             "--output", "general.csv", "--reflection-output", "general_refl.csv"],
            N_POINTS, [("general.csv", "spectrum", N_POINTS), ("general_refl.csv", "spectrum", N_POINTS)],
            "general.csv.manifest.json"),
        cmd("map-detuning",
            ["map", "--sweep", "detuning", f"--values={hz(-10e6)}:{hz(10e6)}:{MAP_DETUNINGS}",
             f"--grid={hz(f_i - HALF_SPAN)}:{hz(f_i + HALF_SPAN)}:{N_POINTS}",
             *[x for kv in two_mode.items() for x in kv],
             "--threads", str(threads), "--output", "map_detuning.csv",
             "--eigen-output", "eigen.csv"],
            MAP_DETUNINGS * N_POINTS + MAP_DETUNINGS,
            [("map_detuning.csv", "map", MAP_DETUNINGS * N_POINTS), ("eigen.csv", "eigen", MAP_DETUNINGS)],
            "map_detuning.csv.manifest.json"),
        cmd("map-field",
            ["map", "--sweep", "field", "--config", "single0.json",
             f"--values={b_lo!r}:{b_hi!r}:{MAP_FIELDS}", "--h-a", "0.0",
             "--threads", str(threads), "--output", "map_field.csv"],
            MAP_FIELDS * N_POINTS, [("map_field.csv", "map", MAP_FIELDS * N_POINTS)],
            "map_field.csv.manifest.json"),
        cmd("anisotropy",
            ["anisotropy", "--h-e0", repr(float(rng.uniform(0.14, 0.17))),
             "--h-a", repr(float(rng.uniform(0.003, 0.004))), "--theta", f"0deg:180deg:{ANGLES}",
             "--which", "full", "--output", "anisotropy.csv"],
            ANGLES, [("anisotropy.csv", "anisotropy", ANGLES)], "anisotropy.csv.manifest.json"),
    ]
    for branch, tag in (("+", "plus"), ("-", "minus")):
        plan.append(cmd(
            "pv-check",
            ["pv-check", f"--x={x_lo!r}:{x_hi!r}:{PV_POINTS}", "--branch", branch,
             "--threads", str(threads), "--output", f"pv_{tag}.csv"],
            PV_POINTS, [(f"pv_{tag}.csv", "pv", PV_POINTS)], f"pv_{tag}.csv.manifest.json"))
    return plan


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _parse_csv(path, kind, rows_expected):
    """Rows of floats; raises ValueError unless the file parses back whole."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _HEADERS[kind]:
            raise ValueError(f"{path}: header {header!r}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            values = [float(v) for v in row]
            if len(values) != len(header) or not all(math.isfinite(v) for v in values):
                raise ValueError(f"{path}:{lineno}: bad row {row!r}")
            rows.append(values)
    if len(rows) != rows_expected:
        raise ValueError(f"{path}: {len(rows)} rows, expected {rows_expected}")
    return rows


def check_command(workdir, command, returncode):
    """Failure messages for one finished command (empty when it passed).

    Checks the exit code, that the manifest's sha256 of every output
    matches the file, that every CSV parses back, that fits recover their
    generating parameters and that pv-check's worst error is in bound.
    """
    if returncode != 0:
        return [f"{command['label']}: exit code {returncode}"]
    failures = []

    def path(rel):
        return os.path.join(workdir, rel)

    try:
        with open(path(command["manifest"])) as fh:
            recorded = json.load(fh)["outputs"]
        expected = [c[0] for c in command["csvs"]] + ([command["fit_report"]] if "fit_report" in command else [])
        if sorted(recorded) != sorted(expected):
            failures.append(f"{command['label']}: manifest lists {sorted(recorded)}")
        for rel, digest in recorded.items():
            if sha256_file(path(rel)) != digest:
                failures.append(f"{command['label']}: sha256 mismatch for {rel}")
        parsed = {rel: _parse_csv(path(rel), kind, n) for rel, kind, n in command["csvs"]}
        if "fit_report" in command:
            with open(path(command["fit_report"])) as fh:
                report = json.load(fh)
            failures += _check_fit(command, report)
        if command["label"] == "pv-check":
            worst = max(max(r[5], r[6]) for rows in parsed.values() for r in rows)
            if not worst < PV_WORST_BOUND:
                failures.append(f"pv-check: worst |closed - quad| {worst:.3e} >= {PV_WORST_BOUND:.0e}")
    except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
        failures.append(f"{command['label']}: {exc}")
    return failures


def _check_fit(command, report):
    failures = []
    params = report["params"]
    if not report["converged"]:
        failures.append(f"{command['label']}: not converged")
    if "fit_truth" in command:
        truth = command["fit_truth"]
        if not abs(params["f_res"] - truth["f_res"]) < FIT_FRES_LINEWIDTHS * command["linewidth"]:
            failures.append(f"fit: f_res {params['f_res']!r} vs {truth['f_res']!r}")
        for name in ("kappa_g", "beta"):
            if not abs(params[name] / truth[name] - 1) < FIT_RATE_RTOL:
                failures.append(f"fit: {name} {params[name]!r} vs {truth[name]!r}")
    else:
        truth = command["geometry_truth"]
        if not abs(params["length"] / truth["length"] - 1) < GEOMETRY_LENGTH_RTOL:
            failures.append(f"fit-geometry: length {params['length']!r} vs {truth['length']!r}")
        for name in ("kappa", "beta"):
            if not abs(params[name] / truth[name] - 1) < FIT_RATE_RTOL:
                failures.append(f"fit-geometry: {name} {params[name]!r} vs {truth[name]!r}")
    return failures


def command_outputs(command):
    """Every file a command writes, relative to the session directory."""
    out = [c[0] for c in command["csvs"]] + [command["manifest"]]
    if "fit_report" in command:
        out.append(command["fit_report"])
    return out


def output_hashes(workdir, command):
    return {rel: sha256_file(os.path.join(workdir, rel)) for rel in command_outputs(command)}


def combined_digest(hashes):
    """One sha256 over (path, sha256) of every output of a session."""
    h = hashlib.sha256()
    for rel in sorted(hashes):
        h.update(f"{rel}\0{hashes[rel]}\n".encode())
    return h.hexdigest()

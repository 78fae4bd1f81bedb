"""Tests of the benchmark itself: every correctness check rejects a corrupted
output, counters repeat exactly for a fixed seed, and the metric lists match
BENCHMARK.json.

    python3 -m pytest -q perfbench/selftest.py

Not collected by the repository's own test run (the file name does not
match test_*.py), because it spawns CLI processes and takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

tracer.import_gsesim(ROOT / "src")

import cli_pipeline  # noqa: E402
import fit_extract  # noqa: E402
import multipoint_scatter  # noqa: E402
import run  # noqa: E402


# ------------------------------------------------------------ cli-pipeline

@pytest.fixture(scope="module")
def cli_session(tmp_path_factory):
    """The commands of one session whose checks the tests corrupt."""
    workdir = tmp_path_factory.mktemp("cli")
    plan = cli_pipeline.write_inputs(str(workdir), seed=5, threads=1)
    wanted = {"simulate-single", "synth", "fit", "fit-geometry", "pv-check"}
    commands = [c for c in plan if c["label"] in wanted]
    for command in commands:
        proc = subprocess.run([sys.executable, "-m", "gsesim.cli", *command["argv"]],
                              cwd=workdir, env=run.child_env(), capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert cli_pipeline.check_command(str(workdir), command, 0) == []
    return workdir, {c["label"]: c for c in commands}


def _corrupt(workdir, command, rel, edit):
    """Copy the session, apply `edit` to one output and re-record its sha256."""
    copy = Path(str(workdir) + "-" + rel.replace(".", "-"))
    shutil.copytree(workdir, copy, dirs_exist_ok=True)
    path = copy / rel
    path.write_text(edit(path.read_text()))
    manifest = copy / command["manifest"]
    doc = json.loads(manifest.read_text())
    doc["outputs"][rel] = cli_pipeline.sha256_file(path)
    manifest.write_text(json.dumps(doc))
    return cli_pipeline.check_command(str(copy), command, 0)


def test_cli_rejects_nonzero_exit(cli_session):
    workdir, commands = cli_session
    assert cli_pipeline.check_command(str(workdir), commands["simulate-single"], 3)


def test_cli_rejects_manifest_mismatch(cli_session):
    workdir, commands = cli_session
    command = commands["simulate-single"]
    copy = Path(str(workdir) + "-sha")
    shutil.copytree(workdir, copy)
    with open(copy / "single.csv", "a") as fh:
        fh.write("\n")
    assert any("sha256" in f for f in cli_pipeline.check_command(str(copy), command, 0))


def test_cli_rejects_csv_that_does_not_parse(cli_session):
    workdir, commands = cli_session
    failures = _corrupt(workdir, commands["simulate-single"], "single.csv",
                        lambda text: text.replace("e-", "x-", 1) if "e-" in text else text + "x\n")
    assert failures
    failures = _corrupt(workdir, commands["simulate-single"], "single.csv",
                        lambda text: "".join(text.splitlines(keepends=True)[:-1]))
    assert any("rows" in f for f in failures)


def test_cli_rejects_wrong_fit(cli_session):
    workdir, commands = cli_session
    for label, report, name in (("fit", "fit.json", "kappa_g"), ("fit-geometry", "geometry.json", "length")):
        def edit(text, name=name):
            doc = json.loads(text)
            doc["params"][name] *= 1.05
            return json.dumps(doc)

        assert _corrupt(workdir, commands[label], report, edit)


def test_cli_rejects_pv_error_out_of_bound(cli_session):
    workdir, commands = cli_session
    command = commands["pv-check"]
    rel = command["csvs"][0][0]

    def edit(text):
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[5] = repr(10 * cli_pipeline.PV_WORST_BOUND)
        lines[1] = ",".join(cells)
        return "\n".join(lines) + "\n"

    assert any("worst" in f for f in _corrupt(workdir, command, rel, edit))


def test_cli_digest_tracks_every_output():
    hashes = {"a.csv": "0" * 64, "a.csv.manifest.json": "1" * 64}
    changed = dict(hashes, **{"a.csv": "2" * 64})
    assert cli_pipeline.combined_digest(hashes) != cli_pipeline.combined_digest(changed)


# ------------------------------------------------------------ multipoint-scatter

@pytest.fixture(scope="module")
def scatter_outputs():
    tasks = multipoint_scatter.setup(seed=5, workdir=None)
    cheap = {t[0]: t for t in tasks if t[0].endswith(("n2_0", "n8_0", "_n1", "_ep"))}
    return {name: (task, task[2]()) for name, task in cheap.items()}


def _fake(result, s21=None, refl=None):
    return types.SimpleNamespace(
        transmission=types.SimpleNamespace(s21=result.transmission.s21 if s21 is None else s21),
        reflection=result.reflection if refl is None else refl,
    )


def test_scatter_outputs_pass(scatter_outputs):
    for name, (task, result) in scatter_outputs.items():
        assert task[3](result) == [], name


def test_scatter_rejects_broken_unitarity(scatter_outputs):
    task, result = scatter_outputs["probe_lossless_n8_0"]
    assert task[3](_fake(result, s21=result.transmission.s21 * (1 - 1e-7)))


def test_scatter_rejects_gain(scatter_outputs):
    task, result = scatter_outputs["probe_n8_0"]
    assert task[3](_fake(result, s21=result.transmission.s21 * 1.01))


@pytest.mark.parametrize("name", ["resonance_n1", "mixed_nested_ep"])
def test_scatter_rejects_oracle_mismatch(scatter_outputs, name):
    task, result = scatter_outputs[name]
    assert task[3](_fake(result, s21=result.transmission.s21 + 1e-8))


@pytest.mark.parametrize("name", ["resonance_n8_0", "mixed_n8_0"])
def test_scatter_rejects_non_finite(scatter_outputs, name):
    task, result = scatter_outputs[name]
    refl = result.reflection.copy()
    refl[7] = np.nan
    assert task[3](_fake(result, refl=refl))


def test_scatter_rejects_non_finite_model(scatter_outputs):
    task, model = scatter_outputs["build_effective_n8_0"]
    drive = model.drive.copy()
    drive[0] = np.inf
    assert task[3](types.SimpleNamespace(hamiltonian=model.hamiltonian, drive=drive))


def test_exceptional_point_case_is_near_coalescence():
    rng = np.random.default_rng(0)
    from gsesim.core import Waveguide

    _, params = multipoint_scatter._near_exceptional_point(rng, Waveguide(multipoint_scatter.SPEED))
    assert multipoint_scatter.exceptional_point_gap(params) < 1e-3


# ------------------------------------------------------------ fit-extract

@pytest.fixture(scope="module")
def fit_output(tmp_path_factory):
    (task,) = fit_extract.setup(seed=5, workdir=str(tmp_path_factory.mktemp("fit")))
    return task, task[2]()


def test_fit_output_passes(fit_output):
    task, result = fit_output
    assert task[3](result) == []
    assert all(ok for _, ok in task[4](result))


def _fit_result(result, **values):
    original = result.values
    return types.SimpleNamespace(
        values={**original, **{k: original[k] * v for k, v in values.items()}},
        converged=result.converged, residual_norm=result.residual_norm, n_iter=result.n_iter)


@pytest.mark.parametrize("corrupt", [
    lambda r: {"decay": [(f, kg * 1.05, p) for f, kg, p in r["decay"]]},
    lambda r: {"geometry": _fit_result(r["geometry"], length=1.01)},
    lambda r: {"geometry": _fit_result(r["geometry"], kappa=1.05)},
    lambda r: {"two_mode": _fit_result(r["two_mode"], kappa_i_g=1.1)},
    lambda r: {"two_mode": _fit_result(r["two_mode"], f_i=1 + 1e-4)},
    lambda r: {"map": (r["map"][0], r["map"][1], r["map"][2] * (1 + 1e-12))},
    lambda r: {"splitting": r["splitting"] * 1.3},
    lambda r: {"width": r["width"] * 1.001},
    lambda r: {"eigs": r["eigs"] * np.array([1.0, 1.0 + 1e-6])},
], ids=["decay", "length", "kappa", "two-mode rate", "two-mode pole", "map", "splitting", "width", "eigen"])
def test_fit_rejects_corrupted_output(fit_output, corrupt):
    task, result = fit_output
    assert task[3]({**result, **corrupt(result)})


# ------------------------------------------------------------ counters and contract

def _traced_counts(fn):
    tr = tracer.Tracer()
    tr.install()
    try:
        fn()
    finally:
        tr.uninstall()
    return tracer.totals([tr.export()])[1]


def test_counts_repeat_exactly(tmp_path):
    import gsesim.cli

    def scatter():
        for task in multipoint_scatter.setup(seed=9, workdir=None):
            if not task[0].endswith(("_m8", "n32_0")):
                task[2]()

    def fit():
        fit_extract.setup(seed=9, workdir=str(tmp_path))[0][2]()

    def pv():
        assert gsesim.cli.main(["pv-check", "--x", "0.5:50:8", "--branch", "+",
                                "--output", str(tmp_path / "pv.csv")]) == 0

    for fn, key in ((scatter, "multipoint.pair_sums_calls"), (fit, "fitting.nfev"),
                    (pv, "lambpv.quadrature_calls")):
        first, second = _traced_counts(fn), _traced_counts(fn)
        assert first[key] > 0
        assert first[key] == second[key]


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in run.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.NOMINAL_PASS_S)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-extract", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

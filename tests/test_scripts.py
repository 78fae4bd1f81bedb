"""Smoke tests of scripts/: each runs in a fresh process with small arguments."""

import json
import os

from conftest import fresh_python

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *args):
    return fresh_python(os.path.join(SCRIPTS, name), *args)


def test_detuning_maps(tmp_path):
    proc = run_script("detuning_maps.py", "--outdir", str(tmp_path), "--columns", "21")
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "attraction_eigen.csv", "attraction_map.csv", "repulsion_eigen.csv", "repulsion_map.csv"]
    assert all(len(p.read_text().splitlines()) > 21 for p in tmp_path.iterdir())
    assert "2|J| from a hyperbola fit" in proc.stdout


def test_reproduce_device_rates():
    proc = run_script("reproduce_device_rates.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("(closest of 8 phase assignments)") == 2


def test_call_times():
    proc = run_script("call_times.py", "--repeats", "1", "--points", "101")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["points"], report["repeats"]) == (101, 1)
    names = {f"{kind}_n{n}" for n in (2, 8, 32) for kind in ("resonance", "mixed", "probe", "build_effective")}
    assert set(report["calls"]) == names | {"probe_n64_m8"}
    for times in report["calls"].values():
        assert times["cold_ms"] > 0 and times["warm_ms"] > 0 and times["peak_mib"] > 0

"""Smoke tests of scripts/: each runs in a fresh process with small arguments."""

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

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


CALL_NAMES = {f"{kind}_n{n}" for n in (2, 8, 32) for kind in ("resonance", "mixed", "probe", "build_effective")}
CALL_NAMES |= {"probe_n4", "probe_n64_m8"}


def test_call_times():
    proc = run_script("call_times.py", "--repeats", "1", "--points", "101")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["points"], report["repeats"]) == (101, 1)
    assert set(report["calls"]) == CALL_NAMES
    for times in report["calls"].values():
        assert times["cold_ms"] > 0 and times["warm_ms"] > 0 and times["peak_mib"] > 0


def test_call_times_against_a_second_tree(tmp_path):
    # the tree holding this test against itself, imported under another
    # package name: both columns are timed, alternating call by call
    root = os.path.dirname(SCRIPTS)
    proc = run_script("call_times.py", "--repeats", "2", "--points", "101", "--against", root)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["against"] == root
    assert set(report["calls"]) == CALL_NAMES
    for entry in report["calls"].values():
        for tree in ("this", "against"):
            times = entry[tree]
            assert times["cold_ms"] > 0 and times["warm_ms"] > 0 and times["peak_mib"] > 0
        for kind in ("cold", "warm"):
            assert entry[f"{kind}_change"] > -1
            assert 0 <= entry[f"{kind}_wins"] <= 2
    missing = run_script("call_times.py", "--repeats", "1", "--against", str(tmp_path))
    assert missing.returncode == 2 and "no gsesim package" in missing.stderr


def test_code_lines(tmp_path):
    package = tmp_path / "pkg"
    (package / "sub").mkdir(parents=True)
    # a module docstring, a comment, a blank line and a function docstring around 2 code lines
    (package / "a.py").write_text('"""Module\ndocstring."""\n# a comment\n\ndef f():\n    """Doc."""\n    return 1\n')
    (package / "sub" / "b.py").write_text('x = """not a\n\ndocstring"""\n')
    proc = run_script("code_lines.py", str(package))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["     2  a.py", "     3  sub/b.py", "     5  total", ""]

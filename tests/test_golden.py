"""Golden sha256 values of CLI outputs and manifests.

Each run below exercises one CSV writer, and the fit reads synth.csv
back through the spectrum reader. The CSV digests were recorded from the
row-by-row csv.writer implementation and fit.json from the row-by-row
csv.reader one; fit.json.manifest.json was recorded once the fit manifest
recorded --free, --fixed and --db. pv.csv and its manifest were recorded
once the quadrature oracle became the contour rule: its a_quad, b_quad and
abs_err columns moved in their last digits, while the x, a_closed and
b_closed columns stayed byte-identical. Any change to the bytes a command
emits, including its manifest, fails here. Runs use relative paths,
because manifests record the paths they were given.
"""

import hashlib
import json

from gsesim.cli import main
from conftest import TWO_MODE

F_RES = 4330917874.396135

CONFIG = {
    "waveguide": {"speed_mps": 3.26e7},
    "emitters": [
        {
            "name": "inner",
            "f_res_hz": F_RES,
            "beta_hz": 1.58e6,
            "points": [
                {"position_m": 0.0, "kappa_hz": 0.76e6},
                {"position_m": 0.0828, "kappa_hz": 0.76e6},
            ],
        }
    ],
    "probe": {"f_start_hz": F_RES - 20e6, "f_stop_hz": F_RES + 20e6, "n_points": 101},
}

RUNS = [
    ["simulate-single", "--config", "single.json", "--output", "single.csv"],
    ["synth", "--config", "single.json", "--noise-sigma", "0.01", "--seed", "5",
     "--output", "synth.csv"],
    ["map", "--sweep", "detuning", "--values=-5MHz:5MHz:7", "--grid", "4.34GHz:4.36GHz:51",
     *TWO_MODE, "--threads", "2", "--output", "map_detuning.csv", "--eigen-output", "eigen.csv"],
    ["map", "--sweep", "field", "--config", "single.json", "--values", "0.154:0.156:5",
     "--output", "map_field.csv"],
    ["anisotropy", "--h-e0", "0.155", "--h-a", "0.0035", "--theta", "0deg:180deg:13",
     "--which", "full", "--output", "anisotropy.csv"],
    ["pv-check", "--x", "0.5:20:5", "--branch", "+", "--output", "pv.csv"],
    ["fit", "--data", "synth.csv", "--model", "single_giant", "--free", "f_res=4.3309e9:4.32e9:4.34e9",
     "--free", "kappa_g=2e6:0:2e7", "--free", "beta=2e6:0:2e7", "--output", "fit.json"],
]

GOLDEN = {
    "anisotropy.csv": "8f4e3dbbf20399bcf7b43a73f7e1b80d28a22eadb13200cde92765bf76aa1699",
    "anisotropy.csv.manifest.json": "3280570569440d895e1d6c8e91d066826c76c9f751b8ce6e59e2dd44806a17d1",
    "eigen.csv": "0694b66e06277d7d8348b2e3aec7a84ed14d4e51b049f72eb11aa50fdb296f50",
    "fit.json": "55e54e52798e5535d91454ed62e877d6f78d6cf0dd125b806d472d67516c13c4",
    "fit.json.manifest.json": "8d1b73dbd37bf8183b54c8d46ec7193f5d7ab8beeb2912f0dcc74e328e7af008",
    "map_detuning.csv": "1b55abdb3ec40dc61db128a74a58909564e68587438e3f227a627c5626cf1cf6",
    "map_detuning.csv.manifest.json": "04facf7b1fa789b19ca71f227a6a93c4aff232d97f6d576bda68600b1cae676b",
    "map_field.csv": "8165f9f1a85eb9b98ab00d0a35cef223625b656e12f855c6c48bcbdf6a0c8281",
    "map_field.csv.manifest.json": "c12341b5932ff23f1ff971f5327a1c04c2a76425dfd02662b0be983d0f44cfef",
    "pv.csv": "cb3f8e0a9147aba8e368c44f59faf087bac7fec4ba61664de3d0453aaa93f809",
    "pv.csv.manifest.json": "2deb75db98a8205e668cc56cf57f47bbe03eb5ac47a63f4039b506bea8970d07",
    "single.csv": "d91138ed0982bb397ba933b5bcb454ff3f45e9f2b473ea83433a3904278fe448",
    "single.csv.manifest.json": "0ac6475d6e7a7f05353a7bb9024ce6d0ed9606a014a825b2ffdd58f07244bc10",
    "synth.csv": "c95a17935c51e672e7ce4c509fa263d033f7ebf6680ac7b1b7e83fb07bd51c3c",
    "synth.csv.manifest.json": "ae387752988d970641739a0e10a600ded51e2a7c183f8baacae3c431eab01a6c",
}


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "single.json").write_text(json.dumps(CONFIG))
    for argv in RUNS:
        assert main(argv) == 0, argv
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name != "single.json"
    }
    assert digests == GOLDEN

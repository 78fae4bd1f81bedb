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

The simulate-nested run (nested.csv) and the fit-geometry run on three
synth spectra (geometry.json, from g0.csv, g1.csv and g2.csv) were
captured, with their manifests, at the parent of the change that removed
the unused options of NestedParams.from_geometry and fit_global_geometry,
so that change is checked to be byte-identical.
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


def _single_config(f_res, n_points):
    return {**CONFIG, "emitters": [{**CONFIG["emitters"][0], "f_res_hz": f_res}],
            "probe": {"f_start_hz": f_res - 20e6, "f_stop_hz": f_res + 20e6, "n_points": n_points}}


def _point(x, kappa):
    return {"position_m": x, "kappa_hz": kappa}


NESTED = {
    "waveguide": {"speed_mps": 3.26e7},
    "emitters": [
        {"name": "outer", "f_res_hz": 4.35e9, "beta_hz": 1.39e6,
         "points": [_point(0.0, 0.70e6), _point(0.1656, 0.70e6)]},
        {"name": "inner", "f_res_hz": 4.35e9, "beta_hz": 1.58e6,
         "points": [_point(0.0414, 0.76e6), _point(0.1242, 0.76e6)]},
    ],
    "probe": {"f_start_hz": 4.34e9, "f_stop_hz": 4.36e9, "n_points": 101},
}

# input files written before the runs; they are not digested
INPUTS = {
    "single.json": CONFIG,
    "nested.json": NESTED,
    **{f"g{k}.json": _single_config(f, 201) for k, f in enumerate((4.0e9, 4.4e9, 4.8e9))},
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
    ["simulate-nested", "--config", "nested.json", "--output", "nested.csv"],
    *(["synth", "--config", f"g{k}.json", "--noise-sigma", "0.01", "--seed", str(k),
       "--output", f"g{k}.csv"] for k in range(3)),
    ["fit-geometry", "--dataset", "4.0GHz=g0.csv", "--dataset", "4.4GHz=g1.csv",
     "--dataset", "4.8GHz=g2.csv", "--free", "kappa=7e5:0:1e8", "--free", "beta=1.5e6:0:1e8",
     "--free", "length=0.08:0.01:0.5", "--fixed", "speed=3.26e7", "--output", "geometry.json"],
]

GOLDEN = {
    "anisotropy.csv": "8f4e3dbbf20399bcf7b43a73f7e1b80d28a22eadb13200cde92765bf76aa1699",
    "anisotropy.csv.manifest.json": "3280570569440d895e1d6c8e91d066826c76c9f751b8ce6e59e2dd44806a17d1",
    "eigen.csv": "0694b66e06277d7d8348b2e3aec7a84ed14d4e51b049f72eb11aa50fdb296f50",
    "fit.json": "55e54e52798e5535d91454ed62e877d6f78d6cf0dd125b806d472d67516c13c4",
    "fit.json.manifest.json": "8d1b73dbd37bf8183b54c8d46ec7193f5d7ab8beeb2912f0dcc74e328e7af008",
    "g0.csv": "3df33bc5625af705191c31a1dc6291cb5fa87c9e50db335bb4ab1b0e347491ea",
    "g0.csv.manifest.json": "9bf5b0a64568c58ac412c41757301cfd073307da079f198bf7a7649c133777d4",
    "g1.csv": "08f516b08777f6758bc87c06b32e2260f9d24545475cd42fc7bf46c6cc194566",
    "g1.csv.manifest.json": "10e62f49fa9b01c1d0a867de94c79d29c74edb1be8ea98de7a3f97bc718492d3",
    "g2.csv": "d1fa9442ac21af48fc3fc94eef14eb0e68b92c784227b3f35bcd027f5fb39746",
    "g2.csv.manifest.json": "bf40b01b22a9a6370bbe56bbf4ce14f8c0a383412f85b9cbe4d055e233fab2ca",
    "geometry.json": "4348757ea303c657916c39ecf823947ffc84c684752472fa71397660a5757247",
    "geometry.json.manifest.json": "b220be94437946d088b4378e8ca7c389deb54dae10cb732c6e7241edb9300c4c",
    "map_detuning.csv": "1b55abdb3ec40dc61db128a74a58909564e68587438e3f227a627c5626cf1cf6",
    "map_detuning.csv.manifest.json": "04facf7b1fa789b19ca71f227a6a93c4aff232d97f6d576bda68600b1cae676b",
    "map_field.csv": "8165f9f1a85eb9b98ab00d0a35cef223625b656e12f855c6c48bcbdf6a0c8281",
    "map_field.csv.manifest.json": "c12341b5932ff23f1ff971f5327a1c04c2a76425dfd02662b0be983d0f44cfef",
    "nested.csv": "17d9e9a9a0829c35b5c38b5a866bdcf5d0763a5243a77871298d7563498434b4",
    "nested.csv.manifest.json": "f5b151ac342ad43c2e0d528c5edecba31a22b6af34ab4a60aa789ad4d6f24e5b",
    "pv.csv": "cb3f8e0a9147aba8e368c44f59faf087bac7fec4ba61664de3d0453aaa93f809",
    "pv.csv.manifest.json": "2deb75db98a8205e668cc56cf57f47bbe03eb5ac47a63f4039b506bea8970d07",
    "single.csv": "d91138ed0982bb397ba933b5bcb454ff3f45e9f2b473ea83433a3904278fe448",
    "single.csv.manifest.json": "0ac6475d6e7a7f05353a7bb9024ce6d0ed9606a014a825b2ffdd58f07244bc10",
    "synth.csv": "c95a17935c51e672e7ce4c509fa263d033f7ebf6680ac7b1b7e83fb07bd51c3c",
    "synth.csv.manifest.json": "ae387752988d970641739a0e10a600ded51e2a7c183f8baacae3c431eab01a6c",
}


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, doc in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    for argv in RUNS:
        assert main(argv) == 0, argv
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name not in INPUTS
    }
    assert digests == GOLDEN

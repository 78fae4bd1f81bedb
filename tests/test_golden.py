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

The three simulate-general runs on a braided three-emitter layout
(general_*.csv) cover the N-emitter engine. general_resonance.csv and its
manifest were captured at the parent of the change that builds the grid
phasors from a coarse and a fine table, which leaves 'resonance' alone.
general_mixed.csv, general_probe.csv, general_probe_refl.csv and their
manifests were recorded after that change: the tables round the drive and
probe phases differently from one exponential per frequency, which moves
S21 and the reflection in their last digits (by up to 1e-13 under 'mixed'
and 6e-12 under 'probe' on the benchmark layouts).

fit.json, geometry.json and their manifests were re-captured when the fits
moved from scipy's trust-region reflective solver with finite-difference
Jacobians to the numpy Levenberg-Marquardt solver on closed-form
Jacobians: the fitted values moved by at most 3e-10 (fit) and 3.3e-9
(geometry) relative, both fits end at a cost no higher than before, and n_iter,
which counts evaluations, changed (9 -> 7 and 14 -> 17). Every other
digest stayed as it was.
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

BRAIDED = {
    "waveguide": {"speed_mps": 3.26e7},
    "emitters": [
        {"name": "a", "f_res_hz": 4.345e9, "beta_hz": 1.2e6,
         "points": [_point(0.0, 0.5e6), _point(0.061, 0.7e6), _point(0.143, 0.6e6)]},
        {"name": "b", "f_res_hz": 4.352e9, "beta_hz": 0.9e6,
         "points": [_point(0.027, 0.8e6), _point(0.098, 0.4e6)]},
        {"name": "c", "f_res_hz": 4.349e9, "beta_hz": 1.5e6,
         "points": [_point(0.044, 0.3e6), _point(0.117, 0.9e6), _point(0.171, 0.5e6)]},
    ],
    "probe": {"f_start_hz": 4.33e9, "f_stop_hz": 4.37e9, "n_points": 201},
}

# input files written before the runs; they are not digested
INPUTS = {
    "single.json": CONFIG,
    "nested.json": NESTED,
    "braided.json": BRAIDED,
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
    *(["simulate-general", "--config", "braided.json", "--convention", c, "--output", f"general_{c}.csv"]
      for c in ("resonance", "mixed")),
    ["simulate-general", "--config", "braided.json", "--convention", "probe",
     "--output", "general_probe.csv", "--reflection-output", "general_probe_refl.csv"],
]

GOLDEN = {
    "anisotropy.csv": "8f4e3dbbf20399bcf7b43a73f7e1b80d28a22eadb13200cde92765bf76aa1699",
    "anisotropy.csv.manifest.json": "3280570569440d895e1d6c8e91d066826c76c9f751b8ce6e59e2dd44806a17d1",
    "eigen.csv": "0694b66e06277d7d8348b2e3aec7a84ed14d4e51b049f72eb11aa50fdb296f50",
    "fit.json": "83aaa1045d007b126559b45b690939486f860b50041536832512e28401b0bc55",
    "fit.json.manifest.json": "f18395a50c0cc987f0d0d4a57d8eb0f77f77dc5482d216940ea72df2bd536a73",
    "g0.csv": "3df33bc5625af705191c31a1dc6291cb5fa87c9e50db335bb4ab1b0e347491ea",
    "g0.csv.manifest.json": "9bf5b0a64568c58ac412c41757301cfd073307da079f198bf7a7649c133777d4",
    "g1.csv": "08f516b08777f6758bc87c06b32e2260f9d24545475cd42fc7bf46c6cc194566",
    "g1.csv.manifest.json": "10e62f49fa9b01c1d0a867de94c79d29c74edb1be8ea98de7a3f97bc718492d3",
    "g2.csv": "d1fa9442ac21af48fc3fc94eef14eb0e68b92c784227b3f35bcd027f5fb39746",
    "g2.csv.manifest.json": "bf40b01b22a9a6370bbe56bbf4ce14f8c0a383412f85b9cbe4d055e233fab2ca",
    "general_mixed.csv": "70faa6077a23b01cf3dba4a35735d2b29f106eb5f9f0e963c75173018a080da2",
    "general_mixed.csv.manifest.json": "0b21d722da175a7294f70f00fdacd855a4a0df0a810c912ee00802888d2adb28",
    "general_probe.csv": "7127bd2a4900a9639deef616f75e75ec825c892c712b3ed5939c42ea8266d862",
    "general_probe.csv.manifest.json": "30425924e021fecdf975ba15d3e8674bd6a81c84b932389e142e82e6429f4aa7",
    "general_probe_refl.csv": "37fae361acfa0d03aba20f565bbaa2a3474ae37f9bff9190992a44707310bdb0",
    "general_resonance.csv": "9462dfbf6518a7390cc9561f285ad739936c0cd72ae3a36723caf1b6787b1a49",
    "general_resonance.csv.manifest.json": "524fac1509ee7420e3e01c5764a2f0516a37eb432dd43fabba80426b0b288228",
    "geometry.json": "90c6e94c5186d97031876513c8fbc42949f3a8ab9ab64c0522ff0ba7eaac2f11",
    "geometry.json.manifest.json": "9a6f54bb1cd7807c3bb80890e6a4c85bf3b7caf34e071546a844a49a05d52f8a",
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

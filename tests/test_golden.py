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

All 15 manifest digests were re-captured when main began to record each
run itself: the config block holds every parsed argument, where each
command used to pick a few by hand, and a new inputs block holds the
sha256 of each file the run reads. Every data-file digest stayed as it
was.

general_mixed.csv, general_probe.csv, general_probe_refl.csv and the two
manifests of their runs were re-captured when the grid drives became one
batched product of the coarse and fine factors per point count instead
of a sum over the nf x P phasor table. Against the parent, S21 moved by
at most 4.7e-16 under 'mixed' and 4.6e-16 under 'probe', and the probe
reflection by 3.6e-16; on the multipoint-scatter layouts of seed 1,
|dS21| and |dS11| stayed within 1.0e-15 and 1.2e-15 under 'mixed' and
1.4e-14 and 2.6e-14 under 'probe'. Every other digest, 'resonance'
included, stayed as it was.

eigen.csv and map_detuning.csv.manifest.json, which records its digest,
were re-captured when eigen_traces moved from a batched LAPACK eig to the
closed form m +- sqrt(w - ic)*sqrt(w + ic). Every branch kept its label;
the eigenvalues moved by at most 2.9e-6 Hz (6.6e-16 of max|lambda|), and
against a 40-digit reference the largest error fell from 2.3e-6 to
6.8e-7 Hz. Every other digest stayed as it was.

general_probe.csv, general_probe_refl.csv and the manifest of their run
were re-captured when each frequency block of the 'probe' solve began to
form its drives from its own rows of the phasor table, summed per
emitter, in place of the whole-grid batched product. Against the parent,
S21 moved by at most 4.6e-16 and the reflection by 3.6e-16; on the
multipoint-scatter layouts of seed 1, |dS21| and |dS11| stayed within
1.4e-14 and 2.6e-14 (the lossless N = 32 layout) and within 2.1e-15
elsewhere. 'resonance' and 'mixed' stayed bit for bit, and every other
digest stayed as it was.

general_probe.csv, general_probe_refl.csv and the manifest of their run
were re-captured when the batched solve of up to four emitters moved from
LAPACK to an elimination along the frequency axis. Against the parent,
S21 moved by at most 4.6e-16 and the reflection by 4.0e-16; on the
multipoint-scatter layouts of seeds 1 and 7, the N = 2 'probe' tasks and
the nested pair at its exceptional point moved by at most 4.8e-16, and
every task with N >= 8 stayed bit for bit. Every other digest stayed as
it was. The two data files now read the same under other OpenBLAS cores,
which test_probe_csvs_match_golden_on_other_blas_cores pins.
"""

import hashlib
import json
import platform

import pytest

from gsesim.cli import main
from conftest import TWO_MODE, fresh_python

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
    "anisotropy.csv.manifest.json": "e00371b97f0c29a638076a577389c40e619d8dc60498798ef0ee3adf9bf90de8",
    "eigen.csv": "4dc729306d89c3016f9664c932558b7b4807b0fe5d2e0b20b03006363ccc9cab",
    "fit.json": "83aaa1045d007b126559b45b690939486f860b50041536832512e28401b0bc55",
    "fit.json.manifest.json": "69c9321683c3f66ae65b6e3e74852620538312cfcc6b2626915a8ab1526a432d",
    "g0.csv": "3df33bc5625af705191c31a1dc6291cb5fa87c9e50db335bb4ab1b0e347491ea",
    "g0.csv.manifest.json": "5886d74cea40fe8e95bdf7905f3d82605ba24fa5abba98b9ebfb555b4dd32adf",
    "g1.csv": "08f516b08777f6758bc87c06b32e2260f9d24545475cd42fc7bf46c6cc194566",
    "g1.csv.manifest.json": "8e8f0ee9d61d3dcb08292e229160fadf607db6f66e8325b299f31d6cfce82c93",
    "g2.csv": "d1fa9442ac21af48fc3fc94eef14eb0e68b92c784227b3f35bcd027f5fb39746",
    "g2.csv.manifest.json": "7e1db671bb3073b2463b8e9acb15664cfe2a0ce53d42662064ad866a35837233",
    "general_mixed.csv": "954c3098ae389eddd919b680067e267d02cc7f09b3734d37ecd90829274efaf3",
    "general_mixed.csv.manifest.json": "e6c8e134d88bcb75720ccfecc7f114005cb3e013766454ef669ba8a77d96553d",
    "general_probe.csv": "2a9c98c62939b103a3e08360287a91d5011fa37d4435154e93a369ba76f9a09e",
    "general_probe.csv.manifest.json": "f50327079927b2ef44d516c99145495582c07350221d838694118cb8602f012d",
    "general_probe_refl.csv": "ea829bf47ff91d1afa5c848dfcbd895779242c3593979649812e96f8e7ff0f3c",
    "general_resonance.csv": "9462dfbf6518a7390cc9561f285ad739936c0cd72ae3a36723caf1b6787b1a49",
    "general_resonance.csv.manifest.json": "947375edf4535324cd55dff9a708bcff95f2ce615b8061465fbfa225ce620ccd",
    "geometry.json": "90c6e94c5186d97031876513c8fbc42949f3a8ab9ab64c0522ff0ba7eaac2f11",
    "geometry.json.manifest.json": "5fda75411242ff569e141779993149939af5a694bcfc4e41f71d75d7f598d4e7",
    "map_detuning.csv": "1b55abdb3ec40dc61db128a74a58909564e68587438e3f227a627c5626cf1cf6",
    "map_detuning.csv.manifest.json": "052e5a3ab6c13ca770abacea91d67bb0f0b485c46e4b9bb6a9dabb4e75795f2e",
    "map_field.csv": "8165f9f1a85eb9b98ab00d0a35cef223625b656e12f855c6c48bcbdf6a0c8281",
    "map_field.csv.manifest.json": "23d4b587708f4a5de2143f9e4336f3bda05459d70e2cbfbc9774e0c64a49b873",
    "nested.csv": "17d9e9a9a0829c35b5c38b5a866bdcf5d0763a5243a77871298d7563498434b4",
    "nested.csv.manifest.json": "50bd35435550b3ca1cbd7371db17882e84e6e6f7fa03864c1fa36b7c4baa5a69",
    "pv.csv": "cb3f8e0a9147aba8e368c44f59faf087bac7fec4ba61664de3d0453aaa93f809",
    "pv.csv.manifest.json": "395df26189b4c4e52bfe4af6edce528e83c567d1295c2dea8291ccccff4ba0b3",
    "single.csv": "d91138ed0982bb397ba933b5bcb454ff3f45e9f2b473ea83433a3904278fe448",
    "single.csv.manifest.json": "1075b1edb1318ee4745fae4d826d8f0e5b1c22a33290da2adb9412cee86412cb",
    "synth.csv": "c95a17935c51e672e7ce4c509fa263d033f7ebf6680ac7b1b7e83fb07bd51c3c",
    "synth.csv.manifest.json": "e9d85cef8303347e9106f6db8f8d489e6642feed17f79232b3908160efa21e1d",
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


# host classes emulated through the child process's environment alone
HOST_CLASSES = {
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy-without-x86-v4": {
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR"},
}


X86_64 = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                            reason="the emulated host classes are x86-64 ones")


def _run_fresh(tmp_path, argv, env):
    proc = fresh_python("-c", "import sys; from gsesim.cli import main; sys.exit(main(sys.argv[1:]))", *argv,
                        cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr


@X86_64
@pytest.mark.parametrize("env", HOST_CLASSES.values(), ids=HOST_CLASSES.keys())
def test_eigen_csv_matches_golden_on_other_host_classes(tmp_path, env):
    """The closed-form eigen.csv does not depend on the BLAS kernel or on AVX-512.

    The golden detuning map runs in a fresh process under another OpenBLAS
    core type, or with numpy's X86_V4 dispatch targets off. With the X86_V3
    targets off as well, numpy's baseline loops change other outputs
    (map_detuning.csv among them), and eigen.csv is not promised there
    either, so that case is left out.
    """
    _run_fresh(tmp_path, next(argv for argv in RUNS if "--eigen-output" in argv), env)
    assert hashlib.sha256((tmp_path / "eigen.csv").read_bytes()).hexdigest() == GOLDEN["eigen.csv"]


@X86_64
@pytest.mark.parametrize("host", ["openblas-prescott", "openblas-haswell"])
def test_probe_csvs_match_golden_on_other_blas_cores(tmp_path, host):
    """The braided 'probe' run calls no BLAS or LAPACK routine: its data files
    read the same under other OpenBLAS core types.

    The numpy-without-x86-v4 host class is left out: without AVX-512 both
    files still differ, through np.log10 in the dB column of io._db.
    """
    (tmp_path / "braided.json").write_text(json.dumps(BRAIDED))
    _run_fresh(tmp_path, next(argv for argv in RUNS if "--reflection-output" in argv), HOST_CLASSES[host])
    for name in ("general_probe.csv", "general_probe_refl.csv"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN[name], name

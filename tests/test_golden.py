"""Golden sha256 values of CLI outputs and manifests.

Any change to the bytes a command emits, including its manifest, fails
here. Runs use relative paths, because manifests record the paths they
were given. What each digest covers:

- single.csv, synth.csv, map_field.csv, map_detuning.csv, anisotropy.csv
  and pv.csv: one CSV writer each, over the single-GSE closed form, the
  two-mode fit form of the nested pair, the anisotropy law and the
  principal-value integrals (pv.csv holds the closed forms and the
  quadrature oracle side by side).
- eigen.csv: the complex-eigenvalue traces of the detuning map.
- fit.json: the single_giant fit of synth.csv, read back through the
  spectrum reader.
- nested.csv: simulate-nested, the nested matrix transmission.
- g0.csv, g1.csv, g2.csv and geometry.json: three synth spectra and the
  geometry fit over them.
- general_resonance.csv, general_mixed.csv, general_probe.csv and
  general_probe_refl.csv: the N-emitter engine on a braided three-emitter
  layout under each convention, and the 'probe' reflection.
- each *.manifest.json: the run record main writes, with every parsed
  argument and the sha256 of each file the run reads.

test_cli_outputs_match_golden_digests pins every digest on the host class
tier-1 runs on. Other host classes, emulated through a child process's
environment, pin three groups: eigen.csv and fit.json under the OpenBLAS
Prescott and Haswell cores and with numpy's X86_V4 targets off, and
general_probe.csv and general_probe_refl.csv under the two OpenBLAS cores,
as the braided 'probe' run calls no BLAS or LAPACK routine. geometry.json
still follows the OpenBLAS core, through np.linalg.svd. When digests
differ, the failure names them and the host class it ran on.
"""

import ctypes
import glob
import hashlib
import json
import os
import platform

import numpy as np
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
    "general_mixed.csv": "8b49ee2aa44e852e59299a564733e5864ab919a9043b7301ecdd4c7dcdb0bff0",
    "general_mixed.csv.manifest.json": "90b03603fec22bd43a07575aa8b04bb1e28700b4dee051a2449370715fca6b87",
    "general_probe.csv": "e1d633e1811196723e67bb2c34ec2a456813c6f3ea345cf9980ee84d13e40e6b",
    "general_probe.csv.manifest.json": "d3d11cb693101998336b25a1b0f6da531d60a8e76daf20f2c3820d16c3401235",
    "general_probe_refl.csv": "e15ce7c544e8abb8bfb5907b75d8bc08c01a44d744a06b886fa8d7fef2695180",
    "general_resonance.csv": "f2c26320f6ca56ad2e07d0e1a1de8276e60b58237a5ec026fab02426fccb9928",
    "general_resonance.csv.manifest.json": "27b16fea7f219f4f51f198865a37b79b871b293fc25d98dbc6284326f8746b99",
    "geometry.json": "943042466cb2ad262a0283531f37fbd57faece8affe2968a8aed0674b9d94f6f",
    "geometry.json.manifest.json": "fbdaebc958cd7f7eac88104e70c87af261fc93e0afb576916f8bcd50a6f31b2b",
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


def _host_class():
    """numpy's enabled SIMD dispatch targets and the OpenBLAS core type: the bits of the
    golden outputs follow both (see ROADMAP "Current state")."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    core = "unknown"
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    targets = " ".join(name for name, enabled in __cpu_features__.items() if enabled)
    return f"numpy SIMD targets {targets}; OpenBLAS core {core}"


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
    differing = sorted(n for n in GOLDEN.keys() | digests.keys() if digests.get(n) != GOLDEN.get(n))
    assert digests == GOLDEN, f"{differing} differ on this host class: {_host_class()}"


def test_a_golden_run_names_the_encoding_of_every_text_file(tmp_path):
    """No file is opened in the locale's encoding: the golden anisotropy run, in a child
    that makes EncodingWarning an error, exits 0 and writes the golden bytes."""
    argv = next(argv for argv in RUNS if argv[0] == "anisotropy")
    proc = fresh_python("-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c",
                        "import sys; from gsesim.cli import main; sys.exit(main(sys.argv[1:]))", *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("anisotropy.csv", "anisotropy.csv.manifest.json"):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN[name], name


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
@pytest.mark.parametrize("env", HOST_CLASSES.values(), ids=HOST_CLASSES.keys())
def test_fit_json_matches_golden_on_other_host_classes(tmp_path, env):
    """The single_giant fit report does not depend on the BLAS kernel or on AVX-512.

    The golden synth and fit runs go through a fresh process each. The fit
    reads the complex columns of synth.csv, not the dB column that differs
    without AVX-512, and sums its squared residual with einsum, not with a
    BLAS dot product, whose rounding follows the OpenBLAS core.
    """
    (tmp_path / "single.json").write_text(json.dumps(CONFIG))
    for argv in RUNS:
        if argv[-1] in ("synth.csv", "fit.json"):
            _run_fresh(tmp_path, argv, env)
    assert hashlib.sha256((tmp_path / "fit.json").read_bytes()).hexdigest() == GOLDEN["fit.json"]


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

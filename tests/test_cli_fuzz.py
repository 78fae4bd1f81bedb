"""Fuzz of the CLI contract: `cli.main(argv)` over all nine subcommands.

Every example runs in process in a fresh directory that holds a few valid
and invalid input files. Arguments are drawn from small pools that mix
valid values with malformed ones: missing unit suffixes, reversed ranges,
counts of 0 or 1, negative, NaN and infinite numbers, negative seeds,
fractional grid sizes, missing paths and non-UTF-8 files, and finite
configs whose phases or rates overflow (a point at 1e300 m, a speed of
1e-300 m/s, a rate of 1e300 Hz). The output flags (`--output`,
`--manifest`, `--reflection-output`, `--eigen-output`) draw from one
shared pool that also names an input file, so that outputs collide with
each other and with inputs. Every name of that pool that is not an input
and whose directory exists holds sentinel bytes before the run. Whatever
the arguments:

- main returns 0, 2, 3 or 4 (argparse's own exits count as their code) and
  no other exception escapes, numpy's RuntimeWarning included: the test
  turns it into an error, so an overflow that leaks one fails here;
- the run's inputs, and every file it was not told to write, keep their
  bytes;
- a failed run leaves every file as it found it, sentinels included;
- a successful run leaves exactly the files it found, its data outputs and
  its manifest, and the manifest lists each data output once, with the
  sha256 of the bytes on disk;
- the manifest and a fit's report parse as standard JSON, which has no
  NaN or Infinity;
- a successful `map` run names no flag that only the other sweep reads;
- a successful run is reproduced from its manifest alone: the command line
  rebuilt from its `config` block, run in a fresh directory that holds only
  the inputs checked against its `inputs` sha256, writes the same bytes,
  manifest included.

Grids stay at most a few hundred points so an example runs in milliseconds.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gsesim.cli import main
from gsesim.core import FrequencyGrid, Waveguide
from gsesim.single import SingleGseParams, s21_values
from conftest import BETA_INNER, KAPPA_INNER, L_INNER, L_OUTER, SPEED, strict_json

F_RES = 4.35e9


def _emitter(name, beta, kappa, positions):
    return {"name": name, "f_res_hz": F_RES, "beta_hz": beta,
            "points": [{"position_m": x, "kappa_hz": kappa} for x in positions]}


def _config(emitters, n_points=101, speed=SPEED):
    return json.dumps({
        "waveguide": {"speed_mps": speed},
        "emitters": emitters,
        "probe": {"f_start_hz": F_RES - 20e6, "f_stop_hz": F_RES + 20e6, "n_points": n_points},
    })


def _inputs():
    gap = (L_OUTER - L_INNER) / 2
    inner = _emitter("inner", BETA_INNER, KAPPA_INNER, (gap, gap + L_INNER))
    single = _emitter("inner", BETA_INNER, KAPPA_INNER, (0.0, L_INNER))
    files = {
        "single.json": _config([single]),
        "nested.json": _config([_emitter("outer", 1.39e6, 0.70e6, (0.0, L_OUTER)), inner]),
        "braided.json": _config([_emitter("a", 1.4e6, 0.7e6, (0.0, 0.1)),
                                 _emitter("b", 1.6e6, 0.8e6, (0.05, 0.15))]),
        "frac.json": _config([single], n_points=2.7),
        # finite values whose phases or rates overflow
        "far.json": _config([_emitter("inner", BETA_INNER, KAPPA_INNER, (0.0, 1e300))]),
        "slow.json": _config([single], speed=1e-300),
        "strong.json": _config([_emitter("inner", BETA_INNER, 1e300, (0.0, L_INNER))]),
        "strong_nested.json": _config([_emitter("outer", 1.39e6, 1e300, (0.0, L_OUTER)),
                                       _emitter("inner", BETA_INNER, 1e300, (gap, gap + L_INNER))]),
        # 10**17 doubles exceed any address space: the request fails at once
        "huge.json": _config([single], n_points=10**17),
        "bad.json": b'{"waveguide": {"speed_mps": 3.26e7}, "in\xffvalid": 1}',
        "bad.csv": b"frequency_hz,s21_re,s21_im\r\n4.3e9,0.\xff5,0\r\n4.4e9,0.5,0\r\n",
    }
    freqs = FrequencyGrid(F_RES - 20e6, F_RES + 20e6, 101).frequencies
    s21 = s21_values(SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, F_RES, Waveguide(SPEED)), freqs)
    files["synth.csv"] = "frequency_hz,s21_re,s21_im\n" + "".join(
        f"{f!r},{v.real!r},{v.imag!r}\n" for f, v in zip(freqs.tolist(), s21.tolist()))
    files["mag.csv"] = "frequency_hz,s21_mag\n" + "".join(
        f"{f!r},{abs(v)!r}\n" for f, v in zip(freqs.tolist(), s21.tolist()))
    return {k: v.encode() if isinstance(v, str) else v for k, v in files.items()}


INPUTS = _inputs()

CONFIGS = ["single.json", "nested.json", "braided.json", "frac.json", "huge.json",
           "bad.json", "missing.json", "far.json", "slow.json", "strong.json", "strong_nested.json"]
DATA = ["synth.csv", "mag.csv", "bad.csv", "missing.csv", "single.json"]
# shared by every output flag; single.json is also the most drawn config
PATHS = ["out.csv", "man.json", "refl.csv", "eigen.csv", "./out.csv", "out.csv.manifest.json",
         "nodir/out.csv", "single.json"]
# pre-written at every pool name it can be: nodir/ does not exist
SENTINELS = {p: f"sentinel {p}\n".encode() for p in map(os.path.normpath, PATHS)
             if p not in INPUTS and os.path.dirname(p) == ""}
BEFORE = {**INPUTS, **SENTINELS}
FREQS = ["1.15MHz", "0.000126MHz", "0Hz", "-1MHz", "1.15", "nanMHz", "infMHz", "4.35GHz"]
FLOATS = ["0.155", "0.0035", "0", "-0.1", "nan", "inf", "-inf", "1e-9", "x"]
FREE = {
    "single_giant": ["f_res=4.35e9:4.3e9:4.4e9", "kappa_g=2e6:0:2e7", "beta=2e6:0:2e7",
                     "kappa_g=2e6", "beta=-1:0:1", "kappa_g=nan:0:1e7",
                     "f_res=4.35e9:4.4e9:4.3e9", "kappa_g=1e6:1e6:1e6", "bogus=1", "kappa_g"],
    "single": ["f_res=4.35e9:4.3e9:4.4e9", "kappa=7.6e5:0:1e8", "beta=1.6e6:0:1e8",
               "length=0.083:0.01:0.5", "speed=3.26e7:1e6:1e9", "length=inf"],
    "nested_fitform": ["f_i=4.35e9:4.3e9:4.4e9", "j=1e6:0:1e7", "gamma=0:-1e6:1e6"],
}
FIXED = ["f_res=4.35e9", "kappa_g=1e6", "speed=3.26e7", "length=0.0828", "beta=nan",
         "length=inf", "speed=0", "kappa=", "speed=x"]
DATASETS = ["4.2GHz=synth.csv", "4.3GHz=synth.csv", "4.4GHz=synth.csv", "4.5GHz=synth.csv",
            "4.2=synth.csv", "4.2GHz", "4.3GHz=missing.csv", "4.4GHz=bad.csv",
            "4.5GHz=mag.csv", "infGHz=synth.csv"]
DETUNINGS = ["-5MHz:5MHz:5", "5MHz:-5MHz:3", "-5MHz:5MHz:0", "0MHz:0MHz:1", "-5:5:3",
             "nanMHz:1MHz:3", "infMHz:1MHz:2", "1MHz:2MHz", "a:b:c"]
FIELDS = ["0.154:0.156:3", "0.156:0.154:2", "0.155:0.155:1", "-0.1:0.1:3", "0:0:2",
          "nan:1:2", "0.1:inf:2", "0.1:0.2:0"]
GRIDS = ["4.34GHz:4.36GHz:51", "4.36GHz:4.34GHz:51", "4.34GHz:4.36GHz:1",
         "4.34GHz:4.36GHz:0", "4.34:4.36:51", "-1GHz:4GHz:11", "nanGHz:4GHz:11",
         "4GHz:infGHz:11", "4GHz:5GHz:2.5"]
THETAS = ["0deg:180deg:13", "180deg:0deg:2", "0deg:0deg:1", "0:180:13", "0deg:180deg:0",
          "nandeg:1deg:3", "0rad:infrad:3"]
XS = ["0.5:20:5", "20:0.5:3", "0:1:3", "-1:1:3", "nan:1:2", "0.5:inf:2", "1:2:0", "1:2",
      "1e3:2e3:2", "2:2:1", "1e-320:1e-319:2"]


def _arg(flag, values, required=False, good=1):
    """`flag=value` or nothing; a required flag is left out one time in ten.

    The first `good` values are valid and drawn more often than the rest,
    so that whole valid command lines come up too.
    """
    value = st.one_of(*map(st.just, values[:good]), st.sampled_from(values))
    present = st.integers(0, 9).map(lambda k: k > 0) if required else st.booleans()
    return st.tuples(present, value).map(lambda t: [f"{flag}={t[1]}"] if t[0] else [])


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _repeat(flag, values, valid_sets=([],)):
    """A few `flag=value` items: a random pick, or a valid set with a few
    random items after it (a later value of a name replaces an earlier one)."""
    items = st.lists(st.sampled_from(values), max_size=2)
    picks = st.one_of(st.lists(st.sampled_from(values), max_size=4),
                      st.tuples(st.sampled_from(valid_sets), items).map(lambda t: t[0] + t[1]))
    return picks.map(lambda vs: [f"{flag}={v}" for v in vs])


def _path(flag, own, required=False):
    """An output flag: its own name or any name of the shared pool."""
    return _arg(flag, [own, *PATHS], required=required)


def _common(config=True):
    parts = [_path("--output", "out.csv", required=True), _path("--manifest", "man.json")]
    if config:
        parts.insert(0, _arg("--config", CONFIGS, required=True, good=3))
    return parts


GOOD_TWO_MODE = [("--f-i", "4.35GHz"), ("--kappa-i-g", "1.15MHz"), ("--kappa-o-g", "0.000126MHz"),
                 ("--beta-i", "1.54MHz"), ("--beta-o", "0.86MHz"), ("--j", "1.01MHz"),
                 ("--gamma", "0.000328MHz")]
TWO_MODE = [_arg(flag, [good, *FREQS], required=True) for flag, good in GOOD_TWO_MODE]
DETUNING_ONLY = {"--grid", "--eigen-output", *(flag for flag, _ in GOOD_TWO_MODE)}
FIELD_ONLY = {"--config", "--h-a"}

SUBCOMMANDS = {
    "simulate-single": [*_common(), _flag("--self-consistent-phase")],
    "simulate-nested": [*_common(), _arg("--lamb-sign", ["-1", "1", "0", "x"], good=2),
                        _arg("--phase-ref", ["resonance", "probe", "bogus"], good=2)],
    "simulate-general": [*_common(), _arg("--convention", ["resonance", "probe", "mixed", "x"], good=3),
                         _path("--reflection-output", "refl.csv")],
    "map": [*_common(config=False), _arg("--sweep", ["detuning", "field", "bogus"], True, 2),
            _arg("--values", [DETUNINGS[0], FIELDS[0], *DETUNINGS, *FIELDS], True, 2),
            _arg("--config", CONFIGS), _arg("--grid", GRIDS),
            _arg("--h-a", FLOATS), _arg("--threads", ["1", "2", "0", "-1"]),
            _path("--eigen-output", "eigen.csv"), *TWO_MODE],
    "fit": [*_common(config=False), _arg("--data", DATA, required=True, good=2),
            _arg("--model", ["single_giant", "single", "nested_fitform", "bogus"], required=True),
            _repeat("--free", sum(FREE.values(), []), [FREE["single_giant"][:3]]),
            _repeat("--fixed", FIXED), _flag("--db")],
    "fit-geometry": [*_common(config=False), _repeat("--dataset", DATASETS, [DATASETS[:3]]),
                     _repeat("--free", FREE["single"], [FREE["single"][1:4]]),
                     _repeat("--fixed", FIXED, [["speed=3.26e7"]])],
    "anisotropy": [*_common(config=False), _arg("--h-e0", FLOATS, required=True),
                   _arg("--h-a", FLOATS[1:], required=True), _arg("--theta", THETAS, required=True),
                   _arg("--which", ["simple", "full", "bogus"], good=2),
                   _arg("--gamma", ["28GHz", "28", "-28GHz", "nanGHz", "0Hz"])],
    "pv-check": [*_common(config=False), _arg("--x", XS, required=True),
                 _arg("--branch", ["+", "-", "*"], good=2),
                 _arg("--threads", ["1", "4", "-2", "x"], good=2)],
    "synth": [*_common(), _arg("--noise-sigma", ["0.01", *FLOATS]),
              _arg("--seed", ["5", "0", "-1", "x"], good=2)],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for part in SUBCOMMANDS[command]:
        argv += draw(part)
    if draw(st.integers(0, 49)) == 0:
        argv.append("--help")
    return argv


def replay_argv(config):
    """The command line that a manifest's config block records.

    None and False are left out, True is a bare flag, a list repeats its
    flag, and any other value is given as `--key=value`.
    """
    argv = [config["command"]]
    for key, value in config.items():
        if key == "command" or value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [f"{flag}={v}" for v in value]
        else:
            argv.append(f"{flag}={value}")
    return argv


def run_in_fresh_dir(argv, before=BEFORE):
    """main(argv) in a new directory holding before; returns (code, files left),
    the files as a dict from relative path to bytes."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in before.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: 2 on bad usage, 0 on --help
                    code = exc.code
        finally:
            os.chdir(cwd)
        files = {}
        for root, _, names in os.walk(tmp):
            for name in names:
                with open(os.path.join(root, name), "rb") as fh:
                    files[os.path.relpath(os.path.join(root, name), tmp)] = fh.read()
        return code, files


# the first mark takes precedence: a RuntimeWarning fails the run, other warnings are ignored
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore")
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
@example(["synth", "--config=single.json", "--noise-sigma=0.01", "--seed=-1", "--output=out.csv"])
@example(["simulate-single", "--config=single.json", "--output=out.csv", "--manifest=out.csv"])
@example(["simulate-general", "--config=braided.json", "--output=out.csv",
          "--reflection-output=./out.csv"])
@example(["map", "--sweep=detuning", "--values=-5MHz:5MHz:5", "--grid=4.34GHz:4.36GHz:51",
          *(f"{flag}={value}" for flag, value in GOOD_TWO_MODE), "--output=out.csv",
          "--eigen-output=out.csv"])
@example(["map", "--sweep=field", "--values=0.154:0.156:3", "--config=single.json",
          "--output=out.csv", "--eigen-output=eigen.csv"])
@example(["synth", "--config=single.json", "--output=single.json"])
@example(["anisotropy", "--output=out.csv", "--h-e0=0.155", "--h-a=0.0035", "--theta=0rad:infrad:3",
          "--which=full"])
@example(["simulate-single", "--config=frac.json", "--output=out.csv"])
@example(["simulate-single", "--config=huge.json", "--output=out.csv"])
@example(["fit", "--data=synth.csv", "--model=single_giant", "--free=f_res=4.35e9:4.3e9:4.4e9",
          "--free=kappa_g=1e6:1e6:1e6", "--free=beta=2e6:0:2e7", "--output=out.json"])
@example(["fit-geometry", "--dataset=4.2GHz=synth.csv", "--dataset=4.3GHz=synth.csv",
          "--dataset=4.4GHz=synth.csv", "--free=kappa=7.6e5:0:1e8", "--free=beta=1.6e6:0:1e8",
          "--free=speed=3e7:1e6:1e9", "--fixed=length=inf", "--output=out.json"])
@example(["fit-geometry", "--dataset=4.2GHz=synth.csv", "--dataset=4.3GHz=synth.csv",
          "--dataset=4.4GHz=synth.csv", "--free=kappa=7.6e5:0:1e8", "--free=beta=1.6e6:0:1e8",
          "--free=length=0.083:0.01:0.5", "--fixed=speed=0", "--output=out.json"])
@example(["fit-geometry", "--dataset=infGHz=synth.csv", "--dataset=4.3GHz=synth.csv",
          "--dataset=4.4GHz=synth.csv", "--free=kappa=7.6e5:0:1e8", "--free=beta=1.6e6:0:1e8",
          "--free=length=0.083:0.01:0.5", "--fixed=speed=3.26e7", "--output=out.json"])
@example(["map", "--sweep=detuning", "--values=-5MHz:5MHz:5", "--grid=4.34GHz:4.36GHz:51",
          *(f"{flag}={value}" for flag, value in GOOD_TWO_MODE), "--config=nonexistent.json",
          "--h-a=0.5", "--output=out.csv"])
@example(["anisotropy", "--output=out.csv", "--manifest=nodir/m.json", "--h-e0=0.155",
          "--h-a=0.0035", "--theta=0deg:180deg:13"])
@example(["simulate-nested", "--config=strong_nested.json", "--phase-ref=probe", "--output=out.csv"])
@example(["simulate-general", "--config=strong.json", "--convention=mixed", "--output=out.csv"])
@example(["simulate-single", "--config=slow.json", "--output=out.csv"])
@example(["synth", "--config=far.json", "--output=out.csv"])
@example(["pv-check", "--x=1e-320:1e-319:2", "--output=out.csv"])
def test_cli_main_exits_with_a_documented_code(argv):
    code, files = run_in_fresh_dir(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    norm = os.path.normpath
    opts = dict(a.partition("=")[::2] for a in argv if "=" in a)  # the last value wins
    if argv[0] == "map" and code == 0 and "--help" not in argv:
        # each sweep rejects the flags that only the other one reads
        other = FIELD_ONLY if opts["--sweep"] == "detuning" else DETUNING_ONLY
        assert not other & set(opts), (argv, code)
    data_outputs = [norm(opts[f]) for f in ("--output", "--eigen-output", "--reflection-output")
                    if opts.get(f)]
    manifest = opts.get("--manifest") or opts.get("--output", "") + ".manifest.json"
    reads = {norm(opts[f]) for f in ("--config", "--data") if f in opts}
    reads |= {norm(a.split("=", 2)[-1]) for a in argv if a.startswith("--dataset=")}
    for name, data in BEFORE.items():
        if name in reads or name not in {*data_outputs, norm(manifest)}:
            assert files.get(name) == data, (argv, code, name)
    if code != 0:
        assert files == BEFORE, (argv, code, sorted(files))
    elif "--help" not in argv:
        assert len({*data_outputs, norm(manifest)}) == len(data_outputs) + 1, argv
        assert sorted(files) == sorted({*BEFORE, *data_outputs, norm(manifest)}), (argv, sorted(files))
        # every manifest and fit report is standard JSON, without NaN or Infinity
        record = strict_json(files[norm(manifest)])
        if argv[0] in ("fit", "fit-geometry"):
            strict_json(files[norm(opts["--output"])])
        recorded = record["outputs"]
        assert sorted(norm(p) for p in recorded) == sorted(data_outputs), (argv, recorded)
        for path, digest in recorded.items():
            assert hashlib.sha256(files[norm(path)]).hexdigest() == digest, (argv, path)
        inputs = {norm(p): files[norm(p)] for p in record["inputs"]}
        for path, digest in record["inputs"].items():
            assert hashlib.sha256(inputs[norm(path)]).hexdigest() == digest, (argv, path)
        replay = replay_argv(record["config"])
        written = {p: files[p] for p in (*data_outputs, norm(manifest))}
        assert run_in_fresh_dir(replay, inputs) == (0, {**inputs, **written}), (argv, replay)

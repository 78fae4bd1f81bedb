"""Command-line front end: sweep orchestration and deterministic file output.

The only module with side effects. Each command writes its data files;
`main` derives the run's record from the arguments alone, refuses two
outputs that name the same file or one that names an input, and writes
the manifest JSON: every parsed argument and the sha256 checksums of the
inputs and the outputs. Outputs are written under temporary names and
renamed into place only after the whole run has succeeded. Identical
inputs and seed produce identical bytes. gsesim starts no threads of its
own; numpy's BLAS may run its own pool. Each command imports the model
modules it calls in its own body, so a process loads only those.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 I/O
error. main returns the code of a failed run and prints one stderr line,
`config error: …`, `numeric failure: …` or `i/o error: …`. A command line
that argparse rejects (a missing or unknown flag, a bad choice, a value
that is not a number) is a configuration error of the same form, such as
`config error: argument --h-e0: invalid float value: 'nan'`; only --help
leaves main through SystemExit. A flag is matched only by its full name:
`--out` is an unknown flag, not `--output`. A flag that takes one value
is given at most once, and a file flag's path is not empty. A value
gsesim parses from a flag's text is named with its flag and quoted:
`config error: --x '0.5:nan:3': 'nan' must be finite, got nan`. A number
typed on the command line that is not finite, NaN, inf or one that
overflows once its unit is applied, is a configuration error where it is
parsed; 3 is left for a finite input the computation cannot handle.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io as gio
from .core import (GAMMA_2PI, MAX_POINTS, FrequencyGrid, ModelError, ParameterNameError, Spectrum,
                   classify_topology)
from .io import ConfigError, DataFormatError

# the names of fitting.MODELS; listed here so that building the parser loads no model module
_FIT_MODELS = ("nested_fitform", "single", "single_giant")

# longer suffixes first, so that "hz" is tried after "khz", "mhz" and "ghz"
_FREQ_UNITS = {"khz": 1e3, "mhz": 1e6, "ghz": 1e9, "hz": 1.0}
_ANGLE_UNITS = {"deg": np.pi / 180.0, "rad": 1.0}


def _number(text, value=None):
    """The number typed as text: value if given, else float(text).

    A number that is not finite, NaN, inf or a value that overflows once its
    unit is applied, raises ConfigError quoting text.
    """
    value = float(text) if value is None else value
    if not np.isfinite(value):
        raise ConfigError(f"{text!r} must be finite, got {value}")
    return value


def _parse_suffixed(text, units, quantity, suffixes):
    """A number followed by one of the unit suffixes in units, times that unit."""
    t = text.strip().lower()
    for suffix, scale in units.items():
        if t.endswith(suffix):
            try:
                value = float(t[: -len(suffix)]) * scale
            except ValueError:
                break
            return _number(text, value)
    raise ConfigError(f"cannot parse {quantity} {text!r}: need a {suffixes} suffix")


def parse_frequency(text):
    """Frequency with mandatory unit suffix: '4.35GHz', '760kHz', '5e6Hz'."""
    return _parse_suffixed(text, _FREQ_UNITS, "frequency", "Hz/kHz/MHz/GHz")


def parse_angle(text):
    """Angle with mandatory unit suffix ('90deg' or '1.57rad'), returned in rad."""
    return _parse_suffixed(text, _ANGLE_UNITS, "angle", "deg/rad")


def _split_range(text, scalar):
    """(start, stop, count) of 'start:stop:count'; scalar converts an endpoint.

    Raises ConfigError with the bare reason; the caller names the flag.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("expected start:stop:count")
    try:
        return scalar(parts[0]), scalar(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_range(text, scalar=_number):
    """'start:stop:count' sweep specification; scalar converts an endpoint, which must be finite."""
    start, stop, count = _split_range(text, scalar)
    if not 1 <= count <= MAX_POINTS:
        raise ConfigError(f"count must be between 1 and {MAX_POINTS}")
    return np.linspace(start, stop, count)


def _sweep_values(text, scalar=_number):
    """parse_range for map --values: each value is one column of the map file."""
    values = parse_range(text, scalar)
    if gio._distinct(values).size < values.size:
        raise ConfigError("sweep values must be distinct")
    return values


def _flag_names(names):
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _typed(args, name, convert):
    """convert(text) of the flag name's text; a ValueError it raises is a ConfigError that
    names the flag and quotes the text, as `--x '0.5:nan:3': 'nan' must be finite, got nan`."""
    text = getattr(args, name)
    with gio._at(f"{_flag_names([name])} {text!r}", ValueError):
        return convert(text)


def _two_point_gse(waveguide, em, pointer):
    """SingleGseParams of an emitter with two coupling points of equal rate."""
    from .single import SingleGseParams

    if len(em.positions) != 2:
        raise ConfigError(f"{pointer}: emitter {em.name!r} needs exactly two points")
    k1, k2 = em.kappa_points
    if k1 != k2:
        raise ConfigError(f"{pointer}: emitter {em.name!r} has unequal rates; use simulate-general")
    return SingleGseParams(k1, em.beta, em.span[1] - em.span[0], em.f_res, waveguide)


def _load_single(path):
    """(SingleGseParams, FrequencyGrid) of a config with one two-point emitter."""
    waveguide, topology, grid = gio.load_config(path)
    if len(topology.emitters) != 1:
        raise ConfigError("/emitters: this command needs exactly one emitter")
    return _two_point_gse(waveguide, topology.emitters[0], "/emitters/0"), grid


def _nested_from_topology(waveguide, topology):
    from .nested import NestedParams

    kind = classify_topology(topology)
    if kind != "nested":
        raise ConfigError(f"/emitters: topology is {kind!r}, not nested")
    a, b = topology.emitters
    inner, outer = (a, b) if a.span[0] > b.span[0] else (b, a)
    gses = [_two_point_gse(waveguide, em, "/emitters") for em in (inner, outer)]
    gap_left = inner.span[0] - outer.span[0]
    gap_right = outer.span[1] - inner.span[1]
    if abs(gap_left - gap_right) > 1e-12 * (outer.span[1] - outer.span[0]):
        raise ConfigError("/emitters: simulate-nested needs a symmetric nesting")
    return NestedParams.from_geometry(*gses)


# the two-mode rates of `map --sweep detuning`, frequencies with unit suffix: flag name -> help
_TWO_MODE = {
    "f_i": "inner-mode frequency",
    "kappa_i_g": "inner radiative rate",
    "kappa_o_g": "outer radiative rate",
    "beta_i": "inner intrinsic rate",
    "beta_o": "outer intrinsic rate",
    "j": "coherent coupling",
    "gamma": "dissipative coupling",
}


def _guess_and_bounds(text):
    """(guess, lo, hi) of a --free value `guess` or `guess:lo:hi`; a bare guess is unbounded."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError("expected name=guess or name=guess:lo:hi")
    return tuple(map(float, parts if len(parts) == 3 else [text, "-inf", "inf"]))


# NAME=VALUE flags in the order main parses them: the usage errors quote, the converters of the
# name and of the value, may a name repeat
_ITEMS = {"dataset": ("F_RES=PATH", parse_frequency, str, True),
          "free": ("name=guess or name=guess:lo:hi", str, _guess_and_bounds, False),
          "fixed": ("name=value", str, float, False)}


def _parse_items(flag, items):
    """[(name, value)] of one NAME=VALUE flag's items, each split at its first '='.

    An empty side, then a name given twice where the flag forbids it, then a
    name or a value its converter rejects raise ConfigError quoting the item.
    """
    usage, convert_name, convert, repeats = _ITEMS[flag]
    pairs = []
    for item in items:
        name, _, text = item.partition("=")
        with gio._at(f"--{flag} {item!r}", ValueError):
            if not name or not text:
                raise ValueError(f"expected {usage}")
            if not repeats and name in dict(pairs):
                raise ValueError(f"parameter {name!r} is given twice")
            pairs.append((convert_name(name), convert(text)))
    return pairs


def _cmd_simulate_single(args):
    from .single import s21_single

    p, grid = _load_single(args.config)
    spectrum = s21_single(p, grid, self_consistent_phase=args.self_consistent_phase)
    gio.write_spectrum_csv(args.output, spectrum)


def _cmd_simulate_nested(args):
    from .nested import s21_nested_matrix

    waveguide, topology, grid = gio.load_config(args.config)
    p = _nested_from_topology(waveguide, topology)
    spectrum = s21_nested_matrix(p, grid, lamb_sign=args.lamb_sign, phase_ref=args.phase_ref)
    gio.write_spectrum_csv(args.output, spectrum)


def _cmd_simulate_general(args):
    from .multipoint import s_matrix

    waveguide, topology, grid = gio.load_config(args.config)
    result = s_matrix(topology, waveguide, grid, convention=args.convention)
    gio.write_spectrum_csv(args.output, result.transmission)
    if args.reflection_output is not None:
        gio.write_spectrum_csv(args.reflection_output, Spectrum(grid, result.reflection))


# per sweep of `map`: the flags it needs, then the one it may also take; the other sweep rejects all
_SWEEPS = {"detuning": ("grid", *_TWO_MODE, "eigen_output"), "field": ("config", "h_a")}


def _cmd_map(args):
    other = "field" if args.sweep == "detuning" else "detuning"
    stray = [name for name in _SWEEPS[other] if getattr(args, name) is not None]
    if stray:
        raise ConfigError(f"map --sweep {args.sweep} does not take {_flag_names(stray)}")
    missing = [name for name in _SWEEPS[args.sweep][:-1] if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"map --sweep {args.sweep} needs {_flag_names(missing)}")
    if args.sweep == "detuning":
        from .nested import FitFormParams, eigen_traces, map_nested_vs_detuning

        rates = {name: _typed(args, name, parse_frequency) for name in _TWO_MODE}
        q = FitFormParams(f_o=rates["f_i"], **rates)  # the sweep sets f_o
        detunings = _typed(args, "values", lambda text: _sweep_values(text, parse_frequency))
        grid = _typed(args, "grid", lambda text: FrequencyGrid(*_split_range(text, parse_frequency)))
        f_o_values = q.f_i + detunings
        columns = map_nested_vs_detuning(q, f_o_values, grid)
        gio.write_map_csv(args.output, [(d, s) for d, (_, s) in zip(detunings, columns)])
        if args.eigen_output is not None:
            eigs, _ = eigen_traces(q, f_o_values)
            gio.write_eigen_csv(args.eigen_output, detunings, eigs)
        return
    from .single import map_single_vs_field

    p, grid = _load_single(args.config)
    fields = _typed(args, "values", _sweep_values)
    columns = map_single_vs_field(p, fields, 0.0 if args.h_a is None else args.h_a, grid)
    gio.write_map_csv(args.output, columns)


def _cmd_fit(args):
    from .fitting import FitProblem, fit

    freqs, data = gio.read_spectrum_csv(args.data)
    if args.db and np.iscomplexobj(data):
        raise ConfigError(f"--db: {args.data} holds complex S21; --db fits magnitude-only data")
    problem = FitProblem(freqs, data, args.model, free=dict(args.free), fixed=dict(args.fixed), db_scale=args.db)
    gio.write_fit_report(args.output, fit(problem))


def _cmd_fit_geometry(args):
    from .fitting import fit_global_geometry

    if len(args.dataset) < 3 or len({f_res for f_res, _ in args.dataset}) < 2:
        raise ConfigError("--dataset: geometry fit needs at least 3 datasets on at least 2 resonances")
    datasets = []
    for f_res, path in args.dataset:
        freqs, data = gio.read_spectrum_csv(path)
        if not np.iscomplexobj(data):
            raise ConfigError(f"--dataset {path}: geometry fit needs complex data")
        datasets.append((f_res, freqs, data))
    result = fit_global_geometry(datasets, free=dict(args.free), fixed=dict(args.fixed))
    gio.write_fit_report(args.output, result)


def _cmd_anisotropy(args):
    from .anisotropy import AnisotropyParams, angle_sweep

    thetas = _typed(args, "theta", lambda text: parse_range(text, parse_angle))
    gamma = GAMMA_2PI if args.gamma is None else _typed(args, "gamma", parse_frequency)
    p = AnisotropyParams(args.h_e0, args.h_a, gamma=gamma)
    freqs = angle_sweep(p, thetas, which=args.which)
    gio.write_anisotropy_csv(args.output, thetas, freqs)


def _cmd_pv_check(args):
    from .lambpv import pv_closed, pv_quadrature

    rows = []
    for x in _typed(args, "x", parse_range):
        closed = pv_closed(x, args.branch)
        quad = pv_quadrature(x, args.branch)
        rows.append((
            x, closed.a_value, quad.a_value, closed.b_value, quad.b_value,
            abs(closed.a_value - quad.a_value), abs(closed.b_value - quad.b_value),
        ))
    gio.write_pv_csv(args.output, rows)
    worst = max(max(r[5], r[6]) for r in rows)
    print(f"pv-check: {len(rows)} points, branch {args.branch!r}, worst |closed - quad| = {worst:.3e}")


def _cmd_synth(args):
    from .single import s21_single

    if args.seed < 0:
        raise ConfigError(f"--seed {args.seed}: must be >= 0")
    if args.noise_sigma < 0:
        raise ConfigError(f"--noise-sigma {args.noise_sigma}: must be >= 0")
    p, grid = _load_single(args.config)
    spectrum = s21_single(p, grid)
    noisy = spectrum.s21 + gio.synth_noise(grid.n_points, args.noise_sigma, args.seed)
    gio.write_spectrum_csv(args.output, Spectrum(grid, noisy))


class _Once(argparse.Action):
    """The default action of a flag: store its value, and reject a second one.

    It keeps state across one parse: main builds a new parser for each run.
    """

    given = False

    def __call__(self, parser, namespace, values, option_string=None):
        if self.given:
            raise ConfigError(f"{option_string} is given twice")
        self.given = True
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """The CLI's parsing rules, which add_subparsers gives every subcommand.

    A flag is matched only by its full name, a single-value flag is given
    at most once, a type=float value is read with _number, and a usage
    error raises ConfigError, so that main reports it.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self.register("action", None, _Once)
        self.register("type", float, _number)

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="gsesim",
        description="Simulate and fit giant-spin-ensemble waveguide spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--output", required=True, help="output data file")
        p.add_argument("--manifest", default=None, help="manifest path (default: OUTPUT.manifest.json)")

    def fit_items(p):
        p.add_argument("--free", action="append", default=[], required=True,
                       help="name=guess or name=guess:lo:hi in the parameter's unit, rates in Hz (repeatable)")
        p.add_argument("--fixed", action="append", default=[], help="name=value (repeatable)")

    p = sub.add_parser("simulate-single", help="single two-point ensemble spectrum")
    common(p)
    p.add_argument("--self-consistent-phase", action="store_true",
                   help="re-evaluate the interference phase at each probe frequency")
    p.set_defaults(run=_cmd_simulate_single)

    p = sub.add_parser("simulate-nested", help="nested-pair matrix-model spectrum")
    common(p)
    p.add_argument("--lamb-sign", type=int, choices=(-1, 1), default=-1)
    p.add_argument("--phase-ref", choices=("resonance", "probe"), default="resonance")
    p.set_defaults(run=_cmd_simulate_nested)

    p = sub.add_parser("simulate-general", help="arbitrary multi-emitter topology spectrum")
    common(p)
    p.add_argument("--convention", choices=("resonance", "probe", "mixed"), default="resonance")
    p.add_argument("--reflection-output", default=None, help="also emit the reflection channel")
    p.set_defaults(run=_cmd_simulate_general)

    p = sub.add_parser("map", help="2-D transmission map over detuning or bias field")
    common(p, config=False)
    p.add_argument("--sweep", choices=("detuning", "field"), required=True)
    p.add_argument("--values", required=True,
                   help="sweep range start:stop:count (detuning values carry frequency suffixes; fields are tesla)")
    p.add_argument("--config", default=None, help="JSON configuration (field sweep)")
    p.add_argument("--grid", default=None, help="probe grid f_start:f_stop:n (detuning sweep)")
    p.add_argument("--h-a", type=float, default=None,
                   help="anisotropy-equivalent field, tesla (field sweep; default 0)")
    p.add_argument("--eigen-output", default=None, help="also emit eigenvalue traces (detuning sweep)")
    p.add_argument("--threads", default=1, type=int, help="accepted for compatibility; has no effect")
    for name, text in _TWO_MODE.items():
        p.add_argument(_flag_names([name]), help=text)
    p.set_defaults(run=_cmd_map)

    p = sub.add_parser("fit", help="least-squares fit of one spectrum file")
    common(p, config=False)
    p.add_argument("--data", required=True, help="spectrum CSV (complex pair or magnitude)")
    p.add_argument("--model", choices=_FIT_MODELS, required=True)
    fit_items(p)
    p.add_argument("--db", action="store_true", help="fit 20*log10 of a magnitude-only file's s21_mag column")
    p.set_defaults(run=_cmd_fit)

    p = sub.add_parser("fit-geometry", help="joint geometry/speed fit across spectra")
    common(p, config=False)
    p.add_argument("--dataset", action="append", required=True,
                   help="F_RES=PATH with a frequency suffix on F_RES (repeatable, >= 3)")
    fit_items(p)
    p.set_defaults(run=_cmd_fit_geometry)

    p = sub.add_parser("anisotropy", help="crystal-angle to frequency curve")
    common(p, config=False)
    p.add_argument("--h-e0", type=float, required=True, help="bias field, tesla")
    p.add_argument("--h-a", type=float, required=True, help="anisotropy field, tesla")
    p.add_argument("--theta", required=True, help="angle range start:stop:count with deg/rad suffixes")
    p.add_argument("--which", choices=("simple", "full"), default="simple")
    p.add_argument("--gamma", default=None, help="gyromagnetic ratio over 2*pi per tesla, with frequency suffix")
    p.set_defaults(run=_cmd_anisotropy)

    p = sub.add_parser("pv-check", help="closed-form vs quadrature check of the self-energy integrals")
    common(p, config=False)
    p.add_argument("--x", required=True, help="dimensionless range start:stop:count")
    p.add_argument("--branch", choices=("+", "-"), default="-")
    p.add_argument("--threads", default=1, type=int, help="accepted for compatibility; has no effect")
    p.set_defaults(run=_cmd_pv_check)

    p = sub.add_parser("synth", help="synthetic noisy spectrum for fit round-trips")
    common(p)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_synth)

    return parser


# the flags naming the files a command reads, besides each --dataset path, and the data files
# it writes; main writes the manifest
_INPUTS = ("config", "data")
_OUTPUTS = ("output", "eigen_output", "reflection_output")


def _temporary(path):
    """A sibling of path in its directory, so that os.replace onto path is a rename."""
    head, tail = os.path.split(path)
    return os.path.join(head, f".{tail}.{os.getpid()}.tmp")


def main(argv=None):
    """Run one command; a failed run leaves every file as it found it.

    main fills the run record, a plain dict, once: `config` holds every
    parsed argument as given; `inputs` names the files the run reads, one
    per flag of _INPUTS given and each --dataset path, each as itself; and
    `outputs` maps each data output, one per flag of _OUTPUTS given, to the
    temporary file that holds its bytes. A flag is given when its value is
    not None. The command writes its data files, and main the manifest,
    which serialises the record, under temporary sibling names; only when
    all are written do they replace their final names (through symlinks),
    one os.replace each. Each rename is atomic; the 2-4 renames of a run
    are not atomic as a group.
    """
    real, temporary = {}, {}
    try:
        args = build_parser().parse_args(argv)
        # an empty path names no file: an error, not a dropped output
        for flag in (*_INPUTS, "manifest", *_OUTPUTS):
            if getattr(args, flag, None) == "":
                raise ConfigError(f"{_flag_names([flag])} '': names no file")
        # the run as given: every parsed argument, before the outputs turn temporary
        record = {"config": {k: v for k, v in vars(args).items() if k != "run"}}
        # the manifest keeps the raw items in config; the command gets the parsed pairs
        for flag in _ITEMS:
            if hasattr(args, flag):
                setattr(args, flag, _parse_items(flag, getattr(args, flag)))
        datasets = [path for _, path in getattr(args, "dataset", [])]
        record["inputs"] = {p: p for p in (*map(vars(args).get, _INPUTS), *datasets) if p is not None}
        given = {flag: getattr(args, flag) for flag in _OUTPUTS if getattr(args, flag, None) is not None}
        manifest = args.output + ".manifest.json" if args.manifest is None else args.manifest
        written = [*given.values(), manifest]
        seen = set(map(os.path.realpath, record["inputs"]))
        for path in written:
            real[path] = os.path.realpath(path)
            if real[path] in seen:
                raise ConfigError(f"{path}: names an input or another output of this run")
            if path.endswith(os.sep) or os.path.isdir(real[path]):
                raise IsADirectoryError(f"{path}: names a directory")
            seen.add(real[path])
        temporary = {path: _temporary(real[path]) for path in written}
        record["outputs"] = {path: temporary[path] for path in given.values()}
        for flag, path in given.items():
            setattr(args, flag, temporary[path])
        args.run(args)
        # hashed only now, so that a missing input fails with the command's own error
        gio.write_manifest(temporary[manifest], record)
        for path in written:
            os.replace(temporary[path], real[path])
        return 0
    except (ConfigError, ParameterNameError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except (ModelError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        code = 3
    except (DataFormatError, OSError) as exc:
        for path, tmp in temporary.items():  # name the output, not its temporary
            if getattr(exc, "filename", None) == tmp:
                exc.filename = path
        print(f"i/o error: {exc}", file=sys.stderr)
        code = 4
    for path in temporary.values():
        try:
            os.unlink(path)
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())

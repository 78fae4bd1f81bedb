"""Command-line front end: sweep orchestration and deterministic file output.

The only module with side effects. Each command writes its data files;
`main` derives the run's output paths from the arguments alone, refuses two
that name the same file or one that names an input, and writes the
manifest JSON: every parsed argument and the sha256 checksums of the
inputs and the outputs. Outputs are written under temporary names and
renamed into place only after the whole run has succeeded. Identical
inputs and seed produce identical bytes. gsesim starts no threads of its
own; numpy's BLAS may run its own pool. Each command imports the model
modules it calls in its own body, so a process loads only those. Exit
codes: 0 success, 2 configuration error, 3 numeric failure, 4 I/O error.
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


def _parse_suffixed(text, units, quantity, suffixes):
    """A number followed by one of the unit suffixes in units, times that unit."""
    t = text.strip().lower()
    for suffix, scale in units.items():
        if t.endswith(suffix):
            try:
                return float(t[: -len(suffix)]) * scale
            except ValueError:
                break
    raise ConfigError(f"cannot parse {quantity} {text!r}: need a {suffixes} suffix")


def parse_frequency(text):
    """Frequency with mandatory unit suffix: '4.35GHz', '760kHz', '5e6Hz'."""
    return _parse_suffixed(text, _FREQ_UNITS, "frequency", "Hz/kHz/MHz/GHz")


def parse_angle(text):
    """Angle with mandatory unit suffix ('90deg' or '1.57rad'), returned in rad."""
    return _parse_suffixed(text, _ANGLE_UNITS, "angle", "deg/rad")


def parse_range(text, scalar=float):
    """'start:stop:count' sweep specification, inclusive endpoints."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range {text!r} must be start:stop:count")
    try:
        start, stop, count = scalar(parts[0]), scalar(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"range {text!r}: {exc}") from None
    if not 1 <= count <= MAX_POINTS:
        raise ConfigError(f"range {text!r}: count must be between 1 and {MAX_POINTS}")
    # linspace would turn an infinite endpoint into nan with a warning; nan goes on to the model's check
    for part, value in zip(parts, (start, stop)):
        if np.isinf(value):
            raise ModelError(f"range {text!r}: {part!r} must be finite")
    return np.linspace(start, stop, count)


def _sweep_values(text, scalar=float):
    """parse_range for map --values: each value is one column of the map file."""
    values = parse_range(text, scalar)
    # nan differs from itself as a double, so it goes on to the model's own check
    if gio._distinct(values).size < values.size:
        raise ConfigError(f"--values {text!r}: sweep values must be distinct")
    return values


def _grid_from_arg(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid {text!r} must be f_start:f_stop:n_points")
    f_start, f_stop = parse_frequency(parts[0]), parse_frequency(parts[1])
    try:
        return FrequencyGrid(f_start, f_stop, int(parts[2]))
    except (ValueError, ModelError) as exc:
        raise ConfigError(f"grid {text!r}: {exc}") from None


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


def _fitform_from_args(args):
    from .nested import FitFormParams

    q = {name: parse_frequency(getattr(args, name)) for name in _TWO_MODE}
    return FitFormParams(f_o=q["f_i"], **q)  # the sweep sets f_o


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
        try:
            if not name or not text:
                raise ValueError(f"expected {usage}")
            if not repeats and name in dict(pairs):
                raise ValueError(f"parameter {name!r} is given twice")
            pairs.append((convert_name(name), convert(text)))
        except ValueError as exc:
            raise ConfigError(f"--{flag} {item!r}: {exc}") from None
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
    if args.reflection_output:
        gio.write_spectrum_csv(args.reflection_output, Spectrum(grid, result.reflection))


# the flags that only one sweep of `map` reads, which the other sweep rejects; and those each needs
_SWEEP_FLAGS = {"detuning": ("grid", *_TWO_MODE, "eigen_output"), "field": ("config", "h_a")}
_SWEEP_NEEDS = {"detuning": ("grid", *_TWO_MODE), "field": ("config",)}


def _flag_names(names):
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _cmd_map(args):
    other = "field" if args.sweep == "detuning" else "detuning"
    stray = [name for name in _SWEEP_FLAGS[other] if getattr(args, name) is not None]
    if stray:
        raise ConfigError(f"map --sweep {args.sweep} does not take {_flag_names(stray)}")
    missing = [name for name in _SWEEP_NEEDS[args.sweep] if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"map --sweep {args.sweep} needs {_flag_names(missing)}")
    if args.sweep == "detuning":
        from .nested import eigen_traces, map_nested_vs_detuning

        q = _fitform_from_args(args)
        detunings = _sweep_values(args.values, parse_frequency)
        grid = _grid_from_arg(args.grid)
        f_o_values = q.f_i + detunings
        columns = map_nested_vs_detuning(q, f_o_values, grid)
        gio.write_map_csv(args.output, [(d, s) for d, (_, s) in zip(detunings, columns)])
        if args.eigen_output:
            eigs, _ = eigen_traces(q, f_o_values)
            gio.write_eigen_csv(args.eigen_output, detunings, eigs)
        return
    from .single import map_single_vs_field

    p, grid = _load_single(args.config)
    fields = _sweep_values(args.values)
    columns = map_single_vs_field(p, fields, 0.0 if args.h_a is None else args.h_a, grid)
    gio.write_map_csv(args.output, columns)


def _cmd_fit(args):
    from .fitting import FitProblem, fit

    freqs, data, magnitude_only = gio.read_spectrum_csv(args.data)
    problem = FitProblem(freqs, data, args.model, free=dict(args.free), fixed=dict(args.fixed),
                         magnitude_only=magnitude_only, db_scale=args.db)
    gio.write_fit_report(args.output, fit(problem))


def _cmd_fit_geometry(args):
    from .fitting import fit_global_geometry

    datasets = []
    for f_res, path in args.dataset:
        freqs, data, magnitude_only = gio.read_spectrum_csv(path)
        if magnitude_only:
            raise ConfigError(f"--dataset {path}: geometry fit needs complex data")
        datasets.append((f_res, freqs, data))
    result = fit_global_geometry(datasets, free=dict(args.free), fixed=dict(args.fixed))
    gio.write_fit_report(args.output, result)


def _cmd_anisotropy(args):
    from .anisotropy import AnisotropyParams, angle_sweep

    thetas = parse_range(args.theta, parse_angle)
    gamma = parse_frequency(args.gamma) if args.gamma else GAMMA_2PI
    p = AnisotropyParams(args.h_e0, args.h_a, gamma=gamma)
    freqs = angle_sweep(p, thetas, which=args.which)
    gio.write_anisotropy_csv(args.output, thetas, freqs)


def _cmd_pv_check(args):
    from .lambpv import pv_closed, pv_quadrature

    rows = []
    for x in parse_range(args.x):
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
    if not 0 <= args.noise_sigma < np.inf:
        raise ConfigError(f"--noise-sigma {args.noise_sigma}: must be finite and >= 0")
    p, grid = _load_single(args.config)
    spectrum = s21_single(p, grid)
    noisy = spectrum.s21 + gio.synth_noise(grid.n_points, args.noise_sigma, args.seed)
    gio.write_spectrum_csv(args.output, Spectrum(grid, noisy))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gsesim",
        description="Simulate and fit giant-spin-ensemble waveguide spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--output", required=True, help="output data file")
        p.add_argument("--manifest", default=None, help="manifest path (default: OUTPUT.manifest.json)")

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
    p.add_argument("--free", action="append", default=[], required=True,
                   help="name=guess or name=guess:lo:hi (repeatable; values in Hz)")
    p.add_argument("--fixed", action="append", default=[], help="name=value (repeatable)")
    p.add_argument("--db", action="store_true", help="fit magnitude data on a dB scale")
    p.set_defaults(run=_cmd_fit)

    p = sub.add_parser("fit-geometry", help="joint geometry/speed fit across spectra")
    common(p, config=False)
    p.add_argument("--dataset", action="append", required=True,
                   help="F_RES=PATH with a frequency suffix on F_RES (repeatable, >= 3)")
    p.add_argument("--free", action="append", default=[], required=True)
    p.add_argument("--fixed", action="append", default=[])
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


def _temporary(path):
    """A sibling of path in its directory, so that os.replace onto path is a rename."""
    head, tail = os.path.split(path)
    return os.path.join(head, f".{tail}.{os.getpid()}.tmp")


def main(argv=None):
    """Run one command; a failed run leaves every file as it found it.

    The command writes its data files, and main the manifest, under
    temporary sibling names; only when all are written do they replace
    their final names (through symlinks), one os.replace each. Each rename
    is atomic; the 2-4 renames of a run are not atomic as a group.
    """
    args = build_parser().parse_args(argv)
    # the run as given: every parsed argument, the output paths before they turn temporary
    config = {k: v for k, v in vars(args).items() if k != "run"}
    # the flags naming data files the command writes, then its manifest; and what it reads
    flags = [k for k in ("output", "eigen_output", "reflection_output") if getattr(args, k, None)]
    outputs = [getattr(args, k) for k in flags]
    manifest = args.manifest or args.output + ".manifest.json"
    written = outputs + [manifest]
    real, temporary = {}, {}
    try:
        # the manifest keeps the raw items in config; the command gets the parsed pairs
        for flag in _ITEMS:
            if hasattr(args, flag):
                setattr(args, flag, _parse_items(flag, getattr(args, flag)))
        inputs = [p for p in (getattr(args, "config", None), getattr(args, "data", None),
                              *(path for _, path in getattr(args, "dataset", []))) if p]
        seen = set(map(os.path.realpath, inputs))
        for path in written:
            real[path] = os.path.realpath(path)
            if real[path] in seen:
                raise ConfigError(f"{path}: names an input or another output of this run")
            if path.endswith(os.sep) or os.path.isdir(real[path]):
                raise IsADirectoryError(f"{path}: names a directory")
            seen.add(real[path])
        temporary = {path: _temporary(real[path]) for path in written}
        for flag in flags:
            setattr(args, flag, temporary[getattr(args, flag)])
        args.run(args)
        # hashed only now, so that a missing input fails with the command's own error
        gio.write_manifest(temporary[manifest], config, inputs, {p: temporary[p] for p in outputs})
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

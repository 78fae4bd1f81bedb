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
from .core import GAMMA_2PI, MAX_POINTS, FrequencyGrid, ModelError, ParameterNameError, Spectrum
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
    if np.unique(values, equal_nan=False).size < values.size:
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


def _single_from_topology(waveguide, topology):
    if len(topology.emitters) != 1:
        raise ConfigError("/emitters: this command needs exactly one emitter")
    return _two_point_gse(waveguide, topology.emitters[0], "/emitters/0")


def _nested_from_topology(waveguide, topology):
    from .nested import NestedParams

    if topology.classification != "nested":
        raise ConfigError(f"/emitters: topology is {topology.classification!r}, not nested")
    a, b = topology.emitters
    inner, outer = (a, b) if a.span[0] > b.span[0] else (b, a)
    gses = [_two_point_gse(waveguide, em, "/emitters") for em in (inner, outer)]
    gap_left = inner.span[0] - outer.span[0]
    gap_right = outer.span[1] - inner.span[1]
    if abs(gap_left - gap_right) > 1e-12 * (outer.span[1] - outer.span[0]):
        raise ConfigError("/emitters: simulate-nested needs a symmetric nesting")
    return NestedParams.from_geometry(*gses)


def _fitform_from_args(args):
    from .nested import FitFormParams

    return FitFormParams(
        parse_frequency(args.f_i),
        parse_frequency(args.f_i),  # the sweep sets f_o
        parse_frequency(args.kappa_i_g),
        parse_frequency(args.kappa_o_g),
        parse_frequency(args.beta_i),
        parse_frequency(args.beta_o),
        parse_frequency(args.j),
        parse_frequency(args.gamma),
    )


def _parse_free(items):
    free = {}
    for item in items:
        name, _, rest = item.partition("=")
        vals = rest.split(":")
        if not name or not rest or len(vals) not in (1, 3):
            raise ConfigError(f"--free {item!r}: expected name=guess or name=guess:lo:hi")
        try:
            guess = float(vals[0])
            lo = float(vals[1]) if len(vals) == 3 else -np.inf
            hi = float(vals[2]) if len(vals) == 3 else np.inf
        except ValueError as exc:
            raise ConfigError(f"--free {item!r}: {exc}") from None
        free[name] = (guess, lo, hi)
    return free


def _parse_fixed(items):
    fixed = {}
    for item in items:
        name, _, value = item.partition("=")
        if not name or not value:
            raise ConfigError(f"--fixed {item!r}: expected name=value")
        try:
            fixed[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--fixed {item!r}: {exc}") from None
    return fixed


def _cmd_simulate_single(args):
    from .single import s21_single

    waveguide, topology, grid = gio.load_config(args.config)
    p = _single_from_topology(waveguide, topology)
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


# the flags that only one sweep of `map` reads; the other sweep rejects them
_SWEEP_FLAGS = {
    "detuning": ("grid", "f_i", "kappa_i_g", "kappa_o_g", "beta_i", "beta_o", "j", "gamma"),
    "field": ("config", "h_a"),
}


def _flag_names(names):
    return ", ".join("--" + name.replace("_", "-") for name in names)


def _cmd_map(args):
    other = "field" if args.sweep == "detuning" else "detuning"
    stray = [name for name in _SWEEP_FLAGS[other] if getattr(args, name) is not None]
    if stray:
        raise ConfigError(f"map --sweep {args.sweep} does not take {_flag_names(stray)}")
    if args.sweep == "detuning":
        missing = [name for name in _SWEEP_FLAGS["detuning"] if getattr(args, name) is None]
        if missing:
            raise ConfigError(f"map --sweep detuning needs {_flag_names(missing)}")
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
    if args.config is None:
        raise ConfigError("map --sweep field needs --config")
    if args.eigen_output:
        raise ConfigError("--eigen-output applies only to map --sweep detuning")
    from .single import map_single_vs_field

    waveguide, topology, grid = gio.load_config(args.config)
    p = _single_from_topology(waveguide, topology)
    fields = _sweep_values(args.values)
    columns = map_single_vs_field(p, fields, 0.0 if args.h_a is None else args.h_a, grid)
    gio.write_map_csv(args.output, columns)


def _cmd_fit(args):
    from .fitting import FitProblem, fit

    freqs, data, magnitude_only = gio.read_spectrum_csv(args.data)
    problem = FitProblem(
        freqs, data, args.model,
        free=_parse_free(args.free),
        fixed=_parse_fixed(args.fixed),
        magnitude_only=magnitude_only,
        db_scale=args.db,
    )
    result = fit(problem)
    gio.write_fit_report(args.output, result)


def _cmd_fit_geometry(args):
    from .fitting import fit_global_geometry

    datasets = []
    for item in args.dataset:
        f_res_text, _, path = item.partition("=")
        if not path:
            raise ConfigError(f"--dataset {item!r}: expected F_RES=PATH")
        freqs, data, magnitude_only = gio.read_spectrum_csv(path)
        if magnitude_only:
            raise ConfigError(f"--dataset {path}: geometry fit needs complex data")
        datasets.append((parse_frequency(f_res_text), freqs, data))
    result = fit_global_geometry(datasets, free=_parse_free(args.free), fixed=_parse_fixed(args.fixed))
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
    waveguide, topology, grid = gio.load_config(args.config)
    p = _single_from_topology(waveguide, topology)
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
    # two-mode parameters for the detuning sweep, frequencies with unit suffix
    p.add_argument("--f-i", help="inner-mode frequency")
    p.add_argument("--kappa-i-g", help="inner radiative rate")
    p.add_argument("--kappa-o-g", help="outer radiative rate")
    p.add_argument("--beta-i", help="inner intrinsic rate")
    p.add_argument("--beta-o", help="outer intrinsic rate")
    p.add_argument("--j", help="coherent coupling")
    p.add_argument("--gamma", help="dissipative coupling")
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
    inputs = [p for p in (getattr(args, "config", None), getattr(args, "data", None),
                          *(item.partition("=")[2] for item in getattr(args, "dataset", []))) if p]
    real, temporary = {}, {}
    try:
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

"""CSV/JSON readers and writers shared by the CLI and the scripts.

All numeric CSV output uses shortest-round-trip float formatting (repr),
so every value parses back to the identical double. Readers reject
malformed rows with the offending line number; configuration errors carry
a JSON-pointer path to the bad key.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import warnings

import numpy as np

from .core import Emitter, FrequencyGrid, ModelError, Topology, Waveguide


class ConfigError(ValueError):
    """Bad run configuration; the message carries a JSON-pointer path."""


class DataFormatError(ValueError):
    """Malformed data file; the message carries the line number."""


def _db(mag):
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(mag)


def _write_table(path, header, blocks):
    """Write a CSV table block by block; each block is a sequence of columns.

    A cell is the repr of a Python float, the shortest string that
    round-trips the double; a scalar column repeats one value down the
    block, and a block of scalars alone is one row. Lines end with CRLF,
    as csv.writer's default dialect does. Only one block is formatted at
    a time, so a map is never held as text in full, and a column bitwise
    equal to the same column of the previous block reuses that block's
    text.
    """
    comma, crlf = itertools.repeat(","), itertools.repeat("\r\n")
    previous = {}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            columns = [np.asarray(column, dtype=float) for column in columns]
            if all(values.ndim == 0 for values in columns):
                columns = [values.reshape(1) for values in columns]  # one row
            cells = []
            for k, values in enumerate(columns):
                key = values.shape, values.tobytes()
                if k not in previous or previous[k][0] != key:
                    text = (itertools.repeat(repr(float(values))) if values.ndim == 0
                            else list(map(repr, values.tolist())))
                    previous[k] = key, text
                cells += previous[k][1], comma
            cells[-1] = crlf
            fh.write("".join(itertools.chain.from_iterable(zip(*cells))))


def write_spectrum_csv(path, spectrum):
    """Emit `frequency_hz,s21_re,s21_im,s21_mag,s21_db` rows."""
    s = spectrum.s21
    mag = np.abs(s)
    _write_table(
        path, ["frequency_hz", "s21_re", "s21_im", "s21_mag", "s21_db"],
        [(spectrum.frequencies, s.real, s.imag, mag, _db(mag))],
    )


_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)
# the suffixes numpy's loadtxt decompresses a path by
_COMPRESSED = (".bz2", ".gz", ".lzma", ".xz")


def _data_rows(path):
    """Yield (line number, text) of each row after the header, the lines grouped into rows
    as loadtxt groups them: a quoted cell may span lines, and blank lines are skipped.

    A row is named by its first line. One that csv cannot read, with a cell longer
    than its field size limit, raises DataFormatError.
    """
    import csv  # error paths only

    with open(path, encoding="utf-8", newline="") as fh:
        next(fh)
        lines = []  # the lines of the row being read
        rows = csv.reader(lines.append(line) or line for line in fh)
        try:
            for row in rows:
                if row:
                    yield rows.line_num + 2 - len(lines), "".join(lines)
                lines.clear()
        except csv.Error as exc:
            raise DataFormatError(f"{path}:{rows.line_num + 2 - len(lines)}: {exc}") from None


# the least value a cell of a column may hold, by header name; any other column takes any
# finite number
_LEAST = {"s21_mag": 0.0}


def _bad_column(table, least):
    """The index of the first column of table with a cell that is not finite or lies below
    that column's least value, or None. One column at a time, to keep the peak low."""
    return next((k for k, low in enumerate(least) if not np.all(np.isfinite(table[:, k]) & (table[:, k] >= low))), None)


def _read_table(path, pick):
    """Parse a CSV table into an (n_rows, k) array of finite doubles.

    pick maps the header's stripped, unquoted, lower-cased names to the k
    column indices to read. Cells in other columns are not read. Blank
    lines are skipped; a row that lacks a picked cell, whose picked cell
    is not a number, or whose picked cell is not finite or lies below its
    column's least value in _LEAST (-0.0 is not below 0.0) raises
    DataFormatError with its line number.
    """
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports put first
        with open(path, encoding="utf-8-sig") as fh:
            header = fh.readline()
        if not header:
            raise DataFormatError(f"{path}: empty file")
        cols = [c.strip().strip('"').lower() for c in header.split(",")]
        usecols = pick(cols)
        least = [_LEAST.get(cols[k], -np.inf) for k in usecols]
        # numpy reads a str path in chunks but walks an open file (or a bytes
        # path) line by line; it would also decompress a path by its suffix,
        # so such a name goes in as an open file
        name = os.fsdecode(path)
        plain = os.path.splitext(name)[1] not in _COMPRESSED
        try:
            with (warnings.catch_warnings(),
                  contextlib.nullcontext(name) if plain else open(path, encoding="utf-8") as source):
                # a header-only file is reported by the caller, not as a warning
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(source, skiprows=1, encoding="utf-8", usecols=usecols, **_LOADTXT)
            if _bad_column(table, least) is None:
                return table
            error = "cell out of range"
        except ValueError as exc:
            error = exc
        # error path only: loadtxt's row numbers skip blank lines and start at
        # 0 or 1 by error kind, so parse row by row to find the bad one
        for lineno, text in _data_rows(path):
            try:
                row = np.loadtxt([text], usecols=usecols, **_LOADTXT)
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: malformed row {text.rstrip()!r}") from None
            if (k := _bad_column(row, least)) is not None:
                rule = "finite" if least[k] == -np.inf else f"finite and >= {least[k]}"
                raise DataFormatError(f"{path}:{lineno}: {cols[usecols[k]]} must be {rule} {text.rstrip()!r}")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    # a guard: the pass above hands loadtxt the rows it failed on as a whole, and no
    # table is known that fails whole but on none of its rows
    raise DataFormatError(f"{path}: malformed table ({error})")


def read_spectrum_csv(path):
    """Parse a spectrum file; returns (freqs, data).

    Auto-detects a complex pair (s21_re, s21_im) versus a magnitude-only
    column (s21_mag), and the dtype of data tells which: complex S21 from
    the pair, real linear |S21| from s21_mag. Rejects missing headers and
    names the line of a malformed row, a NaN or infinite cell, a negative
    s21_mag, and a frequency not above the one before it. Only the
    frequency and the picked S21 columns are checked: a row may carry
    extra cells, or lack a cell of a column that is not read (s21_db or,
    when the pair is read, s21_mag).
    """
    def pick(cols):
        if "frequency_hz" not in cols:
            raise DataFormatError(f"{path}: missing header with a frequency_hz column")
        for names in (("frequency_hz", "s21_re", "s21_im"), ("frequency_hz", "s21_mag")):
            if set(names) <= set(cols):
                return [cols.index(c) for c in names]
        raise DataFormatError(f"{path}: need either s21_re/s21_im or s21_mag columns")

    table = _read_table(path, pick)
    freqs = table[:, 0].copy()
    if freqs.size < 2:
        raise DataFormatError(f"{path}: need at least 2 data rows")
    if np.any(freqs[1:] <= freqs[:-1]):
        # error path only: name the first row whose frequency is not above the one before it
        lineno, text = next(itertools.islice(_data_rows(path), np.argmax(freqs[1:] <= freqs[:-1]) + 1, None))
        raise DataFormatError(f"{path}:{lineno}: frequencies must be strictly increasing {text.rstrip()!r}")
    if table.shape[1] == 2:
        return freqs, table[:, 1].copy()
    # a view keeps -0.0 real parts and infinite imaginary parts, re + 1j*im does not
    return freqs, np.ascontiguousarray(table[:, 1:]).view(complex).ravel()


def write_map_csv(path, columns):
    """Emit `sweep_value,frequency_hz,s21_mag,s21_db` for (value, Spectrum) columns."""
    blocks = ((v, s.frequencies, (mag := s.magnitude), _db(mag)) for v, s in columns)
    _write_table(path, ["sweep_value", "frequency_hz", "s21_mag", "s21_db"], blocks)


def _distinct(column):
    """np.unique(column, equal_nan=False) without the numpy.ma import that np.unique makes."""
    ordered = np.sort(column)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def read_map_csv(path):
    """Parse a map file back into (sweep_values, freqs, |S21| matrix).

    Every listed cell is finite and >= 0, so NaN means only that the file
    does not list the cell. An empty or header-only file raises
    DataFormatError naming the file; a row without its sweep value,
    frequency or s21_mag, a non-numeric one among those three, a NaN or
    infinite one, a negative s21_mag, or a cell listed twice (+0.0 and
    -0.0 are one value) raises it with the line number. Only those three
    columns are read: a row may lack its s21_db or carry extra cells.
    """
    def pick(cols):
        if cols[:3] != ["sweep_value", "frequency_hz", "s21_mag"]:
            raise DataFormatError(f"{path}:1: unexpected map header {cols!r}")
        return [0, 1, 2]

    table = _read_table(path, pick)
    if table.size == 0:
        raise DataFormatError(f"{path}: no data rows")
    sweep, freqs = _distinct(table[:, 0]), _distinct(table[:, 1])
    # the row-major cell index, built in place of the sweep column (exact: far below 2**53)
    table[:, 0] = np.searchsorted(sweep, table[:, 0])
    table[:, 0] *= freqs.size
    table[:, 0] += np.searchsorted(freqs, table[:, 1])
    cell = table[:, 0].astype(np.intp)
    seen = np.zeros(sweep.size * freqs.size, dtype=bool)
    seen[cell] = True
    if np.count_nonzero(seen) < cell.size:
        # error path only: find the first repeat and the line it repeats
        first = {}
        for (lineno, text), c in zip(_data_rows(path), cell.tolist()):
            if c in first:
                raise DataFormatError(
                    f"{path}:{lineno}: repeats the cell of line {first[c]} {text.rstrip()!r}")
            first[c] = lineno
    mag = np.full((sweep.size, freqs.size), np.nan)
    mag.ravel()[cell] = table[:, 2]
    return sweep, freqs, mag


def write_eigen_csv(path, sweep_values, eigs):
    """Emit `sweep_value,re1_hz,im1_hz,re2_hz,im2_hz` eigenvalue traces."""
    eigs = np.asarray(eigs, dtype=complex).reshape(-1, 2)
    _write_table(
        path, ["sweep_value", "re1_hz", "im1_hz", "re2_hz", "im2_hz"],
        [(sweep_values, eigs[:, 0].real, eigs[:, 0].imag, eigs[:, 1].real, eigs[:, 1].imag)],
    )


def write_anisotropy_csv(path, thetas, freqs):
    """Emit `theta_rad,frequency_hz` rows."""
    _write_table(path, ["theta_rad", "frequency_hz"], [(thetas, freqs)])


def write_pv_csv(path, rows):
    """Emit `x,a_closed,a_quad,b_closed,b_quad,abs_err_a,abs_err_b` rows."""
    _write_table(
        path, ["x", "a_closed", "a_quad", "b_closed", "b_quad", "abs_err_a", "abs_err_b"],
        [np.asarray(rows, dtype=float).reshape(-1, 7).T],
    )


def _write_json(path, payload):
    """Write payload as JSON with sorted keys, two-space indents and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_fit_report(path, result):
    """Emit the fit result as a stable-key-order JSON report.

    A sigma that is not finite, as along a direction the data do not
    determine, is written as null: JSON has no infinity.
    """
    payload = {
        "params": {k: float(v) for k, v in result.values.items()},
        "sigmas": {k: float(v) if math.isfinite(v) else None for k, v in result.sigmas.items()},
        "residual_norm": float(result.residual_norm),
        "converged": bool(result.converged),
        "n_iter": int(result.n_iter),
    }
    _write_json(path, payload)


def synth_noise(n, noise_sigma, seed):
    """i.i.d. complex Gaussian noise with E|n|^2 = sigma^2, seeded."""
    if not 0 <= noise_sigma < math.inf:
        raise ModelError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    if noise_sigma == 0:
        return np.zeros(n, dtype=complex)
    rng = np.random.default_rng(seed)
    scale = noise_sigma / math.sqrt(2.0)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, record):
    """Serialise a run record next to its artifacts: package, version, then its blocks.

    record["config"] maps each parsed argument to its value and is written
    as it is. record["inputs"], the files the run read, and
    record["outputs"], the files it wrote, each map a recorded name to the
    file to hash; the manifest gives each name with its file's sha256.
    """
    from . import __version__

    payload = {"package": "gsesim", "version": __version__, "config": record["config"]}
    for block in ("inputs", "outputs"):
        payload[block] = {str(name): sha256_file(p) for name, p in record[block].items()}
    _write_json(path, payload)


def _get(node, key, pointer, kind=None):
    if not isinstance(node, dict) or key not in node:
        raise ConfigError(f"missing key at {pointer}/{key}")
    value = node[key]
    # a JSON true or false is a Python int, but never a valid value here
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ConfigError(f"wrong type at {pointer}/{key}: expected {kind}")
    return value


_NUM = (int, float)


@contextlib.contextmanager
def _at(where, error=ModelError):
    """Raise an error of type error from the block as a ConfigError prefixed with where, the
    place or text the user gave; other errors pass through."""
    try:
        yield
    except error as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_config(doc):
    """Validate a run-configuration document into model objects.

    Schema: {"waveguide": {"speed_mps"}, "emitters": [{"name", "f_res_hz",
    "beta_hz", "points": [{"position_m", "kappa_hz"}]}], "probe":
    {"f_start_hz", "f_stop_hz", "n_points"}}. Returns (Waveguide,
    Topology, FrequencyGrid); errors carry JSON-pointer paths.
    """
    wg_node = _get(doc, "waveguide", "", dict)
    with _at("/waveguide/speed_mps"):
        waveguide = Waveguide(float(_get(wg_node, "speed_mps", "/waveguide", _NUM)))

    em_node = _get(doc, "emitters", "", list)
    if not em_node:
        raise ConfigError("/emitters: must list at least one emitter")
    emitters = []
    for i, em in enumerate(em_node):
        ptr = f"/emitters/{i}"
        points = _get(em, "points", ptr, list)
        kappas, positions = [], []
        for k, pt in enumerate(points):
            kappas.append(float(_get(pt, "kappa_hz", f"{ptr}/points/{k}", _NUM)))
            positions.append(float(_get(pt, "position_m", f"{ptr}/points/{k}", _NUM)))
        with _at(ptr):
            emitters.append(
                Emitter(
                    _get(em, "name", ptr, str),
                    float(_get(em, "f_res_hz", ptr, _NUM)),
                    float(_get(em, "beta_hz", ptr, _NUM)),
                    tuple(kappas),
                    tuple(positions),
                )
            )

    with _at("/emitters"):
        topology = Topology(tuple(emitters))

    pr = _get(doc, "probe", "", dict)
    f_start = float(_get(pr, "f_start_hz", "/probe", _NUM))
    f_stop = float(_get(pr, "f_stop_hz", "/probe", _NUM))
    n_points = _get(pr, "n_points", "/probe", _NUM)
    if isinstance(n_points, float) and not n_points.is_integer():
        raise ConfigError(f"/probe/n_points: expected an integer, got {n_points!r}")
    with _at("/probe"):
        grid = FrequencyGrid(f_start, f_stop, int(n_points))
    return waveguide, topology, grid


def load_config(path):
    """Read and validate a JSON run configuration from disk, with or without
    a leading UTF-8 byte-order mark."""
    # ValueError: a decode error, bytes that are not UTF-8, or an integer too long to convert
    with open(path, encoding="utf-8-sig") as fh, _at(f"{path}: invalid JSON", ValueError):
        doc = json.load(fh)
    return parse_config(doc)

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


# the longest repr of a double, '-2.2250738585072014e-308', has 24 characters
_WIDTH = 24
# rows formatted at a time, so a long spectrum is never held as text in full
_ROWS = 2048
# 10**s, exact for s <= 22, and its Veltkamp split into two halves of at most 26 bits
_POW10 = np.array([float(10**s) for s in range(23)])
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _digits8(v):
    """The eight decimal digits of each uint64 below 10**8 as bytes, the first in the lowest.

    The value splits into two lanes of four digits, each of those into two
    of two digits, and each of those into two digits. A multiply and a shift
    divide every lane at once, exactly for lanes below 10**4 and 10**2.
    """
    hi = v // 10000
    v = hi | (v - hi * 10000) << 32
    hi = v * 5243 >> 19 & 0x0000007F0000007F
    v = hi | (v - hi * 100) << 16
    hi = v * 103 >> 10 & 0x000F000F000F000F
    return hi | (v - hi * 10) << 8


def _scaled(a):
    """(E, p, e, h) for doubles 1e-4 <= a < 1e16: E estimates the decimal exponent of a
    from np.log10, y = a * 10**(16 - E) = p + e exactly, and h = spacing(a) / 2 *
    10**(16 - E), which is exact.

    e comes from Dekker's product of the two halves of a and of 10**(16 - E)
    (Veltkamp's split), by separate multiplies and adds: an FMA would change it.
    """
    E = np.floor(np.log10(a)).astype(np.int64)  # in [-5, 16]: 10**(16 - E) is exact
    t = _POW10[16 - E]
    h = ((a.view(np.uint64) & 0x7FF0000000000000) - (53 << 52)).view(float) * t
    p = a * t
    a_hi = a * 134217729.0
    a_hi -= a_hi - a
    a_lo = a - a_hi
    t_hi, t_lo = _POW10_HI[16 - E], _POW10_LO[16 - E]
    e = a_hi * t_hi - p
    e += a_hi * t_lo
    e += a_lo * t_hi
    e += a_lo * t_lo
    return E, p, e, h


def _shortest(a):
    """(E, digits, ok) for doubles 1e-4 <= a < 1e16: with y, h and the estimate E as
    _scaled gives them, digits are the shortest digits within h of y, as a
    17-digit integer (zeros appended), and ok says where they hold: where
    1e16 <= y < 1e17, so that E was right, and no distance from y lies within
    1e-9 * h of h, where the parser's ties would decide.

    The 17-, 16- and 15-digit candidates are y rounded half to even to a
    multiple of 1, 10 and 100; the first is always within h > 0.55.
    """
    E, p, e, h = _scaled(a)
    ok = ((p - 1e16) + e >= 0) & (p < 1e17)  # a rounded sum keeps the sign of the exact one
    p = p.astype(np.uint64)  # an even integer where ok: p >= 2**53
    digits = p + np.rint(e).astype(np.int64).view(np.uint64)
    # y modulo 10 and modulo 100 are exact where ok: e is a multiple of 2**-46
    q = p // 10
    r = (p - q * 10).astype(float) + e
    k = np.floor((r + 5.0) / 10.0)
    r -= 10.0 * k
    q += k.astype(np.int64).view(np.uint64)
    q -= (r == -5.0) & (q % 2 == 1)  # a tie goes to the even candidate
    r = np.abs(r)
    ok &= np.abs(r - h) > 1e-9 * h
    digits = np.where(r < h, q * 10, digits)
    q = p // 100
    r = (p - q * 100).astype(float) + e
    k = r >= 50.0  # no tie counts: h < 12
    r = np.abs(r - 100.0 * k)
    ok &= np.abs(r - h) > 1e-9 * h
    digits = np.where(r < h, (q + k) * 100, digits)
    return E, digits, ok & (digits < 10**17)


def _text(digits, key):
    """Lay out 17-digit integers as repr text, an (n, _WIDTH) uint8 array padded with NUL.

    key, sorted, is E + 5 + 32 * (1 if negative) for the decimal exponent E
    in [-4, 15], or -1 for a row left blank. Trailing zeros are dropped, but
    not those before the point or the first after it.
    """
    top = digits // 10**16
    rest = digits - top * 10**16
    hi = rest // 10**8
    # the digits are bytes 7 to 23 of three little-endian words (on any host), and a
    # trailing zero is NUL: the high bit of each nonzero digit's byte, spread to every
    # byte before it, marks the bytes to keep, all of the middle word's if the last keeps any
    words = np.empty((digits.size, 3), "<u8")
    words[:, 0] = (top + ord("0")) << 56
    keep = 0
    for column, d in ((2, _digits8(rest - hi * 10**8)), (1, _digits8(hi))):
        flags = (d + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080 | (keep & 0x80) << 56
        for m in (8, 16, 32):
            flags |= flags >> m
        keep = (flags >> 7) * 0xFF
        words[:, column] = (d + 0x3030303030303030) & keep
    dig = words.view(np.uint8)[:, 7:]
    text = np.zeros((digits.size, _WIDTH), np.uint8)
    # each group of rows with one sign and exponent is laid out by slicing
    for i, j in itertools.pairwise([0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), key.size]):
        if i == j or key[i] < 0:
            continue
        exp, sign = int(key[i]) % 32 - 5, int(key[i]) // 32
        block, cells = text[i:j], dig[i:j]
        if sign:
            block[:, 0] = ord("-")
        if exp >= 0:
            np.bitwise_or(cells[:, :exp + 1], ord("0"), out=block[:, sign:sign + exp + 1])
            block[:, sign + exp + 1] = ord(".")
            block[:, sign + exp + 2:sign + 18] = cells[:, exp + 1:]
            block[:, sign + exp + 2] |= ord("0")
        else:
            block[:, sign:sign + 1 - exp] = np.frombuffer(b"0.000", np.uint8)[:1 - exp]
            block[:, sign + 1 - exp:sign + 18 - exp] = cells
    return text


def _repr_bytes(x):
    """The bytes of repr(float(v)) for each v of a column, an (n, _WIDTH) uint8 array padded with NUL.

    The fast path takes a finite v with 1e-4 <= |v| < 1e16 whose mantissa is
    not a power of two: repr writes it positionally, with the fewest digits
    that read back as v, the closest to v among those. For E the decimal
    exponent of v, they are the shortest of y = |v| * 10**(16 - E) rounded to
    17, 16 and 15 digits that lies within half the spacing of v (scaled as y)
    of y. Every other value takes repr() itself, as does one whose E, from
    np.log10, proves wrong, or one too near a tie to tell.
    """
    x = np.asarray(x, dtype=float).ravel()
    a = np.abs(x)
    # the mantissa bits are those left after shifting out the sign and the exponent
    fast = (a >= 1e-4) & (a < 1e16) & (x.view(np.uint64) << 12 != 0)
    rows = np.flatnonzero(fast)
    E, digits, ok = _shortest(a[rows])
    key = np.where(ok, E + 5 + 32 * (x[rows] < 0), -1).astype(np.int8)
    if key.size and (key != key[0]).any():
        order = np.argsort(key, kind="stable")
        key, digits, rows = key[order], digits[order], rows[order]
    out = np.zeros((x.size, _WIDTH), np.uint8)
    out.view(f"V{_WIDTH}")[rows] = _text(digits, key).view(f"V{_WIDTH}")
    bad = np.concatenate((np.flatnonzero(~fast), rows[key < 0]))
    if bad.size:
        out[bad] = np.array([repr(v) for v in x[bad].tolist()], dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    return out


def _write_table(path, header, blocks):
    """Write a CSV table block by block; each block is a sequence of columns.

    A cell is the repr of a Python float, the shortest string that
    round-trips the double; a scalar column repeats one value down the
    block, a block of scalars alone is one row, and the shortest column
    sets a block's row count. Lines end with CRLF, as csv.writer's default
    dialect does. At most _ROWS rows are formatted at a time, all of their
    cells in one _repr_bytes call; a column of a block that fits in one
    such piece reuses the text of the previous block's column if the two
    are bitwise equal.
    """
    previous = {}
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for columns in blocks:
            columns = [np.asarray(column, dtype=float) for column in columns]
            n = min((values.size for values in columns if values.ndim), default=1)
            for start in range(0, n, _ROWS):
                stop = min(start + _ROWS, n)
                cells = [values[start:stop] if values.ndim else values.reshape(1) for values in columns]
                keys = [(c.shape, c.tobytes()) if n <= _ROWS else None for c in cells]
                fresh = [k for k, key in enumerate(keys) if key is None or previous.get(k, (None,))[0] != key]
                if fresh:
                    text = _repr_bytes(np.concatenate([cells[k] for k in fresh]))
                    ends = np.cumsum([cells[k].size for k in fresh]).tolist()
                    for k, i, j in zip(fresh, [0, *ends], ends):
                        previous[k] = keys[k], text[i:j]
                # each cell takes _WIDTH bytes and a comma, the last a CRLF; NUL padding is dropped
                table = np.zeros((stop - start, (_WIDTH + 1) * len(cells) + 1), np.uint8)
                for k in range(len(cells)):
                    table[:, (_WIDTH + 1) * k:(_WIDTH + 1) * k + _WIDTH] = previous[k][1]
                table[:, _WIDTH::_WIDTH + 1] = ord(",")
                table[:, -2:] = (ord("\r"), ord("\n"))
                fh.write(table.tobytes().translate(None, b"\0"))


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
    with open(path, "w", encoding="utf-8") as fh:
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

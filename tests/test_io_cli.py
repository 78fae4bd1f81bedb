import dataclasses
import hashlib
import json
import math
import os
import shlex
import struct
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gsesim
import test_golden as golden
from gsesim import cli, core, fitting, multipoint, nested
from gsesim.cli import main, parse_angle, parse_frequency, parse_range
from gsesim.core import FrequencyGrid, ModelError, Spectrum, classify_topology
from gsesim.io import (
    _repr_bytes,
    _write_table,
    ConfigError,
    DataFormatError,
    load_config,
    parse_config,
    read_map_csv,
    read_spectrum_csv,
    synth_noise,
    write_map_csv,
    write_spectrum_csv,
)
from conftest import (BETA_INNER, KAPPA_INNER, L_INNER, L_OUTER, SPEED, TWO_MODE, cli_flags, fresh_python,
                      strict_json)
from reference import _write_table as write_table_per_row

# any finite double: hypothesis draws ±0.0, subnormals and values near 1e±308
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1.7976931348623157e308, -3.0] * 3


def same_doubles(a, b):
    """Bitwise equality, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# any finite double, plus the signed zeros, the smallest subnormals, the
# infinities, nan and the largest doubles
CELL = FINITE | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
                                 1.7976931348623157e308, -1.7976931348623157e308])


@st.composite
def table_blocks(draw):
    """1-4 blocks of 1-4 columns; a column is a scalar or a list of 1-12 cells.

    A column may repeat the same column of the previous block exactly, or
    repeat it except for the sign of one zero.
    """
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        previous = blocks[-1] if blocks else []
        columns = []
        for k in range(draw(st.integers(1, 4))):
            how = draw(st.sampled_from(["new", "repeat", "flip zero"])) if k < len(previous) else "new"
            if how == "new":
                columns.append(draw(CELL | st.lists(CELL, min_size=1, max_size=12)))
            elif how == "repeat":
                columns.append(previous[k])
            else:
                # make one cell of the previous column a zero, and this one its negation
                old = previous[k]
                zero = draw(st.sampled_from([0.0, -0.0]))
                if isinstance(old, list):
                    i = draw(st.integers(0, len(old) - 1))
                    previous[k] = old[:i] + [zero] + old[i + 1:]
                    columns.append(old[:i] + [-zero] + old[i + 1:])
                else:
                    previous[k] = zero
                    columns.append(-zero)
        if not any(isinstance(c, list) for c in columns):
            columns[0] = [columns[0]]  # a block of scalars alone has no length
        blocks.append(columns)
    return blocks


def make_config(tmp_path, f_res=4330917874.396135, n_points=801, half_span=20e6):
    doc = {
        "waveguide": {"speed_mps": SPEED},
        "emitters": [
            {
                "name": "inner",
                "f_res_hz": f_res,
                "beta_hz": BETA_INNER,
                "points": [
                    {"position_m": 0.0, "kappa_hz": KAPPA_INNER},
                    {"position_m": L_INNER, "kappa_hz": KAPPA_INNER},
                ],
            }
        ],
        "probe": {
            "f_start_hz": f_res - half_span,
            "f_stop_hz": f_res + half_span,
            "n_points": n_points,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def emitters_config(path, *emitters):
    """Write make_config's document with these emitters, each a list of (position_m, kappa_hz)."""
    doc = json.loads(open(make_config(path.parent)).read())
    doc["emitters"] = [{"name": f"e{k}", "f_res_hz": 4.33e9, "beta_hz": BETA_INNER,
                        "points": [{"position_m": x, "kappa_hz": kappa} for x, kappa in points]}
                       for k, points in enumerate(emitters)]
    path.write_text(json.dumps(doc))


class TestSpectrumCsv:
    def test_round_trip_to_last_ulp(self, tmp_path):
        grid = FrequencyGrid(4.3e9, 4.4e9, 257)
        rng = np.random.default_rng(1)
        values = rng.normal(size=257) + 1j * rng.normal(size=257)
        values[100] = 0.0
        s = Spectrum(grid, values)
        path = tmp_path / "s.csv"
        write_spectrum_csv(path, s)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[0] == b"frequency_hz,s21_re,s21_im,s21_mag,s21_db"
        assert lines[101].endswith(b",0.0,0.0,0.0,-inf")
        assert lines[-1] == b"" and len(lines) == 259
        freqs, data = read_spectrum_csv(path)
        assert data.dtype == complex
        assert np.array_equal(freqs, grid.frequencies)
        assert np.array_equal(data, s.s21)

    def test_magnitude_column_reads_as_real(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "frequency_hz,s21_mag\n1000000000.0,0.9\n1000001000.0,0.8\n"
        )
        freqs, data = read_spectrum_csv(path)
        assert data.dtype == float

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1e9,0.5\n2e9,0.6\n")
        with pytest.raises(DataFormatError):
            read_spectrum_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "frequency_hz,s21_mag\n1000000000.0,0.9\n1000001000.0,oops\n"
        )
        with pytest.raises(DataFormatError, match=":3:"):
            read_spectrum_csv(path)

    def test_unsorted_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "frequency_hz,s21_mag\n2000000000.0,0.9\n1000000000.0,0.8\n"
        )
        with pytest.raises(DataFormatError):
            read_spectrum_csv(path)

    @pytest.mark.parametrize("rows, where", [
        ("1e9,0.9\n2e9,0.8\n\n2e9,0.7\n3e9,0.6\n", ":5: frequencies must be strictly increasing '2e9,0.7'$"),
        ("1e9,0.9\n\n2e9,0.8\n3e9,0.7\n0.5e9,0.6\n", ":6: frequencies must be strictly increasing '0.5e9,0.6'$"),
    ], ids=["repeated", "decreasing"])
    def test_unsorted_frequency_names_its_line(self, tmp_path, rows, where):
        # the error named the file but no line
        path = tmp_path / "bad.csv"
        path.write_text("frequency_hz,s21_mag\n" + rows)
        with pytest.raises(DataFormatError, match=where):
            read_spectrum_csv(path)

    @pytest.mark.parametrize("header, row, where", [
        ("frequency_hz,s21_mag", "2e9,-0.5", ":4: s21_mag must be finite and >= 0.0 '2e9,-0.5'$"),
        ("frequency_hz,s21_mag", "2e9,-5e-324", ":4: s21_mag must be finite and >= 0.0 "),
        ("frequency_hz,s21_mag", "2e9,nan", ":4: s21_mag must be finite and >= 0.0 "),
        ("frequency_hz,s21_mag", "2e9,inf", ":4: s21_mag must be finite and >= 0.0 "),
        ("frequency_hz,s21_re,s21_im", "2e9,nan,0.1", ":4: s21_re must be finite '2e9,nan,0.1'$"),
        ("frequency_hz,s21_re,s21_im", "2e9,0.5,-inf", ":4: s21_im must be finite "),
        ("frequency_hz,s21_re,s21_im", "nan,nan,0.1", ":4: frequency_hz must be finite "),
    ], ids=["negative-magnitude", "negative-subnormal-magnitude", "nan-magnitude", "inf-magnitude",
            "nan-real-part", "inf-imaginary-part", "nan-frequency-first"])
    def test_bad_cell_names_its_line(self, tmp_path, header, row, where):
        # a negative or infinite magnitude and a NaN or infinite S21 part used to read
        path = tmp_path / "bad.csv"
        good = "1e9,0.9\n" if header.endswith("s21_mag") else "1e9,0.9,0.1\n"
        path.write_text(f"{header}\n{good}\n{row}\n" + good.replace("1e9", "3e9"))
        with pytest.raises(DataFormatError, match=where):
            read_spectrum_csv(path)

    def test_negative_zero_magnitude_reads(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("frequency_hz,s21_mag\n1e9,-0.0\n2e9,0.0\n")
        freqs, data = read_spectrum_csv(path)
        assert same_doubles(data, [-0.0, 0.0])

    @settings(max_examples=60, deadline=None)
    @given(freqs=st.lists(FINITE, min_size=2, max_size=12, unique=True).map(sorted),
           cells=st.lists(FINITE, min_size=24, max_size=24))
    @example(freqs=[-1.7976931348623157e308, -1e-300, -2.5e-310, -0.0, 5e-324, 1e300],
             cells=EDGE)
    def test_round_trip_any_finite_double(self, tmp_path_factory, freqs, cells):
        n = len(freqs)
        s21 = np.empty(n, dtype=complex)
        s21.real, s21.imag = cells[:n], cells[n:2 * n]
        path = tmp_path_factory.mktemp("spectrum") / "s.csv"
        with np.errstate(over="ignore"):  # |s21| of the largest doubles is inf
            write_spectrum_csv(path, SimpleNamespace(frequencies=np.array(freqs), s21=s21))
        got_freqs, data = read_spectrum_csv(path)
        assert data.dtype == complex
        assert same_doubles(got_freqs, freqs)
        assert same_doubles(data.real, cells[:n]) and same_doubles(data.imag, cells[n:2 * n])

    def test_quoted_cells_parse_as_before(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('"frequency_hz","s21_re","s21_im"\r\n'
                        '"1000000000.0","0.5",-0.25\r\n1000001000.0,"-0.0"," 1e-310"\r\n')
        freqs, data = read_spectrum_csv(path)
        assert data.dtype == complex
        assert same_doubles(freqs, [1e9, 1.000001e9])
        assert same_doubles(data.real, [0.5, -0.0]) and same_doubles(data.imag, [-0.25, 1e-310])

    @pytest.mark.parametrize("row", ["1000002000.0,oops", "1000002000.0", "nan,0.7", "inf,0.7"],
                             ids=["non-numeric", "short-row", "nan-frequency", "inf-frequency"])
    def test_blank_lines_keep_file_line_numbers(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            "frequency_hz,s21_mag\n1000000000.0,0.9\n\n1000001000.0,0.8\n\n" + row + "\n"
        )
        with pytest.raises(DataFormatError, match=":6: "):
            read_spectrum_csv(path)

    def test_readers_check_only_the_columns_they_read(self, tmp_path):
        # extra cells, a missing s21_db, a non-numeric unread cell, and a
        # negative or NaN cell in a column that is not read all pass
        spectrum = tmp_path / "s.csv"
        spectrum.write_text("frequency_hz,s21_re,s21_im,s21_mag,s21_db\n"
                            "1e9,0.5,0.1\n2e9,0.4,0.2,0.45,x,99\n3e9,0.3,0.3,-0.5,nan\n")
        freqs, data = read_spectrum_csv(spectrum)
        assert data.dtype == complex and freqs.tolist() == [1e9, 2e9, 3e9]
        assert data.tolist() == [0.5 + 0.1j, 0.4 + 0.2j, 0.3 + 0.3j]
        path = tmp_path / "map.csv"
        path.write_text("sweep_value,frequency_hz,s21_mag,s21_db\n"
                        "0.0,1e9,0.5\n0.0,2e9,0.4,x\n1.0,1e9,0.3,nan,-7\n1.0,2e9,0.2,-14.0\n")
        sweep, freqs, mag = read_map_csv(path)
        assert sweep.tolist() == [0.0, 1.0] and freqs.tolist() == [1e9, 2e9]
        assert mag.tolist() == [[0.5, 0.4], [0.3, 0.2]]

    def test_header_only_file_raises_without_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("frequency_hz,s21_re,s21_im,s21_mag,s21_db\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="at least 2 data rows"):
                read_spectrum_csv(path)

    def test_map_round_trip(self, tmp_path):
        grid = FrequencyGrid(4.3e9, 4.4e9, 11)
        cols = [
            (float(v), Spectrum(grid, np.full(11, 0.5 + 0.1j * v)))
            for v in range(3)
        ]
        path = tmp_path / "map.csv"
        write_map_csv(path, cols)
        sweep, freqs, mag = read_map_csv(path)
        assert sweep.tolist() == [0.0, 1.0, 2.0]
        assert mag.shape == (3, 11)
        assert mag[2, 0] == abs(0.5 + 0.2j)

    @settings(max_examples=60, deadline=None)
    @given(sweep=st.lists(FINITE, min_size=1, max_size=4, unique=True),
           freqs=st.lists(FINITE, min_size=1, max_size=6, unique=True),
           cells=st.lists(FINITE, min_size=24, max_size=24))
    @example(sweep=[1e300, -0.0, -5e-324], freqs=[1.7976931348623157e308, -2.5e-310, 0.0, -1e-300],
             cells=EDGE)
    def test_map_round_trip_any_finite_double(self, tmp_path_factory, sweep, freqs, cells):
        # a magnitude is >= 0: a negative cell is flipped, and -0.0 stays covered
        c = np.array(cells[:len(sweep) * len(freqs)]).reshape(len(sweep), len(freqs))
        mags = np.where(c < 0, -c, c)
        columns = [(v, SimpleNamespace(frequencies=np.array(freqs), magnitude=m))
                   for v, m in zip(sweep, mags)]
        path = tmp_path_factory.mktemp("map") / "map.csv"
        write_map_csv(path, columns)
        got_sweep, got_freqs, got_mag = read_map_csv(path)
        i, j = np.argsort(sweep), np.argsort(freqs)
        assert same_doubles(got_sweep, np.array(sweep)[i])
        assert same_doubles(got_freqs, np.array(freqs)[j])
        assert same_doubles(got_mag, mags[i][:, j])

    @pytest.mark.parametrize(
        "text, where",
        [
            ("", "empty file"),
            ("sweep_value,frequency_hz,s21_mag,s21_db\r\n0.0,1e9,0.5,-6.0\r\n0.0,2e9\r\n", ":3:"),
            ("sweep_value,frequency_hz,s21_mag,s21_db\r\n0.0,1e9,oops,-6.0\r\n", ":2:"),
            ("sweep_value,frequency_hz,s21_mag,s21_db\r\nnan,1e9,0.5,-6.0\r\n0.0,1e9,0.5,-6.0\r\n", ":2:"),
            ("sweep_value,frequency_hz,s21_mag,s21_db\r\n0.0,1e9,0.5,-6.0\r\n0.0,-inf,0.5,-6.0\r\n", ":3:"),
            # the reader used to keep the last magnitude of a repeated cell without a word
            ("sweep_value,frequency_hz,s21_mag,s21_db\r\n1.0,4e9,0.5,-6.0\r\n1.0,5e9,0.7,-3.1\r\n\r\n"
             "1.0,4e9,0.9,-0.9\r\n", ":5: repeats the cell of line 2 "),
            ("sweep_value,frequency_hz,s21_mag,s21_db\r\n0.0,4e9,0.5,-6.0\r\n-0.0,4e9,0.9,-0.9\r\n",
             ":3: repeats the cell of line 2 "),
            # the reader used to return three empty arrays
            ("sweep_value,frequency_hz,s21_mag,s21_db\r\n", "map.csv: no data rows"),
            ("sweep,frequency_hz,s21_mag,s21_db\r\n0.0,1e9,0.5,-6.0\r\n",
             r"map.csv:1: unexpected map header \['sweep', 'frequency_hz', 's21_mag', 's21_db'\]"),
            # a quoted cell that spans two lines is one row to loadtxt; the error
            # passes walked lines, and named line 2 for the bad row on line 6
            ("sweep_value,frequency_hz,s21_mag,s21_db\r\n1,\"0.5\r\n\",0.1,0.5,-6\r\n1,1.5,0.5,-6\r\n"
             "1,2.5,0.5,-6\r\n2,x,0.5,-6\r\n", ":6: malformed row '2,x,0.5,-6'$"),
            ("sweep_value,frequency_hz,s21_mag,s21_db\r\n1,\"0.5\r\n\",0.1,-6\r\n\r\n1,0.5,0.7,-6\r\n",
             ":5: repeats the cell of line 2 '1,0.5,0.7,-6'$"),
            # a row csv cannot split, with a cell beyond its field size limit
            ("sweep_value,frequency_hz,s21_mag,s21_db\r\n0.0,1e9,0.5,-6.0\r\n0.0,2e9," + "x" * 131073 + "\r\n",
             r":3: field larger than field limit \(131072\)$"),
        ],
        ids=["empty", "short-row", "non-numeric", "nan-sweep-value", "inf-frequency", "duplicate-cell",
             "duplicate-cell-signed-zero", "header-only", "wrong-header", "quoted-cell-across-lines",
             "duplicate-after-quoted-cell-across-lines", "cell-beyond-csv-field-limit"],
    )
    def test_malformed_map_rejected(self, tmp_path, text, where):
        path = tmp_path / "map.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=where):
            read_map_csv(path)

    @pytest.mark.parametrize("mag", ["nan", "inf", "-0.25"])
    def test_map_rejects_a_listed_magnitude_out_of_range(self, tmp_path, mag):
        # the reader returned such a cell as it is, so a NaN in the matrix
        # did not mean only that the file does not list the cell
        path = tmp_path / "map.csv"
        path.write_text("sweep_value,frequency_hz,s21_mag,s21_db\r\n0.0,1e9,0.5,-6.0\r\n\r\n"
                        f"0.0,2e9,{mag},-6.0\r\n1.0,1e9,0.3,-10.5\r\n")
        with pytest.raises(DataFormatError, match=f":4: s21_mag must be finite and >= 0.0 '0.0,2e9,{mag},-6.0'$"):
            read_map_csv(path)


class TestBulkParse:
    @pytest.mark.parametrize("read, text", [
        (read_map_csv, "sweep_value,frequency_hz,s21_mag,s21_db\r\n0.0,4e9,0.5,-6.0\r\n"),
        (read_spectrum_csv, "frequency_hz,s21_mag\r\n1e9,0.9\r\n2e9,0.8\r\n"),
    ], ids=["map", "spectrum"])
    def test_loadtxt_opens_the_file_itself(self, tmp_path, monkeypatch, read, text):
        # numpy reads a path in chunks; an open file it walks one line at a time
        path = tmp_path / "table.csv"
        path.write_text(text)
        sources = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda source, **kw: sources.append(source) or loadtxt(source, **kw))
        read(path)
        assert len(sources) == 1 and isinstance(sources[0], (str, os.PathLike))

    def test_map_index_peak_memory(self, tmp_path):
        # the parsed 81 x 2001 table, three doubles a row, is 3.9 MB; two
        # np.unique(..., return_inverse=True) calls over its coordinate
        # columns took the peak to 11.9 MB
        freqs = np.linspace(4.3e9, 4.4e9, 2001)
        mags = np.random.default_rng(1).uniform(size=(81, freqs.size))
        path = tmp_path / "map.csv"
        write_map_csv(path, [(v, SimpleNamespace(frequencies=freqs, magnitude=m))
                             for v, m in zip(np.linspace(-2e6, 2e6, 81), mags)])
        read_map_csv(path)  # the first call imports modules that numpy loads lazily
        tracemalloc.start()
        try:
            _, _, got = read_map_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_doubles(got, mags)
        assert peak <= 2 * (3 * mags.nbytes)

    @pytest.mark.parametrize("name, kind", [("spectrum.csv", os.fsencode), ("spectrum.csv.gz", str)],
                             ids=["bytes-path", "gz-suffix"])
    def test_any_path_reads_as_text(self, tmp_path, name, kind):
        # loadtxt iterates a bytes path and decompresses a path named *.gz
        path = tmp_path / name
        path.write_text("frequency_hz,s21_mag\r\n1e9,0.9\r\n2e9,0.8\r\n")
        freqs, data = read_spectrum_csv(kind(path))
        assert data.dtype == float and same_doubles(freqs, [1e9, 2e9]) and same_doubles(data, [0.9, 0.8])


def with_bom(path):
    """A copy of path behind a UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write."""
    copy = path.with_name("bom-" + path.name)
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads like the same file without it."""

    def test_spectrum(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(path, Spectrum(FrequencyGrid(4.3e9, 4.4e9, 11), np.linspace(0.1, 0.9, 11) + 0.2j))
        plain, bom = read_spectrum_csv(path), read_spectrum_csv(with_bom(path))
        assert [np.asarray(x).tobytes() for x in plain] == [np.asarray(x).tobytes() for x in bom]

    def test_map(self, tmp_path):
        grid = FrequencyGrid(4.3e9, 4.4e9, 11)
        path = tmp_path / "map.csv"
        write_map_csv(path, [(float(v), Spectrum(grid, np.full(11, 0.5 + 0.1j * v))) for v in range(3)])
        plain, bom = read_map_csv(path), read_map_csv(with_bom(path))
        assert all(same_doubles(a, b) for a, b in zip(plain, bom))

    def test_config(self, tmp_path):
        path = Path(make_config(tmp_path))
        assert load_config(with_bom(path)) == load_config(path)


class TestWriteTable:
    @settings(max_examples=200, deadline=None)
    @given(blocks=table_blocks())
    @example(blocks=[[1.5, [4e9, 4.1e9], [0.5, -0.0]], [2.5, [4e9, 4.1e9], [0.25, 0.0]]])
    @example(blocks=[[[0.0, 1.0], 7.0], [[-0.0, 1.0], [7.0]], [[-0.0, 1.0], 7.0]])
    def test_bytes_match_the_per_row_writer(self, tmp_path_factory, blocks):
        directory = tmp_path_factory.mktemp("table")
        header = ["a", "b", "c", "d"]
        _write_table(directory / "new.csv", header, blocks)
        write_table_per_row(directory / "reference.csv", header, blocks)
        assert (directory / "new.csv").read_bytes() == (directory / "reference.csv").read_bytes()

    def test_blocks_longer_than_one_piece(self, tmp_path):
        # 5000 rows are three pieces of _ROWS rows; the longer column is cut at the shorter
        rng = np.random.default_rng(3)
        freqs = np.linspace(4.3e9, 4.4e9, 5001)
        blocks = [[0.5, freqs, rng.uniform(size=5000)], [1.5, freqs, rng.uniform(size=5001)]]
        _write_table(tmp_path / "new.csv", ["a", "b", "c"], blocks)
        write_table_per_row(tmp_path / "reference.csv", ["a", "b", "c"], blocks)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_peak_memory_does_not_grow_with_the_rows(self, tmp_path):
        # a 200 001-point spectrum and an 81 x 2001 map; every cell as a Python str, the
        # spectrum alone peaked at 118 MiB. Of the bound, 4.6 MiB are the spectrum's
        # frequency, magnitude and dB columns, which write_spectrum_csv computes
        rng = np.random.default_rng(5)
        n = 200_001
        spectrum = Spectrum(FrequencyGrid(4.2e9, 4.4e9, n), rng.standard_normal(n) + 1j * rng.standard_normal(n))
        freqs = np.linspace(4.3e9, 4.4e9, 2001)
        columns = [(v, SimpleNamespace(frequencies=freqs, magnitude=m))
                   for v, m in zip(np.linspace(-2e6, 2e6, 81), rng.uniform(size=(81, freqs.size)))]
        # the first call imports modules that numpy loads lazily
        write_spectrum_csv(tmp_path / "first.csv", Spectrum(FrequencyGrid(1.0, 2.0, 3), np.ones(3)))
        for write in (lambda: write_spectrum_csv(tmp_path / "spectrum.csv", spectrum),
                      lambda: write_map_csv(tmp_path / "map.csv", columns)):
            tracemalloc.start()
            try:
                write()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 << 20, peak

    def test_block_of_scalars_is_one_row(self, tmp_path):
        # in a child whose address space is capped 512 MB above its size after
        # import: a writer that repeats the scalars without end fails there
        # with MemoryError instead of hanging the suite
        path = tmp_path / "angle.csv"
        proc = fresh_python("-c", (
            "import os, resource, sys\n"
            "from gsesim.io import write_anisotropy_csv\n"
            "size = int(open('/proc/self/statm').read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + (512 << 20), hard))\n"
            "write_anisotropy_csv(sys.argv[1], 0.5, 4.0e9)\n"
        ), str(path))
        assert proc.returncode == 0, proc.stderr
        assert path.read_bytes() == b"theta_rad,frequency_hz\r\n0.5,4000000000.0\r\n"


class TestGridPoints:
    """A grid forms its points once; every spectrum on it and every writer reads that one array."""

    Q = nested.FitFormParams(4.35e9, 4.35e9, 1.15e6, 1.26e2, 1.54e6, 0.86e6, 1.01e6, 3.28e2)
    F_O = 4.35e9 + np.linspace(-10e6, 10e6, 81)

    def detuning_map(self, grid):
        return nested.map_nested_vs_detuning(self.Q, self.F_O, grid)

    def test_a_map_built_and_written_forms_the_grid_once(self, tmp_path, monkeypatch):
        grid = FrequencyGrid(4.33e9, 4.37e9, 2001)
        calls = []
        linspace = np.linspace
        monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: calls.append(args) or linspace(*args, **kwargs))
        write_map_csv(tmp_path / "map.csv", self.detuning_map(grid))
        assert calls == [(grid.f_start, grid.f_stop, grid.n_points)]

    def test_one_read_only_array_per_grid(self, nested_topology, waveguide):
        grid = FrequencyGrid(4.33e9, 4.37e9, 2001)
        f = grid.frequencies
        assert f is grid.frequencies and not f.flags.writeable
        with pytest.raises(ValueError):
            f[0] = 0.0
        assert f.tobytes() == np.linspace(grid.f_start, grid.f_stop, grid.n_points).tobytes()
        assert all(s.frequencies is f for _, s in self.detuning_map(grid))
        assert multipoint.s_matrix(nested_topology, waveguide, grid, convention="probe").transmission.frequencies is f
        # the formed points are no field: equality and hash are those of the three numbers
        fresh = FrequencyGrid(4.33e9, 4.37e9, 2001)
        assert fresh == grid and hash(fresh) == hash(grid)
        assert dataclasses.replace(grid, n_points=11).frequencies.size == 11

    def test_the_shared_frequency_column_is_formatted_once(self, tmp_path, monkeypatch):
        import gsesim.io as io

        sizes = []
        repr_bytes = io._repr_bytes
        monkeypatch.setattr(io, "_repr_bytes", lambda x: sizes.append(np.size(x)) or repr_bytes(x))
        write_map_csv(tmp_path / "map.csv", self.detuning_map(FrequencyGrid(4.33e9, 4.37e9, 2001)))
        # per column its sweep value, magnitudes and dB values; the frequencies once
        assert sum(sizes) == 81 * (1 + 2 * 2001) + 2001


def repr_mismatches(values):
    """The values whose _repr_bytes row is not the bytes of repr(float(value)), NUL-padded to 24."""
    rows = _repr_bytes(np.array(values, dtype=float))
    assert rows.shape == (len(values), 24) and rows.dtype == np.uint8
    return [v for v, row in zip(values, rows) if row.tobytes() != repr(float(v)).encode().ljust(24, b"\0")]


def double_of_bits(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


class TestReprBytes:
    """_repr_bytes writes the bytes of repr for every double, the fast path's and the rest."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(0, 2**64 - 1).map(double_of_bits) | st.floats(), min_size=1, max_size=64))
    # the neighbours of 10**k, where np.log10 may misjudge the exponent
    @example(values=[math.nextafter(float(f"1e{k}"), to) for k in range(-5, 17) for to in (0.0, math.inf)]
             + [float(f"1e{k}") for k in range(-5, 17)])
    # exact powers of two, whose lower neighbour is nearer than the upper one
    @example(values=[2.0**k for k in range(-16, 60)] + [-(2.0**k) for k in range(-16, 60)])
    # ties between two candidates of one length: 17 digits, then 16 with both in range
    @example(values=[1234567890123456.25, 1234567890123456.75, 562949953421312.25, 562949953421312.75,
                     -562949953421312.25, 4503599627370495.5, 999999999999999.5])
    # the ends of the positional range
    @example(values=[1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), -1e-4, 1e16,
                     math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf), -9999999999999998.0])
    # values the fast path leaves to repr
    @example(values=[0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e300, 1.5e-5])
    # integer-valued doubles
    @example(values=[3.0, -7.0, 100000.0, 4.2e9, 4.29e9, 123456789012345.0, 9007199254740994.0, 1e15, -1e15 - 2.0])
    def test_each_row_is_repr(self, values):
        assert repr_mismatches(values) == []

    @pytest.mark.parametrize("family", ["uniform", "db", "log-uniform", "ghz-grid"])
    def test_seeded_families_match_repr(self, family):
        rng, n = np.random.default_rng(44), 10**5
        values = {
            "uniform": lambda: rng.uniform(0.0, 1.0, n),
            "db": lambda: 20.0 * np.log10(rng.uniform(1e-3, 1.2, n)),
            "log-uniform": lambda: rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 18.0, n),
            "ghz-grid": lambda: np.linspace(4.29e9, 4.33e9, n),
        }[family]()
        assert repr_mismatches(values.tolist()) == []

    @golden.X86_64
    def test_rows_do_not_follow_numpy_simd_targets(self):
        """Without numpy's AVX-512 loops np.log10 gives other bits for some of these
        values; it only estimates the exponent, so the rows stay repr's."""
        script = (
            "import hashlib, numpy as np\n"
            "from gsesim.io import _repr_bytes\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.choice([-1.0, 1.0], 10**5) * 10.0 ** rng.uniform(-8.0, 18.0, 10**5)\n"
            "bad = sum(row.tobytes() != repr(v).encode().ljust(24, b'\\0') for row, v in zip(_repr_bytes(x), x.tolist()))\n"
            "print(bad, hashlib.sha256(np.log10(np.abs(x)).tobytes()).hexdigest())\n"
        )
        runs = [fresh_python("-c", script, env=env) for env in ({}, golden.HOST_CLASSES["numpy-without-x86-v4"])]
        assert all(run.returncode == 0 for run in runs), [run.stderr for run in runs]
        (native_bad, native_log10), (other_bad, other_log10) = (run.stdout.split() for run in runs)
        assert (native_bad, other_bad) == ("0", "0")
        if "AVX512_SKX" in golden._host_class():
            assert native_log10 != other_log10


class TestConfig:
    def test_pointer_paths_in_errors(self):
        with pytest.raises(ConfigError, match="/waveguide"):
            parse_config({})
        with pytest.raises(ConfigError, match="/emitters/0/points/1"):
            parse_config(
                {
                    "waveguide": {"speed_mps": SPEED},
                    "emitters": [
                        {
                            "name": "a",
                            "f_res_hz": 4e9,
                            "beta_hz": 0.0,
                            "points": [
                                {"position_m": 0.0, "kappa_hz": 1e6},
                                {"position_m": 0.1},
                            ],
                        }
                    ],
                    "probe": {"f_start_hz": 1e9, "f_stop_hz": 2e9, "n_points": 2},
                }
            )

    def test_model_violations_carry_pointers(self, tmp_path):
        cfg = make_config(tmp_path)
        doc = json.loads(open(cfg).read())
        doc["emitters"][0]["beta_hz"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="/emitters/0"):
            load_config(path)

    @pytest.mark.parametrize("path, key, value, message", [
        (["waveguide"], "speed_mps", 0.0, "/waveguide/speed_mps: waveguide speed must be > 0, got 0.0"),
        (["emitters", 0], "f_res_hz", 0.0, "/emitters/0: emitter 'e0': f_res must be > 0"),
        (["emitters", 1, "points", 0], "position_m", 0.0,
         "/emitters: coupling point 0.0 m shared by 'e0' and 'e1'"),
        (["probe"], "n_points", 1, "/probe: grid requires n_points >= 2"),
    ], ids=["waveguide", "emitter", "topology", "probe"])
    def test_model_faults_carry_the_pointer_of_their_node(self, tmp_path, capsys, path, key, value, message):
        config = tmp_path / "bad.json"
        emitters_config(config, [(0.0, KAPPA_INNER), (0.1, KAPPA_INNER)], [(0.05, KAPPA_INNER)])
        doc = json.loads(config.read_text())
        node = doc
        for part in path:
            node = node[part]
        node[key] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value) == message
        config.write_text(json.dumps(doc))
        assert main(["simulate-general", "--config", str(config), "--output", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_valid_config_loads(self, tmp_path):
        wg, topo, grid = load_config(make_config(tmp_path))
        assert wg.speed == SPEED
        assert classify_topology(topo) == "single"
        assert grid.n_points == 801

    @pytest.mark.parametrize("n_points", [2.7, 101.5, float("nan"), float("inf")])
    def test_non_integral_n_points_rejected(self, tmp_path, n_points):
        doc = json.loads(open(make_config(tmp_path)).read())
        doc["probe"]["n_points"] = n_points
        with pytest.raises(ConfigError, match="/probe/n_points"):
            parse_config(doc)

    def test_integral_float_n_points_accepted(self, tmp_path):
        doc = json.loads(open(make_config(tmp_path)).read())
        doc["probe"]["n_points"] = 101.0
        assert parse_config(doc)[2].n_points == 101

    @pytest.mark.parametrize("pointer, key, value", [
        ("/waveguide", "speed_mps", True), ("/emitters/0/points/0", "kappa_hz", True),
        ("/emitters/0", "beta_hz", False), ("/probe", "n_points", True),
    ])
    def test_json_booleans_are_not_numbers(self, tmp_path, capsys, pointer, key, value):
        # a JSON boolean is a Python int: these loaded as 1 m/s, 1 Hz, 0 Hz and
        # one probe point
        doc = json.loads(open(make_config(tmp_path)).read())
        node = doc
        for part in pointer.split("/")[1:]:
            node = node[int(part) if part.isdigit() else part]
        node[key] = value
        with pytest.raises(ConfigError, match=f"^wrong type at {pointer}/{key}: "):
            parse_config(doc)
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["simulate-single", "--config", str(tmp_path / "config.json"),
                     "--output", str(tmp_path / "out.csv")]) == 2
        assert f"config error: wrong type at {pointer}/{key}: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("name", [None, ["inner"], 7], ids=["null", "list", "number"])
    def test_emitter_name_must_be_a_string(self, tmp_path, capsys, name):
        # str() used to pass these through: "name": null loaded as 'None'
        doc = json.loads(open(make_config(tmp_path)).read())
        doc["emitters"][0]["name"] = name
        with pytest.raises(ConfigError, match="^wrong type at /emitters/0/name: "):
            parse_config(doc)
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["simulate-single", "--config", str(tmp_path / "config.json"),
                     "--output", str(tmp_path / "out.csv")]) == 2
        assert "config error: wrong type at /emitters/0/name: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestSynthNoise:
    def test_seed_reproducibility(self):
        a = synth_noise(100, 0.01, 7)
        b = synth_noise(100, 0.01, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, synth_noise(100, 0.01, 8))

    def test_zero_sigma_is_exact_zero(self):
        assert np.all(synth_noise(10, 0.0, 0) == 0)

    @pytest.mark.parametrize("sigma", [-0.01, math.nan, math.inf])
    def test_negative_or_non_finite_sigma_raises(self, sigma):
        with pytest.raises(ModelError, match="noise_sigma must be finite and >= 0"):
            synth_noise(10, sigma, 0)

    def test_sample_variance(self):
        n = synth_noise(10_000, 0.01, 123)
        assert np.mean(np.abs(n) ** 2) == pytest.approx(1e-4, rel=0.05)


class TestUnitParsing:
    def test_frequencies(self):
        assert parse_frequency("4.35GHz") == 4.35e9
        assert parse_frequency("760 kHz".replace(" ", "")) == 760e3
        assert parse_frequency("5e6Hz") == 5e6
        with pytest.raises(ConfigError):
            parse_frequency("4.35")  # suffix is mandatory

    def test_angles(self):
        assert parse_angle("180deg") == pytest.approx(math.pi)
        assert parse_angle("1.5rad") == 1.5
        with pytest.raises(ConfigError):
            parse_angle("90")

    def test_ranges(self):
        v = parse_range("1MHz:3MHz:3", parse_frequency)
        assert v.tolist() == [1e6, 2e6, 3e6]
        with pytest.raises(ConfigError):
            parse_range("1:2")


class TestCli:
    def test_simulate_single_and_manifest(self, tmp_path):
        cfg = make_config(tmp_path, n_points=4001)
        out = str(tmp_path / "spec.csv")
        assert main(["simulate-single", "--config", cfg, "--output", out]) == 0
        freqs, data = read_spectrum_csv(out)
        # phi = 0 working point: dip bottom is beta / (4*kappa + beta)
        assert np.min(np.abs(data)) == pytest.approx(0.342, abs=1e-4)
        manifest = json.loads(open(out + ".manifest.json").read())
        digest = hashlib.sha256(open(out, "rb").read()).hexdigest()
        assert manifest["outputs"][out] == digest

    def test_exit_codes(self, tmp_path):
        cfg = make_config(tmp_path)
        out = str(tmp_path / "o.csv")
        assert main(["simulate-single", "--config", str(tmp_path / "none.json"), "--output", out]) == 4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"waveguide": {"speed_mps": -1}}))
        assert main(["simulate-single", "--config", str(bad), "--output", out]) == 2
        assert not os.path.exists(out)
        # numeric failure: fit cannot start from a flat magnitude spectrum
        flat = tmp_path / "flat.csv"
        flat.write_text("frequency_hz,s21_mag\n" + "".join(
            f"{4.3e9 + k * 1e5},1.0\n" for k in range(64)
        ))
        report = str(tmp_path / "r.json")
        code = main([
            "fit", "--data", str(flat), "--model", "single_giant",
            "--free", "f_res=4.3e9", "--free", "kappa_g=0", "--free", "beta=0",
            "--output", report,
        ])
        assert code == 3
        assert not os.path.exists(report)

    def test_synth_sigma_zero_matches_simulate_bytes(self, tmp_path):
        cfg = make_config(tmp_path)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate-single", "--config", cfg, "--output", a]) == 0
        assert main(["synth", "--config", cfg, "--output", b, "--noise-sigma", "0", "--seed", "3"]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        args = ["pv-check", "--x", "0.5:20:12", "--branch", "+"]
        one, four = str(tmp_path / "one.csv"), str(tmp_path / "four.csv")
        assert main(args + ["--output", one, "--threads", "1"]) == 0
        assert main(args + ["--output", four, "--threads", "4"]) == 0
        assert open(one, "rb").read() == open(four, "rb").read()

    def test_fit_round_trip_via_files(self, tmp_path):
        cfg = make_config(tmp_path, n_points=2001)
        data = str(tmp_path / "noisy.csv")
        assert main(["synth", "--config", cfg, "--output", data,
                     "--noise-sigma", "0.01", "--seed", "11"]) == 0
        report = str(tmp_path / "fit.json")
        code = main([
            "fit", "--data", data, "--model", "single_giant",
            "--free", "f_res=4.3309e9:4.30e9:4.36e9",
            "--free", "kappa_g=2e6:0:2e7",
            "--free", "beta=2e6:0:2e7",
            "--output", report,
        ])
        assert code == 0
        out = json.loads(open(report).read())
        assert out["converged"]
        assert out["params"]["kappa_g"] == pytest.approx(4 * KAPPA_INNER, rel=0.05)
        assert out["params"]["beta"] == pytest.approx(BETA_INNER, rel=0.05)

    def test_fit_db_reads_the_linear_magnitudes_it_fits(self, tmp_path):
        # fit --db compared the linear s21_mag column with 20*log10|S21|: on
        # this noiseless file it reported kappa_g = 0, residual norm 18.75, and
        # a DegeneracyWarning on f_res and beta
        truth = {"f_res": 4.35e9, "kappa_g": 1.2e6, "beta": 0.8e6}
        f = np.linspace(4.33e9, 4.37e9, 401)
        mag = np.abs(fitting.single_giant_model(f, truth)[0])
        data = tmp_path / "mag.csv"
        data.write_text("frequency_hz,s21_mag\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(f.tolist(), mag.tolist())))
        free = ["--free=f_res=4.3502e9:4.3e9:4.4e9", "--free=kappa_g=1e6:0:2e7", "--free=beta=1e6:0:2e7"]
        for db in ([], ["--db"]):
            report = tmp_path / f"fit{len(db)}.json"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["fit", f"--data={data}", "--model=single_giant", *free, *db, f"--output={report}"]) == 0
            assert not caught, db
            assert json.loads(report.read_text())["params"] == pytest.approx(truth, rel=1e-6), db

    @pytest.mark.parametrize("db", [[], ["--db"]], ids=["linear", "db"])
    def test_fit_on_a_negative_magnitude_exits_4(self, tmp_path, capsys, db):
        # the fit ran and exited 0: to kappa_g 1.25 MHz, residual 0.85, or with
        # --db, the cell floored to -6000 dB, to beta = 0, residual 21.8
        f = np.linspace(4.33e9, 4.37e9, 401)
        mag = np.abs(fitting.single_giant_model(f, {"f_res": 4.35e9, "kappa_g": 1.2e6, "beta": 0.8e6})[0])
        mag[200] = -0.5
        data = tmp_path / "mag.csv"
        data.write_text("frequency_hz,s21_mag\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(f.tolist(), mag.tolist())))
        free = ["--free=f_res=4.3502e9:4.3e9:4.4e9", "--free=kappa_g=1e6:0:2e7", "--free=beta=1e6:0:2e7"]
        report = tmp_path / "fit.json"
        assert main(["fit", f"--data={data}", "--model=single_giant", *free, *db, f"--output={report}"]) == 4
        assert capsys.readouterr().err == (
            f"i/o error: {data}:202: s21_mag must be finite and >= 0.0 '4350000000.0,-0.5'\n")
        assert list(tmp_path.iterdir()) == [data]

    def test_fit_on_a_nan_real_part_exits_4(self, tmp_path, capsys):
        # the file read, and the fit exited 3 naming no line:
        # "numeric failure: frequencies and data must be finite"
        rows = [b"%d,0.5,0\r\n" % (4300000000 + k) for k in range(101)]
        rows[50] = b"4300000050,nan,0\r\n"
        data = tmp_path / "data.csv"
        data.write_bytes(b"frequency_hz,s21_re,s21_im\r\n" + b"".join(rows))
        report = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data), "--model", "single_giant",
                     "--free", "f_res=4.35e9:4.3e9:4.4e9", "--free", "kappa_g=1e6:0:1e8",
                     "--free", "beta=1e6:0:1e8", "--output", str(report)]) == 4
        assert capsys.readouterr().err == f"i/o error: {data}:52: s21_re must be finite '4300000050,nan,0'\n"
        assert list(tmp_path.iterdir()) == [data]

    def test_fit_report_is_strict_json(self, tmp_path):
        # a noisy two-mode spectrum with all eight parameters free leaves a
        # flat direction: every sigma is infinite, and the report writes null
        q = nested.FitFormParams(4.96e9, 4.96e9, 2.98e6, 2.78e6, 1.84e6, 1.28e6, 6.11e2, 2.89e6)
        grid = FrequencyGrid(4.93e9, 4.99e9, 3001)
        data = tmp_path / "two_mode.csv"
        write_spectrum_csv(data, Spectrum(grid, nested.s21_fitform_values(q, grid.frequencies)
                                          + synth_noise(grid.n_points, 0.005, 1)))
        free = ["f_i=4.9602e9:4.9e9:5e9", "f_o=4.9598e9:4.9e9:5e9", "kappa_i_g=3.04e6:0:2e7",
                "kappa_o_g=2.84e6:0:2e7", "beta_i=1.88e6:0:2e7", "beta_o=1.31e6:0:2e7", "j=1e5:-1e7:1e7",
                "gamma=2e6:0:2e7"]
        report = tmp_path / "fit.json"
        with pytest.warns(fitting.DegeneracyWarning):
            code = main(["fit", "--data", str(data), "--model", "nested_fitform", "--output", str(report),
                         *(arg for item in free for arg in ("--free", item))])
        assert code == 0
        out = strict_json(report.read_text())
        assert out["converged"] and set(out["sigmas"]) == set(vars(q))
        assert all(sigma is None for sigma in out["sigmas"].values())
        assert all(math.isfinite(value) for value in out["params"].values())
        strict_json(Path(str(report) + ".manifest.json").read_text())

    def test_detuning_map_and_eigen_traces(self, tmp_path):
        out = str(tmp_path / "map.csv")
        eig = str(tmp_path / "eig.csv")
        code = main([
            "map", "--sweep", "detuning",
            "--values=-5MHz:5MHz:11",
            "--grid", "4.34GHz:4.36GHz:201",
            "--f-i", "4.35GHz",
            "--kappa-i-g", "1.15MHz", "--kappa-o-g", "0.000126MHz",
            "--beta-i", "1.54MHz", "--beta-o", "0.86MHz",
            "--j", "1.01MHz", "--gamma", "0.000328MHz",
            "--output", out, "--eigen-output", eig,
        ])
        assert code == 0
        sweep, freqs, mag = read_map_csv(out)
        assert sweep.size == 11 and freqs.size == 201
        assert np.all(np.isfinite(mag))
        lines = open(eig).read().strip().splitlines()
        assert lines[0] == "sweep_value,re1_hz,im1_hz,re2_hz,im2_hz"
        assert len(lines) == 12

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sweep", "field", "--values", "0.15:0.16:3"],
            ["--sweep", "detuning", "--values=-5MHz:5MHz:3", *TWO_MODE],
            ["--sweep", "detuning", "--values=-5MHz:5MHz:3", "--grid", "4.34GHz:4.36GHz:21",
             *TWO_MODE[:-2]],
            ["--sweep", "detuning", "--values=-5MHz:5MHz:3", "--grid", "4.34GHz:4.36GHz:abc",
             *TWO_MODE],
            ["--sweep", "detuning", "--values=-5MHz:5MHz:3", "--grid", "4.36GHz:4.34GHz:11",
             *TWO_MODE],
        ],
        ids=["field-without-config", "detuning-without-grid", "detuning-without-gamma",
             "grid-count-not-integer", "grid-reversed"],
    )
    def test_map_missing_arguments_exit_2(self, tmp_path, argv):
        out, eig = tmp_path / "map.csv", tmp_path / "eig.csv"
        assert main(["map", *argv, "--output", str(out), "--eigen-output", str(eig)]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["--sweep=field", "--values=0.15:0.16:3"], "map --sweep field needs --config"),
        (["--sweep=field", "--values=0.15:0.16:3", "--config={c}", "--eigen-output=eig.csv"],
         "map --sweep field does not take --eigen-output"),
        (["--sweep=field", "--values=0.15:0.16:3", "--config={c}", "--grid=4.34GHz:4.36GHz:21", "--j=1MHz"],
         "map --sweep field does not take --grid, --j"),
        (["--sweep=detuning", "--values=-5MHz:5MHz:3", "--grid=4.34GHz:4.36GHz:21", *TWO_MODE, "--h-a=0.1"],
         "map --sweep detuning does not take --h-a"),
        (["--sweep=detuning", "--values=-5MHz:5MHz:3", *TWO_MODE[2:-2]],
         "map --sweep detuning needs --grid, --f-i, --gamma"),
    ], ids=["field-without-config", "field-with-eigen-output", "field-with-detuning-flags",
            "detuning-with-h-a", "detuning-missing-three"])
    def test_map_names_the_flags_a_sweep_rejects_or_needs(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        config = make_config(tmp_path)
        assert main(["map", *(a.format(c=config) for a in argv), "--output=map.csv"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sweep", "detuning", "--values=0Hz:0Hz:3", "--grid", "4.34GHz:4.36GHz:21", *TWO_MODE],
            ["--sweep", "field", "--values", "0.15:0.15:2", "--config", "{c}"],
            ["--sweep", "field", "--values=-0.0:0.0:2", "--config", "{c}"],
        ],
        ids=["detuning", "field", "field-signed-zero"],
    )
    def test_map_rejects_repeated_values(self, tmp_path, capsys, monkeypatch, argv):
        # these used to exit 0 with a file whose repeated columns read back as one
        from gsesim import nested, single

        for module, name in ((nested, "map_nested_vs_detuning"), (single, "map_single_vs_field")):
            monkeypatch.setattr(module, name, lambda *a: pytest.fail("the model ran"))
        out = tmp_path / "map.csv"
        argv = [a.format(c=make_config(tmp_path)) for a in argv]
        assert main(["map", *argv, "--output", str(out)]) == 2
        assert "sweep values must be distinct" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "sweep, stray, message",
        [
            (["--sweep", "detuning", "--values=-5MHz:5MHz:3", "--grid", "4.34GHz:4.36GHz:21",
              *TWO_MODE], ["--config", "nonexistent.json", "--h-a", "0.5"], "--config, --h-a"),
            (["--sweep", "detuning", "--values=-5MHz:5MHz:3", "--grid", "4.34GHz:4.36GHz:21",
              *TWO_MODE], ["--h-a", "0.0"], "--h-a"),
            (["--sweep", "field", "--values", "0.15:0.16:3", "--config", "{c}"],
             ["--grid", "4.34GHz:4.36GHz:21"], "--grid"),
            (["--sweep", "field", "--values", "0.15:0.16:3", "--config", "{c}"],
             ["--j", "1MHz", "--gamma", "0Hz"], "--j, --gamma"),
        ],
        ids=["detuning-config-h-a", "detuning-h-a", "field-grid", "field-two-mode"],
    )
    def test_map_rejects_the_other_sweeps_flags(self, tmp_path, capsys, sweep, stray, message):
        # both sweeps used to ignore these without a word and exit 0
        config = make_config(tmp_path)
        out = tmp_path / "map.csv"
        argv = [a.format(c=config) for a in sweep + stray]
        assert main(["map", *argv, "--output", str(out)]) == 2
        assert f"does not take {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_field_sweep_h_a_defaults_to_zero(self, tmp_path):
        config = make_config(tmp_path)
        outs = []
        for name, extra in (("a.csv", []), ("b.csv", ["--h-a", "0.0"])):
            out = tmp_path / name
            assert main(["map", "--sweep", "field", "--config", config, "--values", "0.15:0.16:3",
                         *extra, "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--data", "{d}", "--model", "single_giant", "--free", "f_res=4.35e9"],
            ["fit", "--data", "{d}", "--model", "single_giant", "--free", "f_res=4.35e9",
             "--free", "kappa_g=1e6", "--free", "beta=1e6", "--free", "foo=1"],
            ["fit-geometry", "--dataset", "4.2GHz={d}", "--dataset", "4.3GHz={d}",
             "--dataset", "4.4GHz={d}", "--free", "kappa=7.6e5:0:1e8",
             "--free", "beta=1.6e6:0:1e8", "--free", "length=0.083:0.01:0.5"],
            ["fit", "--data", "{d}", "--model", "single_giant",
             "--free", "f_res=4.35e9:4.3e9:4.4e9", "--free", "kappa_g=1.2e6:0:1e8",
             "--free", "beta=0.9e6:0:1e8", "--fixed", "kappa_g=5e6"],
        ],
        ids=["fit-missing", "fit-unknown", "fit-geometry-without-speed", "fit-free-and-fixed"],
    )
    def test_fit_parameter_names_exit_2(self, tmp_path, argv, capsys):
        data = tmp_path / "data.csv"
        write_spectrum_csv(str(data), Spectrum(FrequencyGrid(4.3e9, 4.4e9, 64), np.ones(64)))
        report = tmp_path / "fit.json"
        argv = [a.format(d=data) for a in argv] + ["--output", str(report)]
        assert main(argv) == 2
        assert "config error: parameters" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]

    def test_geometry_with_length_and_speed_free_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_spectrum_csv(str(data), Spectrum(FrequencyGrid(4.3e9, 4.4e9, 64), np.ones(64)))
        report = tmp_path / "geometry.json"
        assert main(["fit-geometry", *(f"--dataset={f}GHz={data}" for f in ("4.2", "4.3", "4.4")),
                     "--free", "kappa=7.6e5:0:1e8", "--free", "beta=1.6e6:0:1e8",
                     "--free", "length=0.083:0.01:0.5", "--free", "speed=3.26e7:1e6:1e9",
                     "--output", str(report)]) == 2
        assert "length and speed enter only as length/speed; fix one" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]

    def test_fit_manifests_record_inputs(self, tmp_path):
        datasets = []
        for k, f_res in enumerate((4.0e9, 4.4e9, 4.8e9)):
            data = str(tmp_path / f"d{k}.csv")
            assert main(["synth", "--config", make_config(tmp_path, f_res=f_res),
                         "--output", data]) == 0
            datasets.append(f"{f_res:.1f}Hz={data}")
        free = ["kappa_g=2e6:0:2e7", "beta=2e6:0:2e7"]
        fixed = ["f_res=4.0e9"]
        report = str(tmp_path / "fit.json")
        assert main(["fit", "--data", datasets[0].partition("=")[2], "--model", "single_giant",
                     *(f"--free={v}" for v in free), *(f"--fixed={v}" for v in fixed),
                     "--output", report]) == 0
        config = json.loads(open(report + ".manifest.json").read())["config"]
        assert config["free"] == free and config["fixed"] == fixed and config["db"] is False
        free = [f"kappa={KAPPA_INNER!r}:0:1e8", f"beta={BETA_INNER!r}:0:1e8",
                f"length={L_INNER!r}:0.01:0.5"]
        fixed = [f"speed={SPEED!r}"]
        report = str(tmp_path / "geometry.json")
        # two datasets may share a resonance, and the inputs list each file once
        datasets.append(datasets[0])
        assert main(["fit-geometry", *(f"--dataset={d}" for d in datasets),
                     *(f"--free={v}" for v in free), *(f"--fixed={v}" for v in fixed),
                     "--output", report]) == 0
        manifest = json.loads(open(report + ".manifest.json").read())
        config = manifest["config"]
        assert config["free"] == free and config["fixed"] == fixed and config["dataset"] == datasets
        assert sorted(manifest["inputs"]) == sorted(str(tmp_path / f"d{k}.csv") for k in range(3))

    def test_manifest_tells_apart_runs_that_write_different_bytes(self, tmp_path):
        # these two runs write different spectra; their manifests used to
        # record the same config block, and the config file by path only
        cfg = make_config(tmp_path, n_points=101)
        runs = {}
        for extra in ([], ["--self-consistent-phase"]):
            out = str(tmp_path / f"spec{len(runs)}.csv")
            assert main(["simulate-single", "--config", cfg, "--output", out, *extra]) == 0
            runs[out] = json.loads(open(out + ".manifest.json").read())
        (first, a), (second, b) = runs.items()
        assert open(first, "rb").read() != open(second, "rb").read()
        assert a["config"] != b["config"] and b["config"]["self_consistent_phase"] is True
        make_config(tmp_path, n_points=102)
        assert main(["simulate-single", "--config", cfg, "--output", first]) == 0
        c = json.loads(open(first + ".manifest.json").read())
        assert c["config"] == a["config"]
        assert c["inputs"][cfg] != a["inputs"][cfg]
        assert c["inputs"][cfg] == hashlib.sha256(open(cfg, "rb").read()).hexdigest()

    def test_anisotropy_output(self, tmp_path):
        out = str(tmp_path / "angles.csv")
        code = main([
            "anisotropy", "--h-e0", "0.155", "--h-a", "0.0035",
            "--theta", "0deg:180deg:19", "--output", out,
        ])
        assert code == 0
        rows = open(out).read().strip().splitlines()
        assert rows[0] == "theta_rad,frequency_hz"
        assert len(rows) == 20

    @pytest.mark.parametrize("bad_row", [1, 3000], ids=["in-first-block", "past-first-block"])
    def test_non_utf8_data_file_exits_4(self, tmp_path, capsys, bad_row):
        # a bad byte near the top fails the header read, one further down
        # fails inside the parser
        rows = [b"%d,0.5,0\r\n" % (4300000000 + k) for k in range(4000)]
        rows[bad_row] = rows[bad_row].replace(b"0.5", b"0.\xff5")
        data = tmp_path / "data.csv"
        data.write_bytes(b"frequency_hz,s21_re,s21_im\r\n" + b"".join(rows))
        report = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data), "--model", "single_giant",
                     "--free", "f_res=4.35e9:4.3e9:4.4e9", "--free", "kappa_g=1e6:0:1e8",
                     "--free", "beta=1e6:0:1e8", "--output", str(report)]) == 4
        assert f"i/o error: {data}: not UTF-8 text" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]

    def test_nan_frequency_exits_4(self, tmp_path, capsys):
        # a NaN compares false either way, so it passes the ordering check
        rows = [b"%d,0.5,0\r\n" % (4300000000 + k) for k in range(101)]
        rows[50] = b"nan,0.5,0\r\n"
        data = tmp_path / "data.csv"
        data.write_bytes(b"frequency_hz,s21_re,s21_im\r\n" + b"".join(rows))
        report = tmp_path / "fit.json"
        assert main(["fit", "--data", str(data), "--model", "single_giant",
                     "--free", "f_res=4.35e9:4.3e9:4.4e9", "--free", "kappa_g=1e6:0:1e8",
                     "--free", "beta=1e6:0:1e8", "--output", str(report)]) == 4
        assert f"{data}:52: frequency_hz must be finite 'nan,0.5,0'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [data]

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        make_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes().replace(b'"inner"', b'"in\xffner"'))
        out = tmp_path / "spec.csv"
        assert main(["simulate-single", "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {cfg}: invalid JSON: 'utf-8' codec can't decode byte 0xff" in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_pv_check_rows_within_tolerance(self, tmp_path):
        out = str(tmp_path / "pv.csv")
        assert main(["pv-check", "--x", "0.5:50:20", "--branch", "-", "--output", out]) == 0
        body = np.genfromtxt(out, delimiter=",", names=True)
        assert body["abs_err_a"].max() <= 1e-6
        assert body["abs_err_b"].max() <= 1e-6

    def test_pv_check_at_the_largest_floats(self, tmp_path):
        # exited 3: the continued fraction for E1(i*x) did not converge
        out = str(tmp_path / "pv.csv")
        assert main(["pv-check", "--x", "1e308:1.7e308:2", "--output", out]) == 0
        body = np.genfromtxt(out, delimiter=",", names=True)
        assert body.size == 2
        assert all(np.all(np.isfinite(body[name])) for name in body.dtype.names)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        out = tmp_path / "noisy.csv"
        assert main(["synth", "--config", cfg, "--noise-sigma", "0.01", "--seed=-1",
                     "--output", str(out)]) == 2
        assert "config error: --seed -1: must be >= 0" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("sigma, message", [
        ("-1", "config error: --noise-sigma -1.0: must be >= 0"),
        ("nan", "config error: argument --noise-sigma: invalid float value: 'nan'"),
        ("inf", "config error: argument --noise-sigma: invalid float value: 'inf'"),
    ], ids=["-1", "nan", "inf"])
    def test_bad_noise_sigma_exits_2(self, tmp_path, capsys, sigma, message):
        # these used to exit 3: "-1" from synth_noise, "nan" and "inf" as a
        # spectrum with non-finite values; argparse now rejects a value that
        # is not finite as it rejects one that is not a number
        cfg = make_config(tmp_path)
        out = tmp_path / "noisy.csv"
        assert main(["synth", "--config", cfg, f"--noise-sigma={sigma}", "--output", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("argv", [
        ["simulate-single", "--config", "config.json", "--output", "x.csv", "--manifest", "x.csv"],
        ["simulate-general", "--config", "config.json", "--output", "g.csv",
         "--reflection-output", "./g.csv"],
        ["map", "--sweep", "detuning", "--values=-5MHz:5MHz:3", "--grid", "4.34GHz:4.36GHz:21",
         *TWO_MODE, "--output", "m.csv", "--eigen-output", "m.csv"],
        ["map", "--sweep", "field", "--config", "config.json", "--values", "0.154:0.156:3",
         "--output", "m.csv", "--eigen-output", "e.csv"],
        ["synth", "--config", "config.json", "--output", "config.json"],
        ["simulate-single", "--config", "config.json", "--output", "x.csv",
         "--manifest", "sub/../config.json"],
        ["fit", "--data", "d.csv", "--model", "single_giant", "--free", "f_res=4.3309e9:4.30e9:4.36e9",
         "--free", "kappa_g=2e6:0:2e7", "--free", "beta=2e6:0:2e7", "--output", "d.csv"],
        ["fit-geometry", *(f"--dataset={f}GHz=d.csv" for f in ("4.2", "4.3", "4.4")),
         "--free", "kappa=7.6e5:0:1e8", "--free", "beta=1.6e6:0:1e8",
         "--free", "length=0.083:0.01:0.5", "--fixed", "speed=3.26e7", "--output", "r.json",
         "--manifest", "d.csv"],
    ], ids=["manifest-over-output", "reflection-over-output", "eigen-over-map",
            "eigen-on-field-sweep", "output-over-config", "manifest-over-config",
            "output-over-data", "manifest-over-dataset"])
    def test_colliding_paths_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        # each used to exit 0 with an output written over another file, or
        # with the field sweep's --eigen-output ignored
        monkeypatch.chdir(tmp_path)
        make_config(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(["synth", "--config", "config.json", "--noise-sigma", "0.01",
                     "--output", "d.csv", "--manifest", "sub/d.json"]) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("output, message", [
        (".", "i/o error: .: names a directory"),
        ("new.csv/", "i/o error: new.csv/: names a directory"),
        ("nodir/x.csv", "No such file or directory: 'nodir/x.csv'"),
    ], ids=["directory", "trailing-separator", "missing-directory"])
    def test_unwritable_output_exits_4_and_is_named(self, tmp_path, monkeypatch, capsys, output, message):
        # outputs are written under temporary names; the error names the output
        (tmp_path / "run").mkdir()
        monkeypatch.chdir(tmp_path / "run")
        make_config(tmp_path / "run")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main(["simulate-single", "--config", "config.json", "--output", output]) == 4
        assert message in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("argv, message", [
        (["simulate-general", "--config=config.json", "--output=g.csv", "--reflection-output="],
         "--reflection-output '': names no file"),
        (["map", "--sweep=detuning", "--values=-5MHz:5MHz:3", "--grid=4.34GHz:4.36GHz:21", *TWO_MODE,
          "--output=m.csv", "--eigen-output="], "--eigen-output '': names no file"),
        (["simulate-single", "--config=config.json", "--output=x.csv", "--manifest="], "--manifest '': names no file"),
        (["simulate-single", "--config=config.json", "--output="], "--output '': names no file"),
        (["simulate-single", "--config=", "--output=x.csv"], "--config '': names no file"),
        (["fit", "--data=", "--model=single", "--free=beta=1e6", "--output=r.json"], "--data '': names no file"),
        (["anisotropy", "--h-e0=0.155", "--h-a=0.0035", "--theta=0deg:180deg:7", "--gamma=", "--output=a.csv"],
         "--gamma '': cannot parse frequency '': need a Hz/kHz/MHz/GHz suffix"),
    ], ids=["reflection-output", "eigen-output", "manifest", "output", "config", "data", "gamma"])
    def test_empty_value_exits_2_and_names_its_flag(self, tmp_path, monkeypatch, capsys, argv, message):
        # an empty --reflection-output or --eigen-output exited 0 without its file, and its
        # manifest recorded the empty name; --manifest= wrote OUTPUT.manifest.json, --gamma= ran
        # with the default, and --output=, --config= and --data= exited 4 naming no flag
        monkeypatch.chdir(tmp_path)
        make_config(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("argv, flag", [
        (["simulate-single", "--config=config.json", "--output=a.csv", "--output=b.csv"], "--output"),
        (["synth", "--config=config.json", "--output=a.csv", "--seed=1", "--seed=2"], "--seed"),
    ], ids=["output", "seed"])
    def test_single_value_flag_given_twice_exits_2(self, tmp_path, monkeypatch, capsys, argv, flag):
        # the last value won without a word: the first wrote only b.csv, the
        # second recorded seed 2
        monkeypatch.chdir(tmp_path)
        make_config(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"config error: {flag} is given twice\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_output_table_is_every_output_flag(self):
        # a --x-output declared in a parser alone would be written in place,
        # without a temporary, and left out of the manifest
        declared = {flag for flags in cli_flags().values() for flag in flags if flag.endswith("-output")}
        assert declared == {cli._flag_names([flag]) for flag in cli._OUTPUTS}

    def test_output_through_a_symlink_writes_its_target(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        make_config(tmp_path)
        os.symlink("target.csv", "link.csv")
        assert main(["simulate-single", "--config", "config.json", "--output", "link.csv"]) == 0
        assert os.path.islink("link.csv")
        recorded = json.loads((tmp_path / "link.csv.manifest.json").read_text())["outputs"]
        assert recorded == {"link.csv": hashlib.sha256((tmp_path / "target.csv").read_bytes()).hexdigest()}

    def test_fractional_n_points_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        make_config(tmp_path)
        cfg.write_text(cfg.read_text().replace('"n_points": 801', '"n_points": 2.7'))
        out = tmp_path / "spec.csv"
        assert main(["simulate-single", "--config", str(cfg), "--output", str(out)]) == 2
        assert "/probe/n_points" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", ["simulate-single", "simulate-general", "synth"])
    def test_unallocatable_grid_exits_3(self, tmp_path, capsys, command):
        # 10**17 doubles exceed any address space, so the request fails at
        # once whatever the overcommit policy; nothing is ever allocated
        cfg = tmp_path / "config.json"
        make_config(tmp_path)
        cfg.write_text(cfg.read_text().replace('"n_points": 801', '"n_points": 100000000000000000'))
        out = tmp_path / "spec.csv"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 3
        assert "numeric failure: Unable to allocate" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("flag, value", [("--h-e0", "nan"), ("--h-e0", "inf"), ("--h-a", "nan"),
                                             ("--gamma", "infGHz"), ("--theta", "0rad:infrad:3"),
                                             ("--theta", "nandeg:1deg:3")])
    def test_anisotropy_non_finite_input_exits_3(self, tmp_path, capsys, flag, value):
        # these used to write a curve of nan or inf frequencies and exit 0;
        # an infinite angle under --which full raised ValueError (exit 1).
        # They then exited 3 from the model's checks; the typed number is now
        # a configuration error, exit 2, that quotes it
        argv = {"--h-e0": "0.155", "--h-a": "0.0035", "--theta": "0deg:180deg:7", flag: value}
        out = tmp_path / "angles.csv"
        assert main(["anisotropy", *(f"{k}={v}" for k, v in argv.items()), "--output", str(out)]) == 2
        typed = next(part for part in value.split(":") if part[:3] in ("nan", "inf"))
        assert repr(typed) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--f-i", "nanHz"), ("--j", "infHz"),
                                             ("--kappa-i-g", "nanHz")])
    def test_non_finite_two_mode_value_exits_3(self, tmp_path, capsys, flag, value):
        # these reached the model, which printed numpy's RuntimeWarning before
        # the run exited 3 with "spectrum contains non-finite values"; then the
        # model's check exited 3 naming its parameter. The typed rate is now a
        # configuration error, exit 2, that quotes it and names its flag
        two_mode = dict(zip(TWO_MODE[::2], TWO_MODE[1::2]), **{flag: value})
        argv = ["map", "--sweep", "detuning", "--values=-5MHz:5MHz:3", "--grid", "4.34GHz:4.36GHz:21",
                *(f"{k}={v}" for k, v in two_mode.items()), "--output", str(tmp_path / "map.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert f"config error: {flag} {value!r}: {value!r} must be finite" in capsys.readouterr().err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["simulate-general", "--convention", "resonance"], ["simulate-general", "--convention", "mixed"],
        ["simulate-general", "--convention", "probe"], ["simulate-single"],
        ["simulate-single", "--self-consistent-phase"], ["synth"], ["map", "--sweep", "field", "--values", "0.1:0.2:3"],
    ], ids=["resonance", "mixed", "probe", "single", "single-self-consistent", "synth", "map-field"])
    @pytest.mark.parametrize("layout", ["far-point", "slow-guide"])
    def test_overflowing_phase_exits_3(self, tmp_path, layout, command):
        # every value is finite, but 2*pi*f*d/v overflows: simulate-general's
        # 'resonance' and 'mixed' exited 1 with a LinAlgError traceback from
        # the eigensolver, and the other commands exited 3 after numpy
        # RuntimeWarnings (and a MarkovWarning from simulate-general)
        k = KAPPA_INNER
        cfg = tmp_path / "config.json"
        far = 1e300 if layout == "far-point" else 0.12
        emitters = [[(0.04, k), (far, k)]]
        if command[0] == "simulate-general":
            emitters.insert(0, [(0.0, k), (L_INNER, k)])
        emitters_config(cfg, *emitters)
        if layout == "slow-guide":
            cfg.write_text(cfg.read_text().replace(f'"speed_mps": {SPEED!r}', '"speed_mps": 1e-300'))
        proc = fresh_python("-m", "gsesim.cli", *command, "--config", str(cfg), "--output", str(tmp_path / "g.csv"))
        assert proc.returncode == 3, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("numeric failure: propagation phase 2*pi*f*d/v is not finite")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv, message", [
        (["simulate-general", "--convention", "resonance"], "effective Hamiltonian is not finite"),
        (["simulate-general", "--convention", "mixed"], "effective Hamiltonian is not finite"),
        (["anisotropy", "--h-e0", "1e308", "--h-a", "1e306", "--theta", "0deg:90deg:3", "--which", "simple"],
         "resonance frequency must be finite, got inf"),
        (["anisotropy", "--h-e0", "1e308", "--h-a", "1e306", "--theta", "0deg:90deg:3", "--which", "full"],
         "resonance frequency must be finite, got inf"),
    ], ids=["general-resonance", "general-mixed", "anisotropy-simple", "anisotropy-full"])
    def test_overflowing_rate_or_field_exits_3(self, tmp_path, argv, message):
        # a 1e300 Hz coupling rate overflowed sqrt(kappa_p*kappa_q): 'resonance'
        # and 'mixed' exited 1 with a LinAlgError traceback after numpy
        # RuntimeWarnings. Fields that overflow the resonance wrote inf in every
        # row and exited 0, 'simple' after an overflow RuntimeWarning
        cfg = tmp_path / "config.json"
        emitters_config(cfg, [(0.0, 1e300), (L_INNER, 1e300)], [(0.04, KAPPA_INNER), (0.12, KAPPA_INNER)])
        if argv[0] == "simulate-general":
            argv = [*argv, "--config", str(cfg)]
        proc = fresh_python("-m", "gsesim.cli", *argv, "--output", str(tmp_path / "out.csv"))
        assert proc.returncode == 3, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"numeric failure: {message}")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv, message", [
        (["pv-check", "--x", "1e-320:1e-319:2"], "A(x), B(x) at x=1e-320 must be finite, got inf"),
        (["simulate-nested", "--phase-ref", "resonance"], "nested resolvent is not finite"),
        (["simulate-nested", "--phase-ref", "probe"], "nested resolvent is not finite"),
    ], ids=["pv-check", "nested-resonance", "nested-probe"])
    def test_overflowing_closed_form_exits_3(self, tmp_path, argv, message):
        # pv-check printed numpy's overflow warning from 1/x, then exited 3 on
        # a quadrature residual of 1.7e31; simulate-nested on 1e300 Hz rates
        # printed numpy RuntimeWarnings, then named a singular resolvent
        cfg = tmp_path / "config.json"
        gap = (L_OUTER - L_INNER) / 2
        emitters_config(cfg, [(0.0, 1e300), (L_OUTER, 1e300)], [(gap, 1e300), (gap + L_INNER, 1e300)])
        if argv[0] == "simulate-nested":
            argv = [*argv, "--config", str(cfg)]
        proc = fresh_python("-m", "gsesim.cli", *argv, "--output", str(tmp_path / "out.csv"))
        assert proc.returncode == 3, proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"numeric failure: {message}")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("argv, code, message", [
        (["pv-check", "--x=-1:1:3"], 3, "(the phase across the ensemble), got -1.0"),
        (["map", "--sweep", "field", "--config", "{c}", "--values", "0.1:nan:3"], 2,
         "--values '0.1:nan:3': 'nan' must be finite, got nan"),
        (["pv-check", "--x", "0:inf:3"], 2, "--x '0:inf:3': 'inf' must be finite, got inf"),
        (["map", "--sweep", "field", "--config", "{c}", "--values=-inf:0.1:3"], 2,
         "--values '-inf:0.1:3': '-inf' must be finite, got -inf"),
        (["map", "--sweep", "detuning", "--values=-5MHz:infMHz:3", "--grid", "4.34GHz:4.36GHz:21", *TWO_MODE],
         2, "--values '-5MHz:infMHz:3': 'infMHz' must be finite, got inf"),
        (["pv-check", "--x", "nan:1:3"], 2, "--x 'nan:1:3': 'nan' must be finite, got nan"),
        (["anisotropy", "--h-e0", "0.155", "--h-a", "0.0035", "--theta", "nandeg:1deg:3"], 2,
         "--theta 'nandeg:1deg:3': 'nandeg' must be finite, got nan"),
        (["map", "--sweep", "detuning", "--values=-5MHz:nanMHz:3", "--grid", "4.34GHz:4.36GHz:21", *TWO_MODE],
         2, "--values '-5MHz:nanMHz:3': 'nanMHz' must be finite, got nan"),
    ], ids=["pv-check", "map-field", "pv-check-inf", "map-field-inf", "map-detuning-inf", "pv-check-nan",
            "anisotropy-nan", "map-detuning-nan"])
    def test_errors_print_plain_floats(self, tmp_path, capsys, argv, code, message):
        # pv-check and a nan field used to print the numpy scalar repr,
        # np.float64(...); an infinite range endpoint printed numpy's
        # RuntimeWarning from linspace, and a nan one reached the model, whose
        # error named a model parameter (B, f_o, theta, the argument) and not
        # the flag. A range endpoint that is not finite then exited 3; it is
        # now a configuration error (exit 2) that names the flag
        config = make_config(tmp_path)
        assert main([a.format(c=config) for a in argv] + ["--output", str(tmp_path / "out.csv")]) == code
        err = capsys.readouterr().err
        assert message in err
        assert "np.float64" not in err

    def test_unknown_fit_model_exits_2_and_names_the_models(self, tmp_path, capsys):
        assert main(["fit", "--data", str(tmp_path / "d.csv"), "--model", "bogus", "--free", "a=1",
                     "--output", str(tmp_path / "fit.json")]) == 2
        assert capsys.readouterr().err == ("config error: argument --model: invalid choice: 'bogus' "
                                           "(choose from 'nested_fitform', 'single', 'single_giant')\n")
        assert list(tmp_path.iterdir()) == []
        # --help is the one way out of main through SystemExit
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0
        assert "{nested_fitform,single,single_giant}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["simulate-single", "--output=x.csv"], "the following arguments are required: --config"),
        (["simulate-nested", "--config=config.json", "--phase-ref=bogus", "--output=x.csv"],
         "argument --phase-ref: invalid choice: 'bogus' (choose from 'resonance', 'probe')"),
        (["pv-check", "--x=0.5:1:3", "--bogus=1", "--output=x.csv"], "unrecognized arguments: --bogus=1"),
        (["synth", "--config=config.json", "--seed", "x", "--output=x.csv"],
         "argument --seed: invalid int value: 'x'"),
        (["anisotropy", "--h-e0", "nan", "--h-a=0.0035", "--theta=0deg:1deg:3", "--output=x.csv"],
         "argument --h-e0: invalid float value: 'nan'"),
    ], ids=["missing-command", "missing-flag", "bad-choice", "unknown-flag", "seed-not-an-integer", "h-e0-nan"])
    def test_rejected_command_line_returns_2_with_one_line(self, tmp_path, monkeypatch, capsys, argv, message):
        # argparse used to print its usage and "gsesim CMD: error: ...", then
        # raise SystemExit(2) out of main; main now returns 2 with the line
        # every other configuration error prints
        monkeypatch.chdir(tmp_path)
        make_config(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_readme_examples_parse(self):
        # the `gsesim ...` lines of README's CLI code block, each `\`-continued line joined; none runs
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("gsesim ")]
        assert {line.split()[1] for line in lines} == set(cli_flags())
        for line in lines:
            cli.build_parser().parse_args(shlex.split(line)[1:])

    def test_fit_model_choices_are_the_fitting_models(self):
        assert cli._FIT_MODELS == tuple(sorted(fitting.MODELS))

    def test_two_mode_flags_are_the_two_mode_model(self):
        # the detuning sweep sets f_o; a field added to FitFormParams alone
        # would make `map --sweep detuning` raise a TypeError
        assert set(cli._TWO_MODE) == {f.name for f in dataclasses.fields(nested.FitFormParams)} - {"f_o"}

    @pytest.mark.parametrize("argv", [
        ["pv-check", "--x", "1:2:10000000000000000000"],
        ["anisotropy", "--h-e0", "0.155", "--h-a", "0.0035", "--theta", "0deg:1deg:10000000000000000000"],
        ["map", "--sweep", "detuning", "--values=-5MHz:5MHz:5", "--grid",
         "4.34GHz:4.36GHz:10000000000000000000", *TWO_MODE],
    ], ids=["pv-check", "anisotropy", "map-grid"])
    def test_count_beyond_array_limit_exits_2(self, tmp_path, capsys, argv):
        assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["simulate-nested", "--config=braided.json"], "/emitters: topology is 'braided', not nested"),
        (["simulate-nested", "--config=lopsided.json"], "/emitters: simulate-nested needs a symmetric nesting"),
        (["simulate-single", "--config=one.json"], "/emitters/0: emitter 'e0' needs exactly two points"),
        (["simulate-single", "--config=three.json"], "/emitters/0: emitter 'e0' needs exactly two points"),
        (["simulate-single", "--config=unequal.json"],
         "/emitters/0: emitter 'e0' has unequal rates; use simulate-general"),
        (["fit", "--data=d.csv", "--model=single", "--free=f_res"],
         "--free 'f_res': expected name=guess or name=guess:lo:hi"),
        (["fit", "--data=d.csv", "--model=single", "--free=f_res=x"], "--free 'f_res=x': could not convert"),
        (["fit", "--data=d.csv", "--model=single", "--free=f_res=4.3e9", "--fixed=beta"],
         "--fixed 'beta': expected name=value"),
        (["fit", "--data=d.csv", "--model=single", "--free=f_res=4.3e9", "--fixed=beta=x"],
         "--fixed 'beta=x': could not convert"),
        (["fit", "--data=d.csv", "--model=single_giant", "--free=f_res=4.35e9", "--free=f_res=4.36e9",
          "--free=kappa_g=1e6", "--free=beta=1e6"],
         "--free 'f_res=4.36e9': parameter 'f_res' is given twice"),
        (["fit", "--data=d.csv", "--model=single_giant", "--free=f_res=4.35e9", "--free=kappa_g=1e6",
          "--fixed=beta=1e6", "--fixed=beta=2e6"],
         "--fixed 'beta=2e6': parameter 'beta' is given twice"),
        (["fit-geometry", "--dataset=4.35GHz=d.csv", "--free=kappa=7.6e5", "--free=beta=1.6e6",
          "--free=length=0.083", "--fixed=speed=3.26e7", "--fixed=speed=3.3e7"],
         "--fixed 'speed=3.3e7': parameter 'speed' is given twice"),
        (["fit-geometry", "--dataset=d.csv", "--free=kappa=7.6e5"], "--dataset 'd.csv': expected F_RES=PATH"),
        (["fit-geometry", "--dataset=4.2GHz=m.csv", "--dataset=4.3GHz=d.csv", "--dataset=4.4GHz=d.csv",
          "--free=kappa=7.6e5"], "--dataset m.csv: geometry fit needs complex data"),
        # the resonance is parsed with the item, before any file is read
        (["fit-geometry", "--dataset=4.0XHz=missing.csv", "--free=kappa=7.6e5"],
         "--dataset '4.0XHz=missing.csv': cannot parse frequency '4.0XHz'"),
        (["fit-geometry", "--dataset=4.0XHz=d.csv", "--free=kappa=7.6e5"],
         "--dataset '4.0XHz=d.csv': cannot parse frequency '4.0XHz'"),
        (["fit", "--data=d.csv", "--model=single_giant", "--free=f_res=4.35e9:4.36e9:4.34e9",
          "--free=kappa_g=1e6", "--free=beta=1e6"],
         "initial guess for 'f_res' must be finite and inside bounds lo < hi"),
        (["fit", "--data=d.csv", "--model=single_giant", "--free=f_res=4.35e9", "--free=kappa_g=1e6",
          "--fixed=beta=nan"], "fixed parameters ['beta'] must be finite"),
        (["map", "--sweep=detuning", "--values=-5MHz:5MHz:3", "--grid=4.34GHz:4.36GHz", *TWO_MODE],
         "--grid '4.34GHz:4.36GHz': expected start:stop:count"),
        (["pv-check", "--x=a:1:3"], "--x 'a:1:3': could not convert string to float: 'a'"),
        (["pv-check", "--x=0.5:1:x"], "--x '0.5:1:x': invalid literal for int() with base 10: 'x'"),
        (["fit", "--data=d.csv", "--model=single", "--free=f_res=1:2"],
         "--free 'f_res=1:2': expected name=guess or name=guess:lo:hi"),
        # a resonance that is not finite is quoted with its item, before any file is read
        *((["fit-geometry", "--dataset=4.3GHz=d.csv", "--dataset=4.4GHz=d.csv", f"--dataset={bad}=missing.csv",
            "--free=kappa=7.6e5", "--free=beta=1.6e6", "--free=length=0.083", "--fixed=speed=3.26e7"],
           f"--dataset '{bad}=missing.csv': '{bad}' must be finite, got {value}")
          for bad, value in (("infGHz", "inf"), ("nanGHz", "nan"))),
        *((["map", "--sweep=detuning", "--values=-5MHz:5MHz:3", f"--grid={grid}", *TWO_MODE],
           f"--grid '{grid}': '{bad}' must be finite, got {value}")
          for grid, bad, value in (("4.34GHz:infGHz:21", "infGHz", "inf"), ("nanGHz:4.36GHz:21", "nanGHz", "nan"))),
        # a finite number that overflows once its unit is applied is not finite either
        (["anisotropy", "--h-e0=0.155", "--h-a=0.0035", "--theta=0deg:180deg:7", "--gamma=1e300GHz"],
         "--gamma '1e300GHz': '1e300GHz' must be finite, got inf"),
        (["map", "--sweep=detuning", "--values=-5MHz:5MHz:3", "--grid=4.34GHz:1e300GHz:21", *TWO_MODE],
         "--grid '4.34GHz:1e300GHz:21': '1e300GHz' must be finite, got inf"),
        # --db fits magnitude-only data; d.csv holds complex S21
        (["fit", "--data=d.csv", "--model=single_giant", "--free=f_res=4.35e9", "--free=kappa_g=1e6",
          "--free=beta=1e6", "--db"], "--db: d.csv holds complex S21; --db fits magnitude-only data"),
        # too few datasets, or one resonance, before any file is read
        *((["fit-geometry", *datasets, "--free=kappa=7.6e5"],
           "--dataset: geometry fit needs at least 3 datasets on at least 2 resonances")
          for datasets in (["--dataset=4.3GHz=d.csv", "--dataset=4.4GHz=missing.csv"],
                           ["--dataset=4.3GHz=d.csv", "--dataset=4300MHz=missing.csv", "--dataset=4.3GHz=d.csv"])),
    ], ids=["nested-on-braided", "nested-asymmetric", "single-one-point", "single-three-points",
            "single-unequal-rates", "free-no-equals", "free-not-a-number", "fixed-no-equals",
            "fixed-not-a-number", "free-repeated", "fixed-repeated", "geometry-fixed-repeated",
            "dataset-no-equals", "dataset-magnitude-only", "dataset-bad-resonance-missing-file",
            "dataset-bad-resonance", "free-bounds-reversed", "fixed-nan", "grid-two-parts",
            "range-start-not-a-number", "range-count-not-an-integer", "free-two-parts",
            "dataset-infinite-resonance", "dataset-nan-resonance", "grid-infinite-stop", "grid-nan-start",
            "gamma-overflows", "grid-stop-overflows", "db-on-complex-data", "geometry-two-datasets",
            "geometry-one-resonance"])
    def test_input_errors_exit_2_and_name_the_flag(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        k = KAPPA_INNER
        emitters_config(tmp_path / "braided.json", [(0.0, k), (0.1, k)], [(0.05, k), (0.15, k)])
        emitters_config(tmp_path / "lopsided.json", [(0.0, k), (0.2, k)], [(0.05, k), (0.1, k)])
        emitters_config(tmp_path / "one.json", [(0.0, k)])
        emitters_config(tmp_path / "three.json", [(0.0, k), (0.04, k), (0.08, k)])
        emitters_config(tmp_path / "unequal.json", [(0.0, k), (L_INNER, 2 * k)])
        assert main(["synth", "--config", make_config(tmp_path), "--output", "d.csv"]) == 0
        (tmp_path / "m.csv").write_text("frequency_hz,s21_mag\n4.3e9,0.9\n4.4e9,0.8\n")
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert main([*argv, "--output", "out.csv"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    # every number typed on the command line, as a template of the one non-finite token {x}
    TYPED_NUMBERS = {
        "grid-start": ["map", "--sweep=detuning", "--values=-5MHz:5MHz:3", "--grid={x}GHz:4.36GHz:21", *TWO_MODE],
        "grid-stop": ["map", "--sweep=detuning", "--values=-5MHz:5MHz:3", "--grid=4.34GHz:{x}GHz:21", *TWO_MODE],
        "detuning-start": ["map", "--sweep=detuning", "--values={x}MHz:5MHz:3", "--grid=4.34GHz:4.36GHz:21",
                           *TWO_MODE],
        "field-stop": ["map", "--sweep=field", "--config=config.json", "--values=0.1:{x}:3"],
        "field-h-a": ["map", "--sweep=field", "--config=config.json", "--values=0.1:0.2:3", "--h-a={x}"],
        **{f"rate-{flag[2:]}": ["map", "--sweep=detuning", "--values=-5MHz:5MHz:3", "--grid=4.34GHz:4.36GHz:21",
                                *(f"{f}={{x}}MHz" if f == flag else f"{f}={v}"
                                  for f, v in zip(TWO_MODE[::2], TWO_MODE[1::2]))] for flag in TWO_MODE[::2]},
        "theta-start": ["anisotropy", "--h-e0=0.155", "--h-a=0.0035", "--theta={x}deg:180deg:7"],
        "gamma": ["anisotropy", "--h-e0=0.155", "--h-a=0.0035", "--theta=0deg:180deg:7", "--gamma={x}GHz"],
        "h-e0": ["anisotropy", "--h-e0={x}", "--h-a=0.0035", "--theta=0deg:180deg:7"],
        "h-a": ["anisotropy", "--h-e0=0.155", "--h-a={x}", "--theta=0deg:180deg:7"],
        "x-stop": ["pv-check", "--x=0.5:{x}:3"],
        "noise-sigma": ["synth", "--config=config.json", "--noise-sigma={x}"],
        "dataset": ["fit-geometry", "--dataset=4.3GHz=d.csv", "--dataset=4.4GHz=d.csv", "--dataset={x}GHz=d.csv",
                    "--free=kappa=7.6e5", "--free=beta=1.6e6", "--free=length=0.083", "--fixed=speed=3.26e7"],
    }

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", list(TYPED_NUMBERS))
    def test_non_finite_typed_number_exits_2_and_is_quoted(self, tmp_path, monkeypatch, capsys, where, x):
        # a range endpoint, a --h-e0 or --h-a, --gamma and a two-mode rate used
        # to exit 3 from a model check that named a parameter, not the flag;
        # then argparse's rejections raised SystemExit with its usage, and the
        # rates and --gamma did not name their flag
        monkeypatch.chdir(tmp_path)
        make_config(tmp_path)
        assert main(["synth", "--config=config.json", "--output=d.csv"]) == 0
        capsys.readouterr()
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        argv = [a.replace("{x}", x) for a in self.TYPED_NUMBERS[where]]
        typed = next(part for a in argv for part in a.replace("=", ":").split(":") if x in part)
        flag, _, text = next(a for a in argv if x in a).partition("=")
        assert main([*argv, "--output=out.csv"]) == 2
        err = capsys.readouterr().err
        # a ConfigError from the parser of a typed frequency, angle or range, or argparse's type=float
        assert err in (f"config error: {flag} {text!r}: {typed!r} must be finite, got {float(x)}\n",
                       f"config error: argument {flag}: invalid float value: {typed!r}\n"), err
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("argv, code, message", [
        (["fit", "--data=db.csv", "--model=single", "--free=f_res=4.3e9"], 4,
         "i/o error: db.csv: need either s21_re/s21_im or s21_mag columns"),
        (["simulate-single", "--config=none.json"], 2, "config error: /emitters: must list at least one emitter"),
        (["simulate-general", "--config=shared.json"], 2,
         "config error: /emitters: coupling point 0.05 m shared by 'e0' and 'e1'"),
        (["simulate-general", "--config=reversed.json"], 2,
         "config error: /probe: grid requires f_stop > f_start > 0"),
        (["fit-geometry", "--dataset=4.3GHz=d.csv", "--dataset=4.4GHz=d.csv", "--free=kappa=7.6e5"], 2,
         "config error: --dataset: geometry fit needs at least 3 datasets on at least 2 resonances"),
        (["simulate-single", "--config=cut.json"], 2,
         "config error: cut.json: invalid JSON: Expecting value: line 1 column 15 (char 14)"),
        # Python refuses to convert an integer of more than 4300 digits, with a plain ValueError
        (["simulate-single", "--config=long.json"], 2,
         "config error: long.json: invalid JSON: Exceeds the limit (4300 digits) for integer string "
         "conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"),
    ], ids=["data-without-s21-columns", "no-emitters", "shared-coupling-point", "reversed-probe-grid",
            "geometry-two-datasets", "config-truncated-json", "config-integer-too-long"])
    def test_input_faults_exit_with_one_line(self, tmp_path, monkeypatch, capsys, argv, code, message):
        monkeypatch.chdir(tmp_path)
        k = KAPPA_INNER
        emitters_config(tmp_path / "none.json")
        (tmp_path / "cut.json").write_text('{"waveguide": ')
        (tmp_path / "long.json").write_text("1" * 5000)
        emitters_config(tmp_path / "shared.json", [(0.0, k), (0.05, k)], [(0.05, k), (0.1, k)])
        doc = json.loads(open(make_config(tmp_path)).read())
        probe = doc["probe"]
        probe["f_start_hz"], probe["f_stop_hz"] = probe["f_stop_hz"], probe["f_start_hz"]
        (tmp_path / "reversed.json").write_text(json.dumps(doc))
        assert main(["synth", "--config", "config.json", "--output", "d.csv"]) == 0
        (tmp_path / "db.csv").write_text("frequency_hz,s21_db\n4.3e9,-1.0\n4.4e9,-2.0\n")
        capsys.readouterr()
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert main([*argv, "--output", "out.csv"]) == code
        assert capsys.readouterr().err == message + "\n"
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_singular_lapack_solve_exits_3(self, tmp_path, monkeypatch, capsys):
        # above _MAX_ELIMINATION_N emitters 'probe' solves with LAPACK; its
        # LinAlgError on a singular block leaves as a numeric failure
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.chdir(tmp_path)
        n = multipoint._MAX_ELIMINATION_N + 1
        emitters_config(tmp_path / "many.json", *([(0.01 * j, KAPPA_INNER)] for j in range(n)))
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        monkeypatch.setattr(np.linalg, "solve", singular)
        argv = ["simulate-general", "--convention=probe", "--config=many.json", "--output=g.csv"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "numeric failure: singular resolvent on the frequency grid\n"
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


# the submodules beyond cli, core and io that each command of the golden runs loads
COMMAND_MODULES = {
    "simulate-single": ["single"],
    "synth": ["single"],
    "map --sweep detuning": ["nested", "single"],
    "map --sweep field": ["single"],
    "anisotropy": ["anisotropy"],
    "pv-check": ["lambpv"],
    "fit": ["fitting", "nested", "single"],
    "simulate-nested": ["nested", "single"],
    "fit-geometry": ["fitting", "nested", "single"],
    "simulate-general": ["multipoint"],
}

LOADED_SUBMODULES = "print(' '.join(sorted(m[7:] for m in sys.modules if m.startswith('gsesim.'))))"


class TestColdStart:
    def test_bare_import_loads_no_submodule(self):
        names = ["core", "single", "nested", "multipoint", "anisotropy", "lambpv", "fitting"]
        proc = fresh_python("-c", (
            "import sys, gsesim; "
            f"{LOADED_SUBMODULES}; "
            f"assert all(getattr(gsesim, m) is sys.modules['gsesim.' + m] for m in {names!r})"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "\n"

    def test_cli_parser_loads_only_core_and_io(self):
        proc = fresh_python("-c", f"import sys; from gsesim.cli import build_parser; build_parser(); "
                                  f"{LOADED_SUBMODULES}")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["cli", "core", "io"]

    def test_each_command_loads_only_the_modules_it_calls(self, tmp_path, monkeypatch):
        # the golden runs cover every command; run once in process, they
        # leave each command's inputs in place for its own fresh process
        monkeypatch.chdir(tmp_path)
        for name, doc in golden.INPUTS.items():
            (tmp_path / name).write_text(json.dumps(doc))
        for argv in golden.RUNS:
            assert main(argv) == 0, argv
        loaded = {}
        for argv in golden.RUNS:
            command = " ".join(argv[:3]) if argv[0] == "map" else argv[0]
            if command not in loaded:
                proc = fresh_python("-c", "import sys; from gsesim.cli import main; "
                                          f"assert main(sys.argv[1:]) == 0; {LOADED_SUBMODULES}", *argv)
                assert proc.returncode == 0, proc.stderr
                # pv-check prints its summary first
                modules = proc.stdout.splitlines()[-1].split()
                loaded[command] = [m for m in modules if m not in ("cli", "core", "io")]
        assert loaded == COMMAND_MODULES

    def test_map_and_read_map_csv_leave_numpy_ma_unloaded(self, tmp_path):
        # np.unique(x) imports numpy.ma, 12-19 ms of a cold process: this is why
        # io._distinct (map --values, read_map_csv) and the set of point counts
        # in multipoint._grid_drives ('mixed' on emitters of 2 and 1 points) exist
        config = make_config(tmp_path, n_points=51)
        k = KAPPA_INNER
        emitters_config(tmp_path / "mixed.json", [(0.0, k), (L_INNER, k)], [(0.05, k)])
        proc = fresh_python("-c", (
            "import sys; from gsesim.cli import main; from gsesim.io import read_map_csv; "
            f"assert main(['map', '--sweep=field', '--values=0.154:0.156:3', '--config={config}', "
            f"'--output={tmp_path / 'field.csv'}']) == 0; "
            "assert main(['map', '--sweep=detuning', '--values=-5MHz:5MHz:3', '--grid=4.34GHz:4.36GHz:21', "
            f"*{TWO_MODE!r}, '--output={tmp_path / 'detuning.csv'}']) == 0; "
            f"read_map_csv({str(tmp_path / 'detuning.csv')!r}); "
            f"assert main(['simulate-general', '--convention=mixed', '--config={tmp_path / 'mixed.json'}', "
            f"'--output={tmp_path / 'general.csv'}']) == 0; "
            "print('numpy.ma' in sys.modules)"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_public_names_are_their_submodules_objects(self):
        star = {}
        exec("from gsesim import *", star)
        for module, names in gsesim._EXPORTS.items():
            for name in names:
                assert getattr(gsesim, name) is getattr(sys.modules["gsesim." + module], name)
                assert star[name] is getattr(gsesim, name)
        assert sorted(k for k in star if k != "__builtins__") == sorted(gsesim.__all__)

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            gsesim.no_such_name

    def test_parameter_name_error_is_one_class(self):
        assert gsesim.ParameterNameError is fitting.ParameterNameError is core.ParameterNameError

    def test_cli_import_loads_no_scipy(self):
        proc = fresh_python("-c", (
            "import gsesim.cli, sys; "
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
        ))
        assert proc.returncode == 0, proc.stderr

    def test_pv_check_loads_no_scipy(self, tmp_path):
        out = tmp_path / "pv.csv"
        proc = fresh_python("-c", (
            "import sys; from gsesim.cli import main; "
            f"assert main(['pv-check', '--x', '0.5:50:40', '--output', {str(out)!r}]) == 0; "
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
        ))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_fits_load_no_scipy(self, tmp_path):
        # fit and fit-geometry through cli.main on small synthetic spectra
        paths = []
        for k, f_res in enumerate((4.0e9, 4.4e9, 4.8e9)):
            config = make_config(tmp_path, f_res=f_res, n_points=201)
            paths.append((f_res, str(tmp_path / f"s{k}.csv")))
            assert main(["synth", "--config", config, "--noise-sigma", "0.005", "--seed", str(k),
                         "--output", paths[-1][1]]) == 0
        runs = [
            ["fit", "--data", paths[0][1], "--model", "single_giant",
             "--free", "f_res=4.0e9:3.99e9:4.01e9", "--free", "kappa_g=2e6:0:2e7",
             "--free", "beta=2e6:0:2e7", "--output", str(tmp_path / "fit.json")],
            ["fit-geometry", *(f"--dataset={f!r}Hz={p}" for f, p in paths),
             f"--free=kappa={KAPPA_INNER!r}:0:1e8", f"--free=beta={BETA_INNER!r}:0:1e8",
             f"--free=length={L_INNER!r}:0.01:0.5", f"--fixed=speed={SPEED!r}",
             "--output", str(tmp_path / "geometry.json")],
        ]
        proc = fresh_python("-c", (
            "import sys; from gsesim.cli import main; "
            f"assert [main(argv) for argv in {runs!r}] == [0, 0]; "
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
        ))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "fit.json").exists() and (tmp_path / "geometry.json").exists()

    def test_pv_check_threads_flag_is_ignored(self, tmp_path):
        # --threads is accepted for compatibility and starts no threads; the
        # bytes of a fresh process must not depend on it
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"pv{threads}.csv"
            proc = fresh_python("-m", "gsesim.cli", "pv-check", "--x", "0.5:20:12",
                                "--branch", "-", "--threads", threads, "--output", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

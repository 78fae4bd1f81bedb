import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gsesim
from gsesim.cli import main, parse_angle, parse_frequency, parse_range
from gsesim.core import FrequencyGrid, Spectrum
from gsesim.io import (
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
from conftest import BETA_INNER, KAPPA_INNER, L_INNER, SPEED, TWO_MODE

# any finite double: hypothesis draws ±0.0, subnormals and values near 1e±308
FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1.7976931348623157e308, -3.0] * 3


def same_doubles(a, b):
    """Bitwise equality, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
        freqs, data, magnitude_only = read_spectrum_csv(path)
        assert not magnitude_only
        assert np.array_equal(freqs, grid.frequencies)
        assert np.array_equal(data, s.s21)

    def test_magnitude_only_detected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "frequency_hz,s21_mag\n1000000000.0,0.9\n1000001000.0,0.8\n"
        )
        freqs, data, magnitude_only = read_spectrum_csv(path)
        assert magnitude_only
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
        got_freqs, data, magnitude_only = read_spectrum_csv(path)
        assert not magnitude_only
        assert same_doubles(got_freqs, freqs)
        assert same_doubles(data.real, cells[:n]) and same_doubles(data.imag, cells[n:2 * n])

    def test_quoted_cells_parse_as_before(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('"frequency_hz","s21_re","s21_im"\r\n'
                        '"1000000000.0","0.5",-0.25\r\n1000001000.0,"-0.0"," 1e-310"\r\n')
        freqs, data, magnitude_only = read_spectrum_csv(path)
        assert not magnitude_only
        assert same_doubles(freqs, [1e9, 1.000001e9])
        assert same_doubles(data.real, [0.5, -0.0]) and same_doubles(data.imag, [-0.25, 1e-310])

    @pytest.mark.parametrize("row", ["1000002000.0,oops", "1000002000.0"],
                             ids=["non-numeric", "short-row"])
    def test_blank_lines_keep_file_line_numbers(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            "frequency_hz,s21_mag\n1000000000.0,0.9\n\n1000001000.0,0.8\n\n" + row + "\n"
        )
        with pytest.raises(DataFormatError, match=":6: "):
            read_spectrum_csv(path)

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
        mags = np.array(cells[:len(sweep) * len(freqs)]).reshape(len(sweep), len(freqs))
        columns = [(v, SimpleNamespace(frequencies=np.array(freqs), magnitude=m))
                   for v, m in zip(sweep, mags)]
        path = tmp_path_factory.mktemp("map") / "map.csv"
        with np.errstate(invalid="ignore"):  # the dB of a negative cell is nan
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
        ],
        ids=["empty", "short-row", "non-numeric"],
    )
    def test_malformed_map_rejected(self, tmp_path, text, where):
        path = tmp_path / "map.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=where):
            read_map_csv(path)


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

    def test_valid_config_loads(self, tmp_path):
        wg, topo, grid = load_config(make_config(tmp_path))
        assert wg.speed == SPEED
        assert topo.classification == "single"
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


class TestSynthNoise:
    def test_seed_reproducibility(self):
        a = synth_noise(100, 0.01, 7)
        b = synth_noise(100, 0.01, 7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, synth_noise(100, 0.01, 8))

    def test_zero_sigma_is_exact_zero(self):
        assert np.all(synth_noise(10, 0.0, 0) == 0)

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
        freqs, data, _ = read_spectrum_csv(out)
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
        assert main(["fit-geometry", *(f"--dataset={d}" for d in datasets),
                     *(f"--free={v}" for v in free), *(f"--fixed={v}" for v in fixed),
                     "--output", report]) == 0
        config = json.loads(open(report + ".manifest.json").read())["config"]
        assert config["free"] == free and config["fixed"] == fixed

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

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        make_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes().replace(b'"inner"', b'"in\xffner"'))
        out = tmp_path / "spec.csv"
        assert main(["simulate-single", "--config", str(cfg), "--output", str(out)]) == 2
        assert f"config error: {cfg}: invalid JSON" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_pv_check_rows_within_tolerance(self, tmp_path):
        out = str(tmp_path / "pv.csv")
        assert main(["pv-check", "--x", "0.5:50:20", "--branch", "-", "--output", out]) == 0
        body = np.genfromtxt(out, delimiter=",", names=True)
        assert body["abs_err_a"].max() <= 1e-6
        assert body["abs_err_b"].max() <= 1e-6

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        out = tmp_path / "noisy.csv"
        assert main(["synth", "--config", cfg, "--noise-sigma", "0.01", "--seed=-1",
                     "--output", str(out)]) == 2
        assert "config error: --seed -1: must be >= 0" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

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
                                             ("--gamma", "infGHz")])
    def test_anisotropy_non_finite_input_exits_3(self, tmp_path, capsys, flag, value):
        # these used to write a curve of nan or inf frequencies and exit 0
        argv = {"--h-e0": "0.155", "--h-a": "0.0035", flag: value}
        out = tmp_path / "angles.csv"
        assert main(["anisotropy", *(f"{k}={v}" for k, v in argv.items()),
                     "--theta", "0deg:180deg:7", "--output", str(out)]) == 3
        assert "must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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


def _fresh_python(*args):
    src = os.path.dirname(os.path.dirname(gsesim.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        proc = _fresh_python("-c", (
            "import gsesim.cli, sys; "
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
        ))
        assert proc.returncode == 0, proc.stderr

    def test_pv_check_loads_no_scipy(self, tmp_path):
        out = tmp_path / "pv.csv"
        proc = _fresh_python("-c", (
            "import sys; from gsesim.cli import main; "
            f"assert main(['pv-check', '--x', '0.5:50:40', '--output', {str(out)!r}]) == 0; "
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"
        ))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_pv_check_threads_flag_is_ignored(self, tmp_path):
        # --threads is accepted for compatibility and starts no threads; the
        # bytes of a fresh process must not depend on it
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"pv{threads}.csv"
            proc = _fresh_python("-m", "gsesim.cli", "pv-check", "--x", "0.5:20:12",
                                 "--branch", "-", "--threads", threads, "--output", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

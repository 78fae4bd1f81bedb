import hashlib
import json
import math
import os

import numpy as np
import pytest

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
        ],
        ids=["field-without-config", "detuning-without-grid", "detuning-without-gamma"],
    )
    def test_map_missing_arguments_exit_2(self, tmp_path, argv):
        out, eig = tmp_path / "map.csv", tmp_path / "eig.csv"
        assert main(["map", *argv, "--output", str(out), "--eigen-output", str(eig)]) == 2
        assert list(tmp_path.iterdir()) == []

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

    def test_pv_check_rows_within_tolerance(self, tmp_path):
        out = str(tmp_path / "pv.csv")
        assert main(["pv-check", "--x", "0.5:50:20", "--branch", "-", "--output", out]) == 0
        body = np.genfromtxt(out, delimiter=",", names=True)
        assert body["abs_err_a"].max() <= 1e-6
        assert body["abs_err_b"].max() <= 1e-6

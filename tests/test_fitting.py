import math
import types
import warnings

import numpy as np
import pytest
import scipy.optimize

from gsesim.core import Waveguide
from gsesim.fitting import (
    DegeneracyWarning,
    FitError,
    FitProblem,
    ParameterNameError,
    avoided_crossing_splitting,
    dip_positions,
    extract_decay_curve,
    fit,
    fit_global_geometry,
    initial_guess_single,
    merged_linewidth,
    nested_fitform_model,
    single_giant_model,
    single_model,
)
from gsesim.io import synth_noise
from gsesim.nested import FitFormParams, s21_fitform_values
from conftest import BETA_INNER, KAPPA_INNER, L_INNER, MHZ, SPEED

TRUE_SINGLE = {
    "f_res": 4.35e9,
    "kappa": KAPPA_INNER,
    "beta": BETA_INNER,
    "length": L_INNER,
    "speed": SPEED,
}


def synth_single(n_points=2001, noise_sigma=0.0, seed=0, half_span=None):
    q = dict(TRUE_SINGLE)
    if half_span is None:
        # +- 20 linewidths around the dip
        phi = 2 * math.pi * q["f_res"] * q["length"] / q["speed"]
        width = 2 * q["kappa"] * (1 + math.cos(phi)) + q["beta"]
        half_span = 20 * width
    f = np.linspace(q["f_res"] - half_span, q["f_res"] + half_span, n_points)
    data = single_model(f, q) + synth_noise(n_points, noise_sigma, seed)
    return f, data


class TestRoundTrips:
    def test_noiseless_recovery(self):
        f, data = synth_single()
        problem = FitProblem(
            f, data, "single",
            free={"kappa": (KAPPA_INNER, 0.0, 1e8), "beta": (BETA_INNER, 0.0, 1e8)},
            fixed={"f_res": 4.35e9, "length": L_INNER, "speed": SPEED},
        )
        result = fit(problem)
        assert result.converged
        assert result.values["kappa"] == pytest.approx(KAPPA_INNER, rel=1e-8)
        assert result.values["beta"] == pytest.approx(BETA_INNER, rel=1e-8)
        assert result.residual_norm < 1e-8

    def test_noisy_monte_carlo(self):
        wins = 0
        for seed in range(20):
            f, data = synth_single(noise_sigma=0.01, seed=seed)
            problem = FitProblem(
                f, data, "single",
                free={
                    "kappa": (1.5 * KAPPA_INNER, 0.0, 1e8),
                    "beta": (1.5 * BETA_INNER, 0.0, 1e8),
                },
                fixed={"f_res": 4.35e9, "length": L_INNER, "speed": SPEED},
            )
            r = fit(problem)
            if (
                abs(r.values["kappa"] / KAPPA_INNER - 1) < 0.05
                and abs(r.values["beta"] / BETA_INNER - 1) < 0.05
            ):
                wins += 1
        assert wins >= 19

    def test_nested_fitform_recovers_couplings(self):
        # purely dissipative working point: free {gamma, j}
        q = FitFormParams(4.96e9, 4.96e9, 2.98 * MHZ, 2.78 * MHZ, 1.84 * MHZ, 1.28 * MHZ, 6.11e2, 2.89 * MHZ)
        f = np.linspace(4.96e9 - 30 * MHZ, 4.96e9 + 30 * MHZ, 3001)
        data = s21_fitform_values(q, f)
        problem = FitProblem(
            f, data, "nested_fitform",
            free={"gamma": (2.0 * MHZ, 0.0, 2e7), "j": (0.1 * MHZ, -1e7, 1e7)},
            fixed={
                "f_i": 4.96e9, "f_o": 4.96e9, "kappa_i_g": 2.98 * MHZ,
                "kappa_o_g": 2.78 * MHZ, "beta_i": 1.84 * MHZ, "beta_o": 1.28 * MHZ,
            },
        )
        r = fit(problem)
        assert r.values["gamma"] == pytest.approx(2.89 * MHZ, rel=0.02)
        assert abs(r.values["j"]) < 0.05 * MHZ

    def test_scale_equivariance(self):
        # multiplying rates and the frequency offsets by 10 rescales the
        # fitted rates by exactly the same factor
        results = []
        for scale in (1.0, 10.0):
            q = {
                "f_res": 4.35e9,
                "kappa_g": scale * 1.0 * MHZ,
                "beta": scale * 2.0 * MHZ,
            }
            f = 4.35e9 + np.linspace(-60, 60, 1501) * scale * MHZ / 2
            data = single_giant_model(f, q)
            problem = FitProblem(
                f, data, "single_giant",
                free={
                    "kappa_g": (scale * 0.7 * MHZ, 0.0, 1e9),
                    "beta": (scale * 2.5 * MHZ, 0.0, 1e9),
                },
                fixed={"f_res": 4.35e9},
            )
            results.append(fit(problem).values)
        assert results[1]["kappa_g"] / results[0]["kappa_g"] == pytest.approx(10.0, rel=1e-6)
        assert results[1]["beta"] / results[0]["beta"] == pytest.approx(10.0, rel=1e-6)

    def test_sigmas_shrink_like_sqrt_n(self):
        sig = {}
        for n in (500, 2000, 8000):
            f, data = synth_single(n_points=n, noise_sigma=0.01, seed=42)
            problem = FitProblem(
                f, data, "single",
                free={"kappa": (KAPPA_INNER, 0.0, 1e8), "beta": (BETA_INNER, 0.0, 1e8)},
                fixed={"f_res": 4.35e9, "length": L_INNER, "speed": SPEED},
            )
            sig[n] = fit(problem).sigmas["kappa"]
        assert sig[500] / sig[2000] == pytest.approx(2.0, rel=0.2)
        assert sig[2000] / sig[8000] == pytest.approx(2.0, rel=0.2)


class TestProblemValidation:
    def test_requires_enough_points(self):
        f = np.linspace(4.3e9, 4.4e9, 3)
        with pytest.raises(Exception):
            FitProblem(f, np.ones(3, dtype=complex), "single",
                       free={"kappa": (1e6, 0, 1e8), "beta": (1e6, 0, 1e8)})

    def test_guess_must_respect_bounds(self):
        f = np.linspace(4.3e9, 4.4e9, 100)
        with pytest.raises(Exception):
            FitProblem(f, np.ones(100, dtype=complex), "single_giant",
                       free={"kappa_g": (1e6, 2e6, 1e8)})

    @pytest.mark.parametrize(
        "free, fixed, message",
        [
            ({"f_res": (4.35e9, 4.3e9, 4.4e9)}, {},
             r"missing \['kappa_g', 'beta'\], unknown \[\]; expected"),
            ({"foo": (1.0, 0.0, 2.0)}, {"f_res": 4.35e9, "beta": 1e6},
             r"missing \['kappa_g'\], unknown \['foo'\]"),
        ],
        ids=["missing", "missing-and-unknown"],
    )
    def test_parameter_names_must_match_the_model(self, free, fixed, message):
        f = np.linspace(4.3e9, 4.4e9, 100)
        with pytest.raises(ParameterNameError, match=message):
            FitProblem(f, np.ones(100, dtype=complex), "single_giant", free=free, fixed=fixed)

    def test_magnitude_only_and_db(self):
        q = {"f_res": 4.35e9, "kappa_g": 1.0 * MHZ, "beta": 1.0 * MHZ}
        f = 4.35e9 + np.linspace(-20, 20, 801) * MHZ
        mag = np.abs(single_giant_model(f, q))
        for db in (False, True):
            data = 20 * np.log10(mag) if db else mag
            problem = FitProblem(
                f, data, "single_giant",
                free={"kappa_g": (0.8 * MHZ, 0, 1e8), "beta": (1.2 * MHZ, 0, 1e8)},
                fixed={"f_res": 4.35e9},
                magnitude_only=True,
                db_scale=db,
            )
            r = fit(problem)
            assert r.values["kappa_g"] == pytest.approx(1.0 * MHZ, rel=1e-6)

    def test_initial_guess_single(self):
        q = {"f_res": 4.35e9, "kappa_g": 1.0 * MHZ, "beta": 1.0 * MHZ}
        f = 4.35e9 + np.linspace(-20, 20, 2001) * MHZ
        guess = initial_guess_single(f, np.abs(single_giant_model(f, q)))
        assert guess["f_res"] == pytest.approx(4.35e9, abs=5e4)
        total = guess["kappa_g"] + guess["beta"]
        assert total == pytest.approx(2.0 * MHZ, rel=0.3)

    def test_flat_spectrum_has_no_guess(self):
        f = np.linspace(4.3e9, 4.4e9, 100)
        with pytest.raises(FitError):
            initial_guess_single(f, np.ones(100))


class TestConvergence:
    def test_optimizer_stop_raises(self, monkeypatch):
        # status 0: trf ran out of evaluations without meeting a tolerance
        stopped = types.SimpleNamespace(status=0, message="max_nfev reached")
        monkeypatch.setattr(scipy.optimize, "least_squares", lambda *a, **k: stopped)
        # unit-scale data on which an unbounded Nelder-Mead would converge
        f = np.linspace(-20.0, 20.0, 201)
        truth = {"f_res": 0.0, "kappa_g": 1.0, "beta": 1.0}
        problem = FitProblem(
            f, single_giant_model(f, truth), "single_giant",
            free={"kappa_g": (0.9, 0.0, 10.0), "beta": (1.1, 0.0, 10.0)},
            fixed={"f_res": 0.0},
        )
        with pytest.raises(FitError, match="max_nfev reached"):
            fit(problem)


class TestGeometryFit:
    # length and speed enter the model only through length/speed, so the
    # pair is jointly identifiable but individually degenerate: from the
    # true starting point a zero-residual fit stays put (and the singular-
    # Jacobian report names the flat direction), while the ratio is pinned
    # regardless of the starting point
    FREE_TRUE = {
        "kappa": (KAPPA_INNER, 0.0, 1e8),
        "beta": (BETA_INNER, 0.0, 1e8),
        "length": (L_INNER, 0.01, 0.5),
        "speed": (SPEED, 1e6, 1e9),
    }
    # the accumulated phase is ~700 rad, so the length/speed ratio must
    # start within ~0.5% of the truth to sit in the right phase basin;
    # rates can start far off
    FREE_OFFSET = {
        "kappa": (0.6e6, 0.0, 1e8),
        "beta": (1.2e6, 0.0, 1e8),
        "length": (L_INNER * 1.002, 0.01, 0.5),
        "speed": (SPEED * 0.9999, 1e6, 1e9),
    }

    def datasets(self, noise_sigma=0.0):
        out = []
        for k in range(8):
            f_res = 4.2e9 + k * 0.1e9  # spans ~2 interference periods
            q = dict(TRUE_SINGLE, f_res=f_res)
            f = np.linspace(f_res - 25 * MHZ, f_res + 25 * MHZ, 501)
            data = single_model(f, q) + synth_noise(501, noise_sigma, seed=k)
            out.append((f_res, f, data))
        return out

    def test_noiseless_recovers_geometry(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            r = fit_global_geometry(self.datasets(), free=self.FREE_TRUE)
        assert r.values["length"] == pytest.approx(L_INNER, rel=1e-6)
        assert r.values["speed"] == pytest.approx(SPEED, rel=1e-6)
        assert r.residual_norm < 1e-10

    def test_offset_start_still_pins_the_ratio(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            r = fit_global_geometry(self.datasets(), free=self.FREE_OFFSET)
        ratio = r.values["length"] / r.values["speed"]
        assert ratio == pytest.approx(L_INNER / SPEED, rel=1e-8)
        assert r.values["kappa"] == pytest.approx(KAPPA_INNER, rel=1e-6)

    def test_noisy_recovery_within_a_percent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            r = fit_global_geometry(self.datasets(noise_sigma=0.01), free=self.FREE_TRUE)
        assert r.values["length"] == pytest.approx(L_INNER, rel=1e-2)
        assert r.values["speed"] == pytest.approx(SPEED, rel=1e-2)

    def test_identical_resonances_degenerate(self):
        ds = self.datasets()
        same = [(ds[0][0], f, d) for _, f, d in ds[:3]]
        with pytest.raises(FitError):
            fit_global_geometry(same, free=self.FREE_TRUE)

    @pytest.mark.parametrize(
        "drop, extra, message",
        [("speed", {}, r"missing \['speed'\]"),
         (None, {"f_res": 4.35e9}, r"missing \[\], unknown \['f_res'\]")],
        ids=["missing-speed", "f_res-fixed"],
    )
    def test_parameter_names_must_match_the_model(self, drop, extra, message):
        free = {n: v for n, v in self.FREE_TRUE.items() if n != drop}
        with pytest.raises(ParameterNameError, match=message):
            fit_global_geometry(self.datasets(), free=free, fixed=extra)

    def test_narrow_span_warns(self):
        ds = []
        for k in range(3):
            f_res = 4.35e9 + k * 10 * MHZ  # far below one v/L period
            q = dict(TRUE_SINGLE, f_res=f_res)
            f = np.linspace(f_res - 25 * MHZ, f_res + 25 * MHZ, 301)
            ds.append((f_res, f, single_model(f, q)))
        with pytest.warns(DegeneracyWarning):
            fit_global_geometry(ds, free=self.FREE_TRUE)


class TestDecayCurve:
    def test_sweep_matches_interference_prediction(self):
        wg = Waveguide(SPEED)
        from gsesim.single import SingleGseParams

        reference = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, wg)
        entries = []
        for k in range(12):
            f_res = 4.2e9 + k * 0.04e9
            q = dict(TRUE_SINGLE, f_res=f_res)
            f = np.linspace(f_res - 30 * MHZ, f_res + 30 * MHZ, 1201)
            entries.append((f_res, f, single_model(f, q)))
        rows = extract_decay_curve(entries, reference)
        for f_res, fitted, predicted in rows:
            assert fitted == pytest.approx(predicted, rel=2e-2, abs=2e4)

    def test_period_of_maxima(self):
        # fitted decay maxima recur every v/L
        from gsesim.single import SingleGseParams

        wg = Waveguide(SPEED)
        reference = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, wg)
        f_res_grid = np.linspace(4.0e9, 5.2e9, 241)
        entries = []
        for f_res in f_res_grid:
            q = dict(TRUE_SINGLE, f_res=float(f_res))
            f = np.linspace(f_res - 30 * MHZ, f_res + 30 * MHZ, 601)
            entries.append((float(f_res), f, single_model(f, q)))
        rows = extract_decay_curve(entries, reference)
        fitted = np.array([r[1] for r in rows])
        peaks = [
            k for k in range(1, len(fitted) - 1)
            if fitted[k] >= fitted[k - 1] and fitted[k] >= fitted[k + 1]
            and fitted[k] > 3.5 * KAPPA_INNER
        ]
        assert len(peaks) >= 3
        periods = np.diff(f_res_grid[peaks])
        assert np.mean(periods) == pytest.approx(SPEED / L_INNER, rel=2e-2)

    def test_empty_rejected(self):
        from gsesim.single import SingleGseParams

        reference = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, Waveguide(SPEED))
        with pytest.raises(FitError):
            extract_decay_curve([], reference)


class TestMapAnalysis:
    def test_dip_positions_two_modes(self):
        f = np.linspace(-5, 5, 5001)
        mag = 1.0 - 0.5 * np.exp(-((f - 1.0) ** 2)) - 0.4 * np.exp(-((f + 1.0) ** 2))
        # overlapping tails pull the minima slightly inward from +-1
        dips = dip_positions(f, mag)
        assert dips == pytest.approx([-1.0, 1.0], abs=0.1)

    def test_avoided_crossing_extracts_2j(self):
        j_true = 1.01 * MHZ
        q = FitFormParams(4.35e9, 4.35e9, 1.15 * MHZ, 1.26e2, 1.54 * MHZ, 0.86 * MHZ, j_true, 3.28e2)
        f = np.linspace(4.35e9 - 20 * MHZ, 4.35e9 + 20 * MHZ, 20001)
        detunings = np.linspace(-10 * MHZ, 10 * MHZ, 81)
        mag = np.array([np.abs(s21_fitform_values(q.detuned(4.35e9 + d), f)) for d in detunings])
        splitting = avoided_crossing_splitting(detunings, f, mag)
        assert splitting == pytest.approx(2 * j_true, rel=0.05)

    def test_merged_linewidth(self):
        f = np.linspace(-10, 10, 20001)
        mag = 1.0 - 0.8 / (1.0 + (f / 2.0) ** 2)  # half width 2 -> FWHM 4
        assert merged_linewidth(f, mag) == pytest.approx(4.0, rel=1e-3)

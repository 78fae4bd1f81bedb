import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gsesim.fitting as fitting
from gsesim.core import ModelError, Waveguide
from gsesim.fitting import (
    MODEL_PARAMS,
    MODELS,
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
from gsesim.single import SingleGseParams
from conftest import BETA_INNER, KAPPA_INNER, L_INNER, MHZ, SPEED, with_extremes

TRUE_SINGLE = {
    "f_res": 4.35e9,
    "kappa": KAPPA_INNER,
    "beta": BETA_INNER,
    "length": L_INNER,
    "speed": SPEED,
}


# the purely dissipative two-mode working point of the nested-pair fits
DISSIPATIVE = FitFormParams(4.96e9, 4.96e9, 2.98 * MHZ, 2.78 * MHZ, 1.84 * MHZ, 1.28 * MHZ, 6.11e2, 2.89 * MHZ)
DISSIPATIVE_F = np.linspace(4.96e9 - 30 * MHZ, 4.96e9 + 30 * MHZ, 3001)


def synth_single(n_points=2001, noise_sigma=0.0, seed=0, half_span=None):
    q = dict(TRUE_SINGLE)
    if half_span is None:
        # +- 20 linewidths around the dip
        phi = 2 * math.pi * q["f_res"] * q["length"] / q["speed"]
        width = 2 * q["kappa"] * (1 + math.cos(phi)) + q["beta"]
        half_span = 20 * width
    f = np.linspace(q["f_res"] - half_span, q["f_res"] + half_span, n_points)
    data = single_model(f, q)[0] + synth_noise(n_points, noise_sigma, seed)
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
        q, f = DISSIPATIVE, DISSIPATIVE_F
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
            data = single_giant_model(f, q)[0]
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


def two_mode_poles(v):
    """Complex mode frequencies of the two-mode form, ordered by real part."""
    a = v["f_i"] - 1j * (v["kappa_i_g"] + v["beta_i"])
    d = v["f_o"] - 1j * (v["kappa_o_g"] + v["beta_o"])
    c = v["j"] - 1j * v["gamma"]
    root = np.sqrt(((a - d) / 2.0) ** 2 + c * c)
    return np.sort_complex(np.array([(a + d) / 2.0 - root, (a + d) / 2.0 + root]))


class TestUncertainties:
    def test_two_mode_flat_direction_is_reported(self):
        # S21 of the two-mode form fixes only seven real numbers (two poles,
        # the summed radiative rate, a complex constant), so with all eight
        # parameters free one direction is flat: the fit warns and reports
        # no sigma along it, and still recovers what the data determine
        q, f = DISSIPATIVE, DISSIPATIVE_F
        free = {n: (1.02 * v, 0.0, 2e7) for n, v in vars(q).items()}
        free.update(f_i=(q.f_i + 0.2 * MHZ, 4.9e9, 5.0e9), f_o=(q.f_o - 0.2 * MHZ, 4.9e9, 5.0e9),
                    gamma=(2.0 * MHZ, 0.0, 2e7), j=(0.1 * MHZ, -1e7, 1e7))
        with pytest.warns(DegeneracyWarning, match="kappa_i_g.*kappa_o_g.*gamma"):
            r = fit(FitProblem(f, s21_fitform_values(q, f), "nested_fitform", free=free))
        assert all(r.sigmas[n] == math.inf for n in ("kappa_i_g", "kappa_o_g", "gamma"))
        poles = two_mode_poles(r.values)
        assert np.max(np.abs(poles - two_mode_poles(vars(q)))) < 1e-9 * np.max(np.abs(poles))
        assert r.values["kappa_i_g"] + r.values["kappa_o_g"] == pytest.approx(
            q.kappa_i_g + q.kappa_o_g, rel=1e-9)

    def test_two_mode_with_couplings_free_is_identified(self):
        q, f = DISSIPATIVE, DISSIPATIVE_F
        fixed = {n: v for n, v in vars(q).items() if n not in ("gamma", "j")}
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegeneracyWarning)
            r = fit(FitProblem(f, s21_fitform_values(q, f) + synth_noise(f.size, 0.005, 1),
                               "nested_fitform", free={"gamma": (2.0 * MHZ, 0.0, 2e7),
                                                       "j": (0.1 * MHZ, -1e7, 1e7)}, fixed=fixed))
        assert all(0 < s < 0.01 * MHZ for s in r.sigmas.values())

    def test_single_giant_sigmas_match_the_noise_spread(self):
        truth = {"f_res": 4.35e9, "kappa_g": 1.0 * MHZ, "beta": 1.5 * MHZ}
        f = 4.35e9 + np.linspace(-20, 20, 801) * MHZ
        clean = single_giant_model(f, truth)[0]
        free = {"f_res": (4.35e9 + 0.1 * MHZ, 4.3e9, 4.4e9), "kappa_g": (1.2 * MHZ, 0.0, 1e8),
                "beta": (1.2 * MHZ, 0.0, 1e8)}
        fits = [fit(FitProblem(f, clean + synth_noise(f.size, 0.01, seed), "single_giant", free=free))
                for seed in range(50)]
        for name in free:
            spread = np.std([r.values[name] for r in fits], ddof=1)
            assert np.mean([r.sigmas[name] for r in fits]) == pytest.approx(spread, rel=0.2)

    def test_geometry_sigmas_match_the_noise_spread(self):
        free = {"kappa": (KAPPA_INNER, 0.0, 1e8), "beta": (BETA_INNER, 0.0, 1e8),
                "length": (L_INNER, 0.01, 0.5)}
        fits = []
        for seed in range(50):
            datasets = []
            for k in range(8):
                f_res = 4.2e9 + k * 0.1e9
                f = np.linspace(f_res - 25 * MHZ, f_res + 25 * MHZ, 501)
                data = single_model(f, dict(TRUE_SINGLE, f_res=f_res))[0] + synth_noise(501, 0.01, 100 * seed + k)
                datasets.append((f_res, f, data))
            fits.append(fit_global_geometry(datasets, free=free, fixed={"speed": SPEED}))
        for name in free:
            spread = np.std([r.values[name] for r in fits], ddof=1)
            assert np.mean([r.sigmas[name] for r in fits]) == pytest.approx(spread, rel=0.2)


class _Captured(Exception):
    pass


def captured_residual(call):
    """(fun, free) that call() hands to the fit solver, which is not run."""
    got = []

    def capture(fun, free, tol):
        got.append((fun, free))
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "_least_squares", capture)
        with pytest.raises(_Captured):
            call()
    return got[0]


def assert_jacobian_matches_central_differences(fun, x, steps):
    """Each column within 1e-6 of its largest entry, against steps well
    inside the scale on which the residual bends.

    The reference is the fourth-order stencil
    (8*[r(x+h) - r(x-h)] - [r(x+2h) - r(x-2h)]) / 12h, written as
    (4*D(h) - D(2h))/3 with D the central difference over the step as
    rounded; the second-order D(h) alone misses by its h^2 truncation.
    """
    r, jac = fun(x)
    assert jac.shape == (r.size, x.size)

    def central(i, h):
        up, down = x.copy(), x.copy()
        up[i] += h
        down[i] -= h
        return (fun(up)[0] - fun(down)[0]) / (up[i] - down[i])

    for i, h in enumerate(steps):
        fd = (4.0 * central(i, h) - central(i, 2.0 * h)) / 3.0
        assert np.max(np.abs(fd - jac[:, i])) <= 1e-6 * np.max(np.abs(jac[:, i])), (i, x)


def fd_steps(q, width):
    """1e-5 of the narrowest linewidth for rates and frequencies; 1e-7 of
    length and speed, which move a phase of ~100 rad."""
    return [1e-7 * v if n in ("length", "speed") else 1e-5 * width for n, v in q.items()]


def two_mode_points(rate, offset):
    """Two-mode parameters: rates drawn from rate, the rest offsets around 4.35 GHz."""
    return st.fixed_dictionaries({
        "f_i": offset, "f_o": offset, "kappa_i_g": rate, "kappa_o_g": rate, "beta_i": rate,
        "beta_o": rate, "j": offset, "gamma": offset}).map(
            lambda q: dict(q, f_i=4.35e9 + q["f_i"], f_o=4.35e9 + q["f_o"]))


RATE = st.floats(1e5, 3e6)
OFFSET = st.floats(-5e6, 5e6)
SIGNED_ZERO = st.sampled_from([0.0, -0.0])
MODEL_POINTS = {
    "single": st.fixed_dictionaries({
        "f_res": st.floats(4.3e9, 4.4e9), "kappa": RATE, "beta": RATE,
        "length": st.floats(0.02, 0.2), "speed": st.floats(2e7, 5e7)}),
    "single_giant": st.fixed_dictionaries({"f_res": st.floats(4.3e9, 4.4e9), "kappa_g": RATE, "beta": RATE}),
    "nested_fitform": two_mode_points(RATE, OFFSET),
}


def check_model_residuals(model, mode, q):
    """The residual of `model` at q, fitted to its own complex values or to
    its own magnitudes on a linear or dB scale, has the Jacobian its
    central differences give."""
    if model == "nested_fitform":
        # the narrower mode sets the scale; near a bound state it is dark
        width = np.min(-two_mode_poles(q).imag)
        assume(width > 1e4)
    else:
        width = q["beta"]
    if model == "single":
        # at destructive interference the dip and every derivative vanish
        assume(1.0 + math.cos(2 * math.pi * q["f_res"] * q["length"] / q["speed"]) > 1e-3)
    centre = q.get("f_res", q.get("f_i"))
    f = np.linspace(centre - 30 * MHZ, centre + 30 * MHZ, 401)
    s = fitting.MODELS[model](f, q)[0]
    if mode != "complex":
        assume(np.min(np.abs(s)) > 1e-2)  # |S21| has a kink at 0
        s = np.abs(s)
    fun = fitting._residuals(model, f, s, {}, list(q), db_scale=mode == "db")
    assert_jacobian_matches_central_differences(fun, np.array(list(q.values())), fd_steps(q, width))


class TestJacobians:
    """The closed-form Jacobians against central differences of the residuals."""

    @pytest.mark.parametrize("mode", ["complex", "magnitude", "db"])
    @pytest.mark.parametrize("model", sorted(MODEL_POINTS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_model_residuals(self, model, mode, data):
        check_model_residuals(model, mode, data.draw(MODEL_POINTS[model]))

    # a draw on which the second-order central difference alone missed
    # kappa_i_g by 1.001e-6 of the column, all of it h^2 truncation; the
    # closed form is within 2.4e-15 of a 50-digit derivative there
    @given(q=st.just(dict(f_i=4352105669.0, f_o=4347057842.0, kappa_i_g=1e5, kappa_o_g=2502312.0,
                          beta_i=2669726.0, beta_o=2327079.0, j=0.0, gamma=-3064292.0)))
    @settings(max_examples=1, deadline=None)
    def test_narrow_two_mode_db_point(self, q):
        check_model_residuals("nested_fitform", "db", q)

    @pytest.mark.parametrize("fixed", ["speed", "length"])
    @given(kappa=RATE, beta=RATE, delay=st.floats(1e-9, 5e-9))
    @settings(max_examples=40, deadline=None)
    def test_geometry_residual(self, fixed, kappa, beta, delay):
        free = {"kappa": (KAPPA_INNER, 0.0, 1e8), "beta": (BETA_INNER, 0.0, 1e8),
                "length": (L_INNER, 0.01, 0.5), "speed": (SPEED, 1e6, 1e9)}
        value = free.pop(fixed)[0]
        fun, free = captured_residual(lambda: fit_global_geometry(
            TestGeometryFit().datasets(), free=free, fixed={fixed: value}))
        q = {"kappa": kappa, "beta": beta, "length": SPEED * delay, "speed": L_INNER / delay}
        q = {n: q[n] for n in free}
        assert_jacobian_matches_central_differences(fun, np.array(list(q.values())), fd_steps(q, beta))

    @given(j=st.floats(1e5, 3e6), sign=st.sampled_from([-1.0, 1.0]), fc=st.floats(4.34e9, 4.36e9))
    @settings(max_examples=40, deadline=None)
    def test_splitting_residual(self, j, sign, fc):
        q = FitFormParams(4.35e9, 4.35e9, 1.15 * MHZ, 1.26e2, 1.54 * MHZ, 0.86 * MHZ, 1.01 * MHZ, 3.28e2)
        f = np.linspace(4.35e9 - 20 * MHZ, 4.35e9 + 20 * MHZ, 2001)
        detunings = np.linspace(-10 * MHZ, 10 * MHZ, 21)
        mag = np.array([np.abs(s21_fitform_values(replace(q, f_o=4.35e9 + d), f)) for d in detunings])
        fun, free = captured_residual(lambda: avoided_crossing_splitting(detunings, f, mag))
        assert list(free) == ["j", "fc"]
        # |j| >= 1e5 keeps the hyperbolae's bend 1e4 steps wide
        assert_jacobian_matches_central_differences(fun, np.array([sign * j, fc]), [10.0, 10.0])


class TestTwoModeModel:
    """The fit model against its closed form, s21_fitform_values."""

    @given(q=two_mode_points(RATE | SIGNED_ZERO, OFFSET | SIGNED_ZERO))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_closed_form(self, q):
        f = np.linspace(q["f_i"] - 30 * MHZ, q["f_i"] + 30 * MHZ, 401)
        with np.errstate(all="ignore"):  # zero rates put poles on the grid
            s21 = nested_fitform_model(f, q)[0]
            closed = s21_fitform_values(FitFormParams(**q), f)
        assert np.array_equal(s21, closed, equal_nan=True)

    @pytest.mark.parametrize("name", ["kappa_i_g", "kappa_o_g", "beta_i", "beta_o"])
    def test_negative_rate_is_a_model_error(self, name):
        q = dict(vars(DISSIPATIVE), **{name: -1.0})
        with pytest.raises(ModelError, match=f"{name} must be >= 0"):
            nested_fitform_model(DISSIPATIVE_F, q)


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
            ({"f_res": (4.35e9, 4.3e9, 4.4e9), "kappa_g": (1.2e6, 0.0, 1e8),
              "beta": (0.9e6, 0.0, 1e8)}, {"kappa_g": 5e6},
             r"\['kappa_g'\] are given both free and fixed"),
        ],
        ids=["missing", "missing-and-unknown", "free-and-fixed"],
    )
    def test_parameter_names_must_match_the_model(self, free, fixed, message):
        f = np.linspace(4.3e9, 4.4e9, 100)
        with pytest.raises(ParameterNameError, match=message):
            FitProblem(f, np.ones(100, dtype=complex), "single_giant", free=free, fixed=fixed)

    @pytest.mark.parametrize("model, free, options, message", [
        ("two_mode", {"f_res": (4.35e9, 4.3e9, 4.4e9)}, {}, "unknown model 'two_mode'"),
        ("single_giant", {}, {}, "at least one free parameter required"),
        ("single_giant", {"f_res": (4.35e9, 4.3e9, 4.4e9)}, {"db_scale": True},
         "db_scale applies to magnitude-only data"),
    ], ids=["unknown-model", "nothing-free", "db-without-magnitude"])
    def test_malformed_problem_is_a_model_error(self, model, free, options, message):
        f = np.linspace(4.3e9, 4.4e9, 100)
        with pytest.raises(ModelError, match=message):
            FitProblem(f, np.ones(100, dtype=complex), model, free=free, **options)

    def test_magnitude_and_db(self):
        # real data is |S21| on either scale: db_scale takes the same linear magnitudes
        q = {"f_res": 4.35e9, "kappa_g": 1.0 * MHZ, "beta": 1.0 * MHZ}
        f = 4.35e9 + np.linspace(-20, 20, 801) * MHZ
        mag = np.abs(single_giant_model(f, q)[0])
        for db in (False, True):
            problem = FitProblem(
                f, mag, "single_giant",
                free={"kappa_g": (0.8 * MHZ, 0, 1e8), "beta": (1.2 * MHZ, 0, 1e8)},
                fixed={"f_res": 4.35e9},
                db_scale=db,
            )
            r = fit(problem)
            assert r.values["kappa_g"] == pytest.approx(1.0 * MHZ, rel=1e-6)

    def test_db_scale_floors_a_zero_magnitude(self):
        # log10(0) warns, which pyproject makes an error: the data take the
        # model's floor, so a dip that reaches 0 gives a finite dB residual
        q = {"f_res": 4.35e9, "kappa_g": 1.0 * MHZ, "beta": 1.0 * MHZ}
        f = 4.35e9 + np.linspace(-20, 20, 801) * MHZ
        mag = np.abs(single_giant_model(f, q)[0])
        mag[400] = 0.0
        problem = FitProblem(f, mag, "single_giant", free={"kappa_g": (0.8 * MHZ, 0, 1e8)},
                             fixed={"f_res": 4.35e9, "beta": 1.0 * MHZ}, db_scale=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r, jac = fitting._stacked([problem])(np.array([0.8 * MHZ]))
        model_db = 20 * np.log10(np.abs(single_giant_model(f, dict(q, kappa_g=0.8 * MHZ))[0]))
        assert np.all(np.isfinite(r)) and np.all(np.isfinite(jac))
        assert r[400] == pytest.approx(model_db[400] + 6000.0, rel=1e-12)

    def test_real_data_is_a_magnitude(self):
        # a negative value was fitted as it is, or floored to -6000 dB under db_scale
        f = np.linspace(4.3e9, 4.4e9, 100)
        free, fixed = {"f_res": (4.35e9, 4.3e9, 4.4e9)}, {"kappa_g": 1e6, "beta": 1e6}
        data = np.ones(100)
        data[40] = -1e-3
        for db_scale in (False, True):
            with pytest.raises(ModelError, match=r"real data is \|S21\| and must be >= 0"):
                FitProblem(f, data, "single_giant", free=free, fixed=fixed, db_scale=db_scale)
        data[40] = -0.0
        FitProblem(f, data, "single_giant", free=free, fixed=fixed, db_scale=True)
        # the rule is for real data only: a complex value with a negative real part is S21
        FitProblem(f, data - 2.0 + 0j, "single_giant", free=free, fixed=fixed)

    @pytest.mark.parametrize("freqs_shape, data_shape", [((100,), (50,)), ((100,), (100, 1)), ((100, 1), (100, 1))],
                             ids=["short-data", "column-data", "column-grid"])
    def test_data_must_have_the_shape_of_a_1d_grid(self, freqs_shape, data_shape):
        # numpy's own broadcast and matmul errors escaped fit, as ValueError
        f = np.linspace(4.3e9, 4.4e9, 100).reshape(freqs_shape)
        with pytest.raises(ModelError, match="must match 1-D frequencies, got"):
            fit(FitProblem(f, np.ones(data_shape, dtype=complex), "single_giant",
                           free={"f_res": (4.35e9, 4.3e9, 4.4e9)}, fixed={"kappa_g": 1e6, "beta": 1e6}))

    def test_geometry_and_decay_fits_check_each_shape(self):
        datasets = TestGeometryFit().datasets()
        f_res, freqs, s21 = datasets[3]
        datasets[3] = (f_res, freqs, s21[:-1])
        with pytest.raises(ModelError, match=r"data of shape \(500,\) must match"):
            fit_global_geometry(datasets, free=TestGeometryFit.FREE, fixed=TestGeometryFit.FIXED)
        with pytest.raises(ModelError, match=r"data of shape \(500,\) must match"):
            extract_decay_curve([datasets[3]], REFERENCE)

    def test_initial_guess_single(self):
        q = {"f_res": 4.35e9, "kappa_g": 1.0 * MHZ, "beta": 1.0 * MHZ}
        f = 4.35e9 + np.linspace(-20, 20, 2001) * MHZ
        guess = initial_guess_single(f, np.abs(single_giant_model(f, q)[0]))
        assert guess["f_res"] == pytest.approx(4.35e9, abs=5e4)
        total = guess["kappa_g"] + guess["beta"]
        assert total == pytest.approx(2.0 * MHZ, rel=0.3)

    def test_initial_guess_single_one_point_below_half_depth(self):
        f = np.linspace(4.3e9, 4.4e9, 101)
        magnitude = np.ones(101)
        magnitude[40] = 0.2
        guess = initial_guess_single(f, magnitude)
        # the half-depth width is 0, so the total rate falls back to span/20
        assert guess["f_res"] == f[40]
        assert guess["kappa_g"] == guess["beta"] == pytest.approx((f[-1] - f[0]) / 40, rel=1e-15)

    def test_flat_spectrum_has_no_guess(self):
        f = np.linspace(4.3e9, 4.4e9, 100)
        with pytest.raises(FitError):
            initial_guess_single(f, np.ones(100))


class TestConvergence:
    # a start far off the truth, from which the fit takes 9 evaluations
    FAR = {"f_res": (3.0, -10.0, 10.0), "kappa_g": (4.0, 0.0, 10.0), "beta": (0.2, 0.0, 10.0)}

    def problem(self):
        f = np.linspace(-20.0, 20.0, 201)
        truth = {"f_res": 0.0, "kappa_g": 1.0, "beta": 1.0}
        return FitProblem(f, single_giant_model(f, truth)[0], "single_giant", free=self.FAR)

    def test_optimizer_stop_raises(self, monkeypatch):
        # the evaluation cap, lowered so that it is reached before any tolerance
        monkeypatch.setattr(fitting, "_MAX_NFEV", 4)
        with pytest.raises(FitError, match="did not converge in 4 evaluations"):
            fit(self.problem())

    def test_far_start_converges_under_the_cap(self):
        r = fit(self.problem())
        assert r.converged and r.n_iter < 20
        assert r.values["kappa_g"] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("guess", [1e-124, 1e-60, 1e-30, 1e-10])
    def test_tiny_guess_reaches_the_zero_guess_optimum(self, guess):
        # the trust radius started at |x / scale|: from a tiny guess every step
        # was shorter than the step test allows, and the fit reported the guess
        # as converged after 2 evaluations; from 1e-124 the radius underflowed
        # and _trust_step raised ZeroDivisionError
        def fitted(g):
            model, freqs, data, free, fixed, *modes = fit_case("nested_fitform", TWO_MODE_Q,
                                                               {"gamma": (g, -2e6, 2e6)})
            return fit(FitProblem(freqs, data, model, free, fixed, *modes))

        zero, tiny = fitted(0.0), fitted(guess)
        assert zero.values["gamma"] == pytest.approx(TWO_MODE_Q["gamma"], rel=1e-9)
        assert tiny.values["gamma"] == pytest.approx(zero.values["gamma"], rel=1e-9)
        assert tiny.residual_norm == pytest.approx(zero.residual_norm, abs=1e-9)


class TestGeometryFit:
    # length and speed enter the model only through the delay length/speed,
    # so the fit takes one of them fixed; the delay is pinned whatever the
    # fixed value, and with speed fixed every parameter is identified
    FREE = {
        "kappa": (KAPPA_INNER, 0.0, 1e8),
        "beta": (BETA_INNER, 0.0, 1e8),
        "length": (L_INNER, 0.01, 0.5),
    }
    FIXED = {"speed": SPEED}
    # the accumulated phase is ~700 rad, so the delay must start within
    # ~0.5% of the truth to sit in the right phase basin; rates can start far off
    FREE_OFFSET = {
        "kappa": (0.6e6, 0.0, 1e8),
        "beta": (1.2e6, 0.0, 1e8),
        "length": (L_INNER * 1.002, 0.01, 0.5),
    }

    def datasets(self, noise_sigma=0.0):
        out = []
        for k in range(8):
            f_res = 4.2e9 + k * 0.1e9  # spans ~2 interference periods
            q = dict(TRUE_SINGLE, f_res=f_res)
            f = np.linspace(f_res - 25 * MHZ, f_res + 25 * MHZ, 501)
            data = single_model(f, q)[0] + synth_noise(501, noise_sigma, seed=k)
            out.append((f_res, f, data))
        return out

    def test_noiseless_recovers_geometry(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegeneracyWarning)
            r = fit_global_geometry(self.datasets(), free=self.FREE, fixed=self.FIXED)
        assert r.values["length"] / SPEED == pytest.approx(L_INNER / SPEED, rel=1e-8)
        assert r.values["kappa"] == pytest.approx(KAPPA_INNER, rel=1e-6)
        assert r.values["beta"] == pytest.approx(BETA_INNER, rel=1e-6)
        assert r.residual_norm < 1e-10

    def test_offset_start_still_pins_the_ratio(self):
        # a speed fixed 0.01 % off the truth moves the length, not the delay
        speed = SPEED * 0.9999
        r = fit_global_geometry(self.datasets(), free=self.FREE_OFFSET, fixed={"speed": speed})
        assert r.values["length"] / speed == pytest.approx(L_INNER / SPEED, rel=1e-8)
        assert r.values["kappa"] == pytest.approx(KAPPA_INNER, rel=1e-6)

    def test_noisy_recovery_within_a_percent(self):
        r = fit_global_geometry(self.datasets(noise_sigma=0.01), free=self.FREE, fixed=self.FIXED)
        assert r.values["length"] == pytest.approx(L_INNER, rel=1e-2)
        assert r.values["kappa"] == pytest.approx(KAPPA_INNER, rel=5e-2)

    def test_length_and_speed_both_free_is_an_error(self):
        free = dict(self.FREE, speed=(SPEED, 1e6, 1e9))
        with pytest.raises(ParameterNameError, match=r"enter only as length/speed; fix one"):
            fit_global_geometry(self.datasets(), free=free)

    def test_two_datasets_are_too_few(self):
        # the CLI rejects fewer than three --dataset items before it calls the fit
        with pytest.raises(FitError, match="geometry fit needs at least 3 datasets"):
            fit_global_geometry(self.datasets()[:2], free=self.FREE, fixed=self.FIXED)

    def test_identical_resonances_degenerate(self):
        ds = self.datasets()
        same = [(ds[0][0], f, d) for _, f, d in ds[:3]]
        with pytest.raises(FitError):
            fit_global_geometry(same, free=self.FREE, fixed=self.FIXED)

    @pytest.mark.parametrize(
        "fixed, message",
        [({}, r"missing \['speed'\]"),
         ({"f_res": 4.35e9, "speed": SPEED}, r"missing \[\], unknown \['f_res'\]"),
         ({"kappa": 7.6e5, "speed": SPEED}, r"\['kappa'\] are given both free and fixed")],
        ids=["missing-speed", "f_res-fixed", "free-and-fixed"],
    )
    def test_parameter_names_must_match_the_model(self, fixed, message):
        with pytest.raises(ParameterNameError, match=message):
            fit_global_geometry(self.datasets(), free=self.FREE, fixed=fixed)

    @pytest.mark.parametrize("fault, message", [
        ("nan", "frequencies and data must be finite"),
        ("inf", "frequencies and data must be finite"),
        ("decreasing", "frequency grid must be strictly increasing"),
        ("few-points", "5 points cannot constrain 3 parameters"),
    ])
    def test_each_dataset_is_checked_as_a_fit_problem(self, fault, message):
        ds = self.datasets()[:3]
        f_res, f, data = ds[1]
        if fault == "decreasing":
            f, data = f[::-1], data[::-1]
        elif fault == "few-points":
            f, data = f[::125], data[::125]
        else:
            data = data.copy()
            data[250] = complex(fault)
        ds[1] = (f_res, f, data)
        with pytest.raises(ModelError, match=message):
            fit_global_geometry(ds, free=self.FREE, fixed=self.FIXED)

    @pytest.mark.parametrize("f_res", [math.nan, math.inf, -math.inf])
    def test_non_finite_resonance_is_a_parameter_error(self, f_res):
        ds = self.datasets()[:3]
        ds[2] = (f_res, *ds[2][1:])
        with pytest.raises(ParameterNameError, match=r"fixed parameters \['f_res'\] must be finite"):
            fit_global_geometry(ds, free=self.FREE, fixed=self.FIXED)

    def test_narrow_span_warns(self):
        ds = []
        for k in range(3):
            f_res = 4.35e9 + k * 10 * MHZ  # far below one v/L period
            q = dict(TRUE_SINGLE, f_res=f_res)
            f = np.linspace(f_res - 25 * MHZ, f_res + 25 * MHZ, 301)
            ds.append((f_res, f, single_model(f, q)[0]))
        with pytest.warns(DegeneracyWarning):
            fit_global_geometry(ds, free=self.FREE, fixed=self.FIXED)


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
            entries.append((f_res, f, single_model(f, q)[0]))
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
            entries.append((float(f_res), f, single_model(f, q)[0]))
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

    @pytest.mark.parametrize("shape", ["rising", "falling", "flat", "valley-at-the-edges"])
    def test_dip_positions_without_an_interior_minimum(self, shape):
        f = np.linspace(-5.0, 5.0, 11)
        mag = {"rising": 1.0 + f, "falling": 1.0 - f, "flat": np.ones(11),
               "valley-at-the-edges": np.cos(0.3 * f)}[shape]
        dips = dip_positions(f, mag)
        assert dips.shape == (0,)

    def test_avoided_crossing_extracts_2j(self):
        j_true = 1.01 * MHZ
        q = FitFormParams(4.35e9, 4.35e9, 1.15 * MHZ, 1.26e2, 1.54 * MHZ, 0.86 * MHZ, j_true, 3.28e2)
        f = np.linspace(4.35e9 - 20 * MHZ, 4.35e9 + 20 * MHZ, 20001)
        detunings = np.linspace(-10 * MHZ, 10 * MHZ, 81)
        mag = np.array([np.abs(s21_fitform_values(replace(q, f_o=4.35e9 + d), f)) for d in detunings])
        splitting = avoided_crossing_splitting(detunings, f, mag)
        assert splitting == pytest.approx(2 * j_true, rel=0.05)

    def test_avoided_crossing_needs_five_two_dip_columns(self):
        f = np.linspace(-10, 10, 2001)
        two = 1.0 - 0.5 * np.exp(-((f - 3.0) ** 2)) - 0.5 * np.exp(-((f + 3.0) ** 2))
        one = 1.0 - 0.5 * np.exp(-(f**2))
        with pytest.raises(FitError, match="too few two-dip columns for an avoided-crossing fit"):
            avoided_crossing_splitting(np.arange(5.0), f, np.array([two, two, one, two, two]))

    def test_merged_linewidth(self):
        f = np.linspace(-10, 10, 20001)
        mag = 1.0 - 0.8 / (1.0 + (f / 2.0) ** 2)  # half width 2 -> FWHM 4
        assert merged_linewidth(f, mag) == pytest.approx(4.0, rel=1e-3)

    @pytest.mark.parametrize("width", [merged_linewidth, initial_guess_single])
    def test_nan_column_has_no_width(self, width):
        mag = np.ones(11)
        mag[[3, 5, 7]] = [0.2, np.nan, 0.2]
        with pytest.raises(FitError):
            width(np.linspace(4.3e9, 4.4e9, 11), mag)


# bounds of every fit parameter; true values and guesses are drawn inside them
RANGES = {
    **dict.fromkeys(("f_res", "f_i", "f_o"), (4.33e9, 4.37e9)),
    **dict.fromkeys(("kappa", "kappa_g", "beta", "kappa_i_g", "kappa_o_g", "beta_i", "beta_o"), (0.0, 4e6)),
    **dict.fromkeys(("j", "gamma"), (-2e6, 2e6)),
    "length": (0.01, 0.5),
    "speed": (1e7, 1e8),
}


def inside(draw, name):
    lo, hi = RANGES[name]
    return draw(st.floats(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))


def spectrum(model, f_lo, f_hi, q, noise=0.0, n=41):
    """(freqs, S21) of model on n points with noise added to the middle one,
    warnings off: the numbers may be extreme, and the fit, not this, is under test."""
    with np.errstate(all="ignore"):
        freqs = np.linspace(f_lo, f_hi, n)
        s21 = np.asarray(MODELS[model](freqs, q)[0], dtype=complex) * np.ones(n)
        s21[n // 2] += noise
    return freqs, s21


def fit_case(model, q, free, f_lo=4.33e9, f_hi=4.37e9, noise=0.0, magnitude=False, db=False):
    """(model, freqs, data, free, fixed, db_scale) of a fit of model to its
    own spectrum at q, or with magnitude to its |S21| (in dB with db too),
    the names not in free fixed at q."""
    freqs, data = spectrum(model, f_lo, f_hi, q, noise)
    fixed = {n: v for n, v in q.items() if n not in free}
    return model, freqs, np.abs(data) if magnitude else data, free, fixed, magnitude and db


def with_fixed(case, **values):
    """fit_case case with the fixed values replaced."""
    model, freqs, data, free, fixed, *modes = case
    return (model, freqs, data, free, {**fixed, **values}, *modes)


def geometry_case(kappa, beta, length, speed, f_res, guesses, noise=0.0):
    """(datasets, free, fixed) of a geometry fit to single-GSE spectra 30 MHz
    either side of each resonance in f_res, with speed fixed."""
    datasets = []
    for f0 in f_res:
        q = dict(f_res=f0, kappa=kappa, beta=beta, length=length, speed=speed)
        datasets.append((f0, *spectrum("single", f0 - 30e6, f0 + 30e6, q, noise)))
    free = {n: (g, *RANGES[n]) for n, g in zip(("kappa", "beta", "length"), guesses)}
    return datasets, free, {"speed": speed}


def decay_case(f_res, kappa_g, beta, half_span, reference, noise=0.0):
    """(entries, reference) of extract_decay_curve on single_giant spectra at f_res."""
    q = dict(kappa_g=kappa_g, beta=beta)
    return [(f0, *spectrum("single_giant", f0 - half_span, f0 + half_span, dict(q, f_res=f0), noise))
            for f0 in f_res], reference


def dip(f_lo, f_hi, f0, width, depth, noise=0.0):
    """(freqs, |S21|) of one Lorentzian dip on 21 points, noise added to the middle one."""
    with np.errstate(all="ignore"):
        freqs = np.linspace(f_lo, f_hi, 21)
        magnitude = 1.0 - depth / (1.0 + ((freqs - f0) / width) ** 2)
        magnitude[10] += noise
    return freqs, magnitude


@st.composite
def extreme_fits(draw):
    """fit_case of any model with some names free, with one to four of its
    numbers (grid ends, true values, guesses, bounds, a data point) replaced
    by extremes, or the ModelError that forming the data raised."""
    model = draw(st.sampled_from(sorted(MODEL_PARAMS)))
    names = MODEL_PARAMS[model]
    free_names = draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True))
    per_name = [[inside(draw, n), inside(draw, n), *RANGES[n]] for n in names]
    numbers = with_extremes(draw, [4.33e9, 4.37e9, 0.0, *(x for row in per_name for x in row)])
    (f_lo, f_hi, noise), rows = numbers[:3], np.reshape(numbers[3:], (-1, 4))
    q = dict(zip(names, rows[:, 0].tolist()))
    free = {n: tuple(row[1:].tolist()) for n, row in zip(names, rows) if n in free_names}
    try:
        return fit_case(model, q, free, f_lo, f_hi, noise, draw(st.booleans()), draw(st.booleans()))
    except ModelError as exc:
        return exc


@st.composite
def extreme_geometries(draw):
    """geometry_case at three resonances with one to four numbers replaced
    by extremes, or the ModelError that forming the data raised."""
    truth, guesses = ([inside(draw, n) for n in ("kappa", "beta", "length")] for _ in range(2))
    numbers = with_extremes(draw, [*truth, SPEED, 4.0e9, 4.4e9, 4.8e9, *guesses, 0.0])
    try:
        return geometry_case(*numbers[:4], numbers[4:7], numbers[7:10], numbers[10])
    except ModelError as exc:
        return exc


@st.composite
def extreme_decay_entries(draw):
    """decay_case at two resonances with one to four numbers, those of the
    reference ensemble included, replaced by extremes, or the ModelError
    that forming the data or the reference raised."""
    numbers = with_extremes(draw, [4.34e9, 4.36e9, inside(draw, "kappa_g"), inside(draw, "beta"), 30e6,
                                   KAPPA_INNER, L_INNER, SPEED, 0.0])
    *f_res, kappa_g, beta, half_span, kappa, length, speed, noise = numbers
    try:
        reference = SingleGseParams(kappa, BETA_INNER, length, 4.35e9, Waveguide(speed))
        return decay_case(f_res, kappa_g, beta, half_span, reference, noise)
    except ModelError as exc:
        return exc


@st.composite
def extreme_dips(draw):
    """dip with one to four of its numbers replaced by extremes."""
    return dip(*with_extremes(draw, [4.33e9, 4.37e9, draw(st.floats(4.34e9, 4.36e9)), draw(st.floats(1e6, 1e7)),
                                     draw(st.floats(0.1, 0.9)), 0.0]))


def finite_fit(result):
    """Finite estimates and residual; a sigma is finite or, along a flat direction, inf."""
    assert all(math.isfinite(v) for v in result.values.values())
    assert math.isfinite(result.residual_norm)
    assert all(s >= 0 for s in result.sigmas.values())


GIANT = dict(f_res=4.35e9, kappa_g=4e5, beta=4e5)
TWO_MODE_Q = dict(f_i=4.334e9, f_o=4.334e9, kappa_i_g=4e5, kappa_o_g=4e5, beta_i=4e5, beta_o=4e5, j=0.0, gamma=1e5)
DEVICE = dict(TRUE_SINGLE, kappa=2.2e-308)  # a subnormal Jacobian column: every S21 within 1e-313 of 1
REFERENCE = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, Waveguide(SPEED))


class TestExtremeInputs:
    """Any numbers reach the caller as finite results or one ModelError
    (FitError included), never a RuntimeWarning or another exception."""

    @given(case=extreme_fits())
    # faults of the parent: np.diff warned on a grid ending in inf; |r|^2
    # overflowed; 1/sv overflowed, and the sigma was NaN, on a Jacobian
    # column whose norm underflows; a fixed speed of 0 raised ZeroDivisionError
    @example(case=fit_case("single_giant", GIANT, {"f_res": (4.35e9, 4.33e9, 4.37e9)}, f_hi=math.inf))
    @example(case=fit_case("single_giant", GIANT, {"f_res": (4.35e9, 4.33e9, 4.37e9)}, noise=1e300))
    @example(case=fit_case("single", DEVICE, {"f_res": (4.34e9, 4.33e9, 4.37e9)}))
    @example(case=with_fixed(fit_case("single", TRUE_SINGLE, {"kappa": (4e5, 0.0, 4e6)}), speed=0.0))
    # a tiny guess gave a trust radius that underflowed: ZeroDivisionError in _trust_step
    @example(case=fit_case("nested_fitform", TWO_MODE_Q, {"gamma": (1e-124, -2e6, 2e6)}))
    @settings(max_examples=200, deadline=None)
    def test_fit_is_finite_or_model_error(self, case):
        if isinstance(case, ModelError):
            return
        model, freqs, data, free, fixed, db_scale = case
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", DegeneracyWarning)
            try:
                result = fit(FitProblem(freqs, data, model, free, fixed, db_scale))
            except ModelError:
                return
        finite_fit(result)

    @given(case=extreme_geometries())
    # a fault of the parent: the Jacobian's column norms overflowed at a resonance of 1e300 Hz
    @example(case=geometry_case(KAPPA_INNER, BETA_INNER, L_INNER, SPEED, (1e300, 4.4e9, 4.8e9),
                                (7e5, 1.5e6, 0.08)))
    @settings(max_examples=100, deadline=None)
    def test_geometry_fit_is_finite_or_model_error(self, case):
        if isinstance(case, ModelError):
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", DegeneracyWarning)
            try:
                result = fit_global_geometry(*case)
            except ModelError:
                return
        finite_fit(result)

    @given(case=extreme_decay_entries())
    # a fault of the parent: a norm of the trust-region set-up overflowed on spectra 1e300 Hz wide
    @example(case=decay_case((4.34e9, 4.36e9), 4e5, 4e5, 1e300, REFERENCE))
    @settings(max_examples=100, deadline=None)
    def test_decay_curve_is_finite_or_model_error(self, case):
        if isinstance(case, ModelError):
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", DegeneracyWarning)
            try:
                rows = extract_decay_curve(*case)
            except ModelError:
                return
        assert np.isfinite(rows).all()

    @given(case=extreme_dips())
    # faults of the parent: a -inf point raised IndexError, and a descending
    # grid gave a negative width
    @example(case=dip(4.33e9, 4.37e9, 4.35e9, 4e6, 0.5, noise=-math.inf))
    @example(case=dip(4.37e9, 4.33e9, 4.35e9, 4e6, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_merged_linewidth_is_finite_or_model_error(self, case):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                width = merged_linewidth(*case)
            except ModelError:
                return
        assert math.isfinite(width) and width >= 0

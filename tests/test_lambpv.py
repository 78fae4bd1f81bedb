import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gsesim.lambpv as lambpv
from gsesim.core import ModelError
from gsesim.lambpv import (
    PvConvergenceError,
    PvDivergence,
    decay_shift_decomposition,
    m_aux,
    n_aux,
    pv_closed,
    pv_quadrature,
    sici,
)
from conftest import with_extremes


class TestSiCi:
    @pytest.mark.parametrize("x", [1e-8, 0.1, 0.5, 1.0, 3.9, 4.0, 4.1, 10.0, 50.0, 200.0])
    def test_against_multiprecision(self, x):
        si, ci = sici(x)
        assert si == pytest.approx(float(mpmath.si(x)), rel=1e-14, abs=1e-15)
        assert ci == pytest.approx(float(mpmath.ci(x)), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("x", np.geomspace(10.0, 1.7e308, 61))
    def test_against_multiprecision_up_to_the_largest_float(self, x):
        # the continued fraction for E1(i*x) did not converge from about 5e307
        si, ci = sici(float(x))
        with mpmath.workdps(30):
            assert si == pytest.approx(float(mpmath.si(x)), rel=1e-15)
            assert ci == pytest.approx(float(mpmath.ci(x)), rel=1e-15)

    def test_si_asymptote(self):
        assert sici(1e4)[0] == pytest.approx(math.pi / 2, abs=2e-4)

    def test_ci_domain(self):
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ModelError, match="finite x > 0"):
                sici(x)

    @given(x=st.floats(1e-3, 100.0))
    @settings(max_examples=60)
    def test_series_and_fraction_consistent(self, x):
        # derivative identity d/dx [Si] = sin(x)/x via a central difference
        h = 1e-5 * max(x, 1.0)
        deriv = (sici(x + h)[0] - sici(x - h)[0]) / (2 * h)
        assert deriv == pytest.approx(math.sin(x) / x, abs=1e-7)


class TestClosedForms:
    @pytest.mark.parametrize("branch", ["+", "-"])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.5, 7.0, 20.0, 50.0])
    def test_matches_quadrature_oracle(self, x, branch):
        closed = pv_closed(x, branch)
        quad = pv_quadrature(x, branch)
        assert closed.a_value == pytest.approx(quad.a_value, abs=1e-12)
        assert closed.b_value == pytest.approx(quad.b_value, abs=1e-12)

    def test_b_dominated_by_1_over_x_at_small_argument(self):
        # the delta-function-like 1/x piece of B survives on both branches
        for branch in ("+", "-"):
            r = pv_closed(0.01, branch)
            assert r.b_value == pytest.approx(1.0 / 0.01, rel=0.05)

    def test_auxiliary_function_identities(self):
        # A and B re-expressed through the standard auxiliary pair
        for x in (0.7, 3.0, 12.0):
            plus = pv_closed(x, "+")
            assert plus.a_value == pytest.approx(-math.pi * m_aux(x), rel=1e-12)
            assert plus.b_value == pytest.approx(1.0 / x - math.pi * n_aux(x), rel=1e-12)

    def test_divergence_at_zero(self):
        with pytest.raises(PvDivergence):
            pv_closed(0.0, "+")
        with pytest.raises(PvDivergence):
            pv_quadrature(0.0, "-")

    @pytest.mark.parametrize("x", [1e-320, np.float64(1e-320)], ids=["float", "numpy"])
    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_overflowing_closed_form_raises_model_error(self, x, branch):
        # 1/x overflows at subnormal x: a float returned B = inf without a
        # word, and a numpy float warned first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="A\\(x\\), B\\(x\\) at x=1e-320 must be finite, got inf"):
                pv_closed(x, branch)

    def test_branch_validation(self):
        with pytest.raises(ModelError):
            pv_closed(1.0, "x")
        with pytest.raises(ModelError):
            pv_closed(-1.0, "+")


def real_axis_reference(x, branch):
    """A + i*B in mpmath at its working precision, on the real axis.

    On [0, 2] the '-' branch subtracts e^{ix}/(w - 1), whose principal value
    there is zero, which leaves a smooth integrand. On
    [2, inf) one integration by parts leaves an integrand that decays like
    1/w**2; the Abel limit removes the boundary term at infinity.
    """
    x = mpmath.mpf(x)
    s = 1 if branch == "+" else -1
    e = lambda w: mpmath.expj(w * x)
    pole = e(1) if branch == "-" else 0
    head = mpmath.quad(lambda w: (w * e(w) - pole) / (w + s), [0, 1, 2])
    tail = -e(2) / (1j * x) * (mpmath.mpf(2) / (2 + s) + mpmath.quadosc(
        lambda t: s * e(t) / (2 + s + t) ** 2, [0, mpmath.inf], omega=x))
    value = head + tail
    return value.real, value.imag


# (x, branch, A, B) from real_axis_reference at 30 digits
REFERENCE = [
    (0.5, "+", "-0.672691792868549111556462851612", "1.13947323427384143771566774723"),
    (0.5, "-", "-0.833467957153744850037725458965", "3.89648016362714641529389875163"),
    (1.0, "+", "-0.343377961556427032832533003858", "0.378550375764186642360734271785"),
    (1.0, "-", "-2.30018110252502914605353298581", "2.07596013059715981205181678479"),
    (2.5, "+", "-0.104706947951384180828415338467", "0.062497418634005155297216534337"),
    (2.5, "-", "-1.77544874334373763311728388173", "-2.45436947843860746738880991988"),
    (5.0, "+", "-0.0338962206116217647662665258539", "0.0118572254285817762965035879633"),
    (5.0, "-", "3.04644567724225868195668321778", "0.90300826338107884941527935443"),
    (10.0, "+", "-0.00948853901635480740711748356428", "0.00180896498982983126654116736964"),
    (10.0, "-", "1.7185812643841572817829399027", "-2.63421198659310778248954199764"),
    (20.0, "+", "-0.00246420638577824647633338859694", "0.000242997340978707054532249733921"),
    (20.0, "-", "-2.86563788642982863259698306932", "1.2822706047957068682722644391"),
    (35.0, "+", "-0.000812391358399832799063605138261", "0.0000462009910008856472390450377488"),
    (35.0, "-", "1.34598792024197428331760372174", "-2.83898659163083749600325547787"),
    (50.0, "+", "-0.000399047554537819617550360247667", "0.0000159241016627100892654368905863"),
    (50.0, "-", "0.824673960437497245338621770309", "3.03154611017620487929887524205"),
]


def _forbidden(*args):
    raise AssertionError("the quadrature oracle called the closed form")


class TestQuadratureOracle:
    @pytest.mark.parametrize("x, branch, a, b", REFERENCE)
    def test_matches_real_axis_reference(self, x, branch, a, b):
        quad = pv_quadrature(x, branch)
        assert quad.a_value == pytest.approx(float(a), abs=1e-10)
        assert quad.b_value == pytest.approx(float(b), abs=1e-10)

    def test_reference_table_is_current(self):
        x, branch, a, b = REFERENCE[-2]
        with mpmath.workdps(30):
            live = real_axis_reference(x, branch)
            assert abs(live[0] - mpmath.mpf(a)) < mpmath.mpf("1e-28")
            assert abs(live[1] - mpmath.mpf(b)) < mpmath.mpf("1e-28")

    def test_independent_of_closed_form(self, monkeypatch):
        for name in ("sici", "m_aux", "n_aux", "pv_closed"):
            monkeypatch.setattr(lambpv, name, _forbidden)
        for branch in ("+", "-"):
            pv_quadrature(3.0, branch)

    @pytest.mark.parametrize("residual_tol", [1e-5, 1e-9])
    @pytest.mark.parametrize("branch", ["+", "-"])
    @pytest.mark.parametrize("x", [1e-3, 1e-2, 1e3, 1e5])
    def test_extreme_arguments_agree_or_raise(self, monkeypatch, x, branch, residual_tol):
        monkeypatch.setattr(lambpv, "_RESIDUAL_TOL", residual_tol)
        try:
            quad = pv_quadrature(x, branch)
        except PvConvergenceError:
            return
        closed = pv_closed(x, branch)
        assert abs(quad.a_value - closed.a_value) <= 10 * residual_tol
        assert abs(quad.b_value - closed.b_value) <= 10 * residual_tol

    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_unreachable_tolerance_raises(self, monkeypatch, branch):
        monkeypatch.setattr(lambpv, "_RESIDUAL_TOL", 1e-30)
        with pytest.raises(PvConvergenceError):
            pv_quadrature(1.0, branch)


class TestDecomposition:
    @given(x=st.floats(0.01, 60.0))
    @settings(max_examples=60)
    def test_assembles_into_decay_and_shift(self, x):
        # per-pair self-energy factors scaled by kappa/pi plus the local
        # 2*kappa term give the interference-modulated decay and shift
        kappa = 0.76e6
        decay_factor, shift_factor = decay_shift_decomposition(x)
        kappa_g = 2 * kappa + (kappa / math.pi) * decay_factor
        shift = -(kappa / math.pi) * shift_factor
        assert kappa_g == pytest.approx(2 * kappa * (1 + math.cos(x)), rel=1e-12, abs=1e-3)
        assert shift == pytest.approx(kappa * math.sin(x), rel=1e-12, abs=1e-3)

    def test_quadratures(self):
        d, s = decay_shift_decomposition(math.pi / 2)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert s == pytest.approx(-math.pi, rel=1e-15)


class TestExtremeInputs:
    """Any argument reaches the caller as finite values or one ModelError
    (PvDivergence and PvConvergenceError included), never a RuntimeWarning
    or another exception."""

    @given(data=st.data(), branch=st.sampled_from(["+", "-"]))
    @settings(max_examples=300, deadline=None)
    def test_integrals_are_finite_or_model_error(self, data, branch):
        x, = with_extremes(data.draw, [data.draw(st.floats(1e-3, 1e3))])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in (sici, lambda x: dataclasses.astuple(pv_closed(x, branch)),
                         lambda x: dataclasses.astuple(pv_quadrature(x, branch))):
                try:
                    assert all(math.isfinite(v) for v in call(x))
                except ModelError:
                    pass

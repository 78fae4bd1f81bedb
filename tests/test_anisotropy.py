import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gsesim.anisotropy import (
    ANGULAR_FACTOR_MAX,
    ANGULAR_FACTOR_MIN,
    ANGULAR_FACTOR_SPAN,
    AnisotropyParams,
    AnisotropyRegimeWarning,
    angle_sweep,
    angular_factor,
    h_a_for_tuning_range,
    resonance_full,
    resonance_simple,
)
from gsesim.core import GAMMA_2PI, ModelError
from conftest import with_extremes


class TestAngularFactor:
    def test_extrema_exact(self):
        assert angular_factor(0.0) == pytest.approx(2.0, abs=1e-12)
        theta_min = 0.5 * math.acos(-1.0 / 3.0)
        assert angular_factor(theta_min) == pytest.approx(-4.0 / 3.0, abs=1e-12)
        assert ANGULAR_FACTOR_SPAN == pytest.approx(10.0 / 3.0, abs=1e-15)

    def test_extrema_are_global(self):
        g = angular_factor(np.linspace(0, math.pi, 200001))
        assert g.max() <= ANGULAR_FACTOR_MAX + 1e-12
        assert g.min() >= ANGULAR_FACTOR_MIN - 1e-12
        assert g.max() == pytest.approx(ANGULAR_FACTOR_MAX, abs=1e-8)
        assert g.min() == pytest.approx(ANGULAR_FACTOR_MIN, abs=1e-8)

    @given(theta=st.floats(-10, 10))
    def test_even_and_pi_periodic(self, theta):
        assert angular_factor(theta) == pytest.approx(angular_factor(-theta), abs=1e-12)
        assert angular_factor(theta) == pytest.approx(angular_factor(theta + math.pi), abs=1e-10)


class TestResonanceLaws:
    def test_simple_law_at_reference_angle(self):
        p = AnisotropyParams(H_e0=0.155, H_A=0.002)
        f0 = resonance_simple(p, 0.0)
        assert f0 == pytest.approx(GAMMA_2PI * (0.155 + 0.002 * 2.0), rel=1e-14)

    def test_full_law_linearizes_to_simple(self):
        # error of the first-order law must shrink quadratically in H_A/H_e0
        H_e0 = 0.155
        thetas = np.linspace(0, math.pi, 41)
        errs = []
        for h_a in (2e-4, 1e-4, 5e-5):
            p = AnisotropyParams(H_e0, h_a)
            full = np.array(angle_sweep(p, thetas, which="full"))
            simple = np.array(angle_sweep(p, thetas, which="simple"))
            errs.append(np.max(np.abs(full - simple)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_tuning_range_calibration(self):
        # H_A sized for a 330 MHz full angular tuning span
        h_a = h_a_for_tuning_range(330e6)
        p = AnisotropyParams(0.155, h_a)
        freqs = np.array(angle_sweep(p, np.linspace(0, math.pi, 20001)))
        assert freqs.max() - freqs.min() == pytest.approx(330e6, rel=1e-2)

    def test_full_law_rejects_unphysical_regime(self):
        # H_A > H_e0 flips the sign of one stiffness factor at theta = pi/2
        with pytest.warns(AnisotropyRegimeWarning):
            p = AnisotropyParams(0.01, 0.02)
        with pytest.raises(ModelError):
            resonance_full(p, math.pi / 2)

    def test_non_finite_angle_or_frequency_raises_model_error(self):
        # resonance_full(p, inf) raised ValueError: math domain error, the
        # NaN angles returned NaN, and fields this large returned inf
        p = AnisotropyParams(0.155, 0.0035)
        for law, theta in ((resonance_full, math.inf), (resonance_full, math.nan), (resonance_simple, math.nan)):
            with pytest.raises(ModelError, match=f"theta must be finite, got {theta}"):
                law(p, theta)
        huge = AnisotropyParams(1e308, 1e306)
        for law in (resonance_full, resonance_simple):
            with pytest.raises(ModelError, match="resonance frequency must be finite, got inf"):
                law(huge, 0.0)

    def test_regime_warning_threshold(self):
        with pytest.warns(AnisotropyRegimeWarning):
            AnisotropyParams(0.1, 0.02)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            AnisotropyParams(0.1, 0.005)  # comfortably inside the regime


class TestSweep:
    def test_orders_preserved_and_which_validated(self):
        p = AnisotropyParams(0.155, 0.001)
        thetas = [0.3, 0.1, 0.2]
        out = angle_sweep(p, thetas)
        assert out == [float(resonance_simple(p, th)) for th in thetas]
        with pytest.raises(ModelError):
            angle_sweep(p, thetas, which="bogus")


@st.composite
def extreme_anisotropy(draw):
    """(H_e0, H_A, gamma, thetas): an ordinary crystal and three angles with
    one to four of the numbers replaced by extremes."""
    numbers = with_extremes(draw, [draw(st.floats(0.05, 0.5)), draw(st.floats(-5e-3, 5e-3)), GAMMA_2PI,
                                   *(draw(st.floats(0.0, 2 * math.pi)) for _ in range(3))])
    return numbers[:3], numbers[3:]


class TestExtremeInputs:
    """Any numbers reach the caller as finite frequencies or one ModelError,
    never a RuntimeWarning or another exception."""

    @given(case=extreme_anisotropy())
    # a fault of the parent: an angle whose 2*theta overflows raised
    # ValueError (math domain error) under the full law, and the simple law
    # warned on it (invalid value in cos)
    @example(case=([0.5, 0.0, GAMMA_2PI], [1.7976931348623157e308, 0.0, 0.0]))
    @settings(max_examples=300, deadline=None)
    def test_laws_are_finite_or_model_error(self, case):
        params, thetas = case
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", AnisotropyRegimeWarning)
            try:
                p = AnisotropyParams(*params)
            except ModelError:
                return
            for law in (resonance_full, resonance_simple):
                for theta in thetas:
                    try:
                        assert math.isfinite(law(p, theta))
                    except ModelError:
                        pass
            for which in ("simple", "full"):
                try:
                    assert np.isfinite(angle_sweep(p, thetas, which)).all()
                except ModelError:
                    pass

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsesim.core import FrequencyGrid, ModelError, Waveguide
from gsesim.single import (
    SingleGseParams,
    giant_decay,
    lamb_shift,
    map_single_vs_field,
    s21_single,
    s21_values,
)
from conftest import (
    BETA_INNER,
    KAPPA_INNER,
    L_INNER,
    SPEED,
    grid_around,
    resonance_at_phase_multiple,
    with_extremes,
)


def params_at_phase(phi, kappa=KAPPA_INNER, beta=BETA_INNER):
    """Single-GSE parameters whose resonance phase equals phi exactly."""
    n = 11  # keep the resonance near the device's 4.3 GHz working point
    f_res = (n + phi / (2 * math.pi)) * SPEED / L_INNER
    return SingleGseParams(kappa, beta, L_INNER, f_res, Waveguide(SPEED))


class TestRates:
    def test_constructive_interference(self):
        p = params_at_phase(0.0)
        assert giant_decay(p) == pytest.approx(4 * KAPPA_INNER, rel=1e-12)
        assert lamb_shift(p) == pytest.approx(0.0, abs=1e-3)

    def test_destructive_interference_kills_decay(self):
        p = params_at_phase(math.pi)
        assert abs(giant_decay(p)) < 1e-12 * 4 * KAPPA_INNER

    @given(phi=st.floats(0, 2 * math.pi))
    def test_decay_bounds(self, phi):
        p = params_at_phase(phi)
        kg = giant_decay(p)
        assert -1e-12 <= kg <= 4 * KAPPA_INNER * (1 + 1e-12)

    @given(phi=st.floats(0, 2 * math.pi))
    def test_circle_identity(self, phi):
        # (kappa_G/2kappa - 1)^2 + (shift/kappa)^2 = 1: decay and shift are
        # the two quadratures of one interference factor
        p = params_at_phase(phi)
        a = giant_decay(p) / (2 * p.kappa) - 1.0
        b = lamb_shift(p) / p.kappa
        assert a * a + b * b == pytest.approx(1.0, abs=1e-12)

    def test_decay_period_is_v_over_l(self):
        p0 = params_at_phase(0.7)
        f_shift = p0.f_res + SPEED / L_INNER
        assert giant_decay(p0, f_shift) == pytest.approx(giant_decay(p0), rel=1e-9)

    def test_overflowing_decay_raises_model_error(self):
        # 2*kappa*(1 + cos(phi)) overflowed to inf in float arithmetic, without
        # a warning; lamb_shift is bounded by kappa and cannot overflow
        p = SingleGseParams(1e308, 0.0, 0.0828, 4.33e9, Waveguide(3.26e7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="giant decay rate must be finite, got inf"):
                giant_decay(p)
            assert abs(lamb_shift(p)) <= p.kappa


class TestTransmission:
    def test_dip_depth_at_full_constructive_point(self):
        # |S21| at resonance is beta / (4*kappa + beta) = 0.3420
        p = params_at_phase(0.0)
        grid = grid_around(p.f_res, 20e6, 4001)
        assert s21_single(p, grid).magnitude.min() == pytest.approx(0.342, abs=1e-4)

    def test_unit_transmission_when_decoupled(self):
        p = params_at_phase(math.pi)
        grid = grid_around(p.f_res, 20e6, 801)
        mag = s21_single(p, grid).magnitude
        # kappa_G = 0: the ensemble is invisible up to the beta-broadened
        # residual dip of depth kappa_G/(kappa_G + beta) = 0
        assert mag == pytest.approx(np.ones_like(mag), abs=1e-12)

    @given(phi=st.floats(0.2, 2 * math.pi - 0.2))
    def test_lossless_unitarity(self, phi):
        p = params_at_phase(phi, beta=0.0)
        f = np.linspace(p.f_res - 10e6, p.f_res + 10e6, 101)
        s21 = s21_values(p, f)
        r = s21 - 1.0
        assert np.abs(s21) ** 2 + np.abs(r) ** 2 == pytest.approx(
            np.ones_like(f), abs=1e-12
        )

    def test_dip_sits_at_shifted_resonance(self):
        p = params_at_phase(0.5 * math.pi)
        grid = grid_around(p.f_res, 20e6, 40001)
        spectrum = s21_single(p, grid)
        f_dip = spectrum.frequencies[np.argmin(spectrum.magnitude)]
        assert f_dip - p.f_res == pytest.approx(lamb_shift(p), abs=2e3)

    def test_self_consistent_phase_close_to_fixed_near_resonance(self):
        p = params_at_phase(0.3)
        grid = grid_around(p.f_res, 5e6, 501)
        fixed = s21_single(p, grid).s21
        probe = s21_single(p, grid, self_consistent_phase=True).s21
        assert np.max(np.abs(fixed - probe)) < 5e-2
        # and they agree exactly at the resonance point itself
        mid = s21_values(p, np.array([p.f_res]))
        mid_sc = s21_values(p, np.array([p.f_res]), self_consistent_phase=True)
        assert mid == pytest.approx(mid_sc, abs=1e-12)

    def test_zero_linewidth_singular_point(self):
        p = params_at_phase(math.pi, beta=0.0)  # kappa_G + beta = 0
        on_res = s21_values(p, np.array([p.f_res]))
        assert on_res[0] == 1.0 + 0j

    @pytest.mark.parametrize("self_consistent_phase", [False, True])
    def test_no_coupling_is_exactly_transparent(self, self_consistent_phase):
        # kappa = beta = 0 makes the denominator 0 at the grid point on f_res
        p = SingleGseParams(0.0, 0.0, L_INNER, 4.35e9, Waveguide(SPEED))
        grid = FrequencyGrid(4.34e9, 4.36e9, 201)
        assert p.f_res in grid.frequencies
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s21 = s21_values(p, grid.frequencies, self_consistent_phase)
        assert np.array_equal(s21, np.ones(201, dtype=complex))


class TestFieldMap:
    def test_resonance_tracks_field(self):
        p = params_at_phase(0.0)
        grid = FrequencyGrid(4.2e9, 4.5e9, 6001)
        fields = np.linspace(0.150, 0.160, 5)
        columns = map_single_vs_field(p, fields, 0.0, grid)
        dips = [col.frequencies[np.argmin(col.magnitude)] for _, col in columns]
        slopes = np.diff(dips) / np.diff(fields)
        # the interference shift wiggles the dip around the Kittel line by
        # up to kappa, so the local slope is only approximately gamma
        assert slopes == pytest.approx(np.full(4, 28.0e9), rel=3e-2)

    def test_invalid_params(self):
        wg = Waveguide(SPEED)
        with pytest.raises(ModelError):
            SingleGseParams(-1.0, 0.0, 0.1, 4e9, wg)
        with pytest.raises(ModelError):
            SingleGseParams(1e6, -1.0, 0.1, 4e9, wg)
        with pytest.raises(ModelError):
            SingleGseParams(1e6, 0.0, 0.0, 4e9, wg)

    def test_non_finite_values_and_phases_raise_model_error(self):
        # the NaN rate passed, and giant_decay returned NaN; the phase across
        # 1e300 m overflowed, and math.cos raised ValueError: math domain error
        wg = Waveguide(SPEED)
        with pytest.raises(ModelError, match="single-GSE parameters must be finite, got nan"):
            SingleGseParams(math.nan, 0.0, 0.1, 4e9, wg)
        with pytest.raises(ModelError, match="propagation phase 2\\*pi\\*f\\*d/v is not finite"):
            giant_decay(SingleGseParams(1e6, 0.0, 1e300, 4e9, wg))


@st.composite
def extreme_singles(draw):
    """(params, grid, at_f): an ordinary two-point ensemble, grid and phase
    frequency with one to four of their numbers replaced by extremes, or the
    ModelError that building them raised."""
    kappa, beta, length, f_res, speed, f_lo, f_hi, at_f = with_extremes(draw, [
        draw(st.floats(1e5, 2e6)), draw(st.floats(0.0, 2e6)), draw(st.floats(1e-3, 0.5)),
        draw(st.floats(4.3e9, 4.4e9)), SPEED, 4.3e9, 4.4e9, draw(st.floats(4.3e9, 4.4e9))])
    try:
        p = SingleGseParams(kappa, beta, length, f_res, Waveguide(speed))
        return p, FrequencyGrid(f_lo, f_hi, draw(st.integers(2, 9))), at_f
    except ModelError as exc:
        return exc


class TestExtremeInputs:
    """Any numbers reach the caller as finite results or one ModelError, never a RuntimeWarning."""

    @given(case=extreme_singles())
    @settings(max_examples=300, deadline=None)
    def test_closed_forms_are_finite_or_model_error(self, case):
        if isinstance(case, ModelError):
            return
        p, grid, at_f = case
        calls = (lambda: s21_single(p, grid).s21, lambda: s21_single(p, grid, self_consistent_phase=True).s21,
                 lambda: giant_decay(p), lambda: giant_decay(p, at_f))
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    value = call()
                except ModelError:
                    continue
            assert np.isfinite(value).all()

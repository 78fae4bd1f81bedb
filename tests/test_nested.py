import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gsesim.core import FrequencyGrid, ModelError, Waveguide
from gsesim.nested import (
    FitFormParams,
    NestedParams,
    complex_frequencies,
    coupling_strengths,
    eigen_traces,
    map_nested_vs_detuning,
    s21_fitform_values,
    s21_nested_fitform,
    s21_nested_matrix,
    strong_coupling,
)
from gsesim.single import SingleGseParams, s21_single
from conftest import (
    BETA_INNER,
    BETA_OUTER,
    KAPPA_INNER,
    KAPPA_OUTER,
    L_INNER,
    L_OUTER,
    MHZ,
    SPEED,
    grid_around,
    with_extremes,
)


def make_pair(f_res=4.35e9, kappa_i=KAPPA_INNER, kappa_o=KAPPA_OUTER):
    wg = Waveguide(SPEED)
    inner = SingleGseParams(kappa_i, BETA_INNER, L_INNER, f_res, wg)
    outer = SingleGseParams(kappa_o, BETA_OUTER, L_OUTER, f_res, wg)
    return NestedParams.from_geometry(inner, outer)


class TestCouplingStrengths:
    def test_four_term_sums(self):
        p = make_pair()
        root = math.sqrt(KAPPA_INNER * KAPPA_OUTER)
        phis = (p.phi1, p.phi3, p.phi1 + p.phi2, p.phi2 + p.phi3)
        j, gamma = coupling_strengths(p)
        assert gamma == pytest.approx(root * sum(math.cos(x) for x in phis), rel=1e-14)
        assert j == pytest.approx(0.5 * root * sum(math.sin(x) for x in phis), rel=1e-14)

    @given(phi1=st.floats(0.01, 2 * math.pi))
    @settings(max_examples=50)
    def test_gamma_vanishes_when_outer_phase_is_pi(self, phi1):
        # symmetric layout with total outer phase == pi (mod 2*pi): the
        # inner points sit at nodes of the effective cavity, so the
        # dissipative channel closes exactly
        wg = Waveguide(SPEED)
        inner = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, wg)
        outer = SingleGseParams(KAPPA_OUTER, BETA_OUTER, L_OUTER, 4.35e9, wg)
        phi2 = (math.pi - 2 * phi1) % (2 * math.pi)
        p = NestedParams(inner, outer, phi1, phi2, phi1)
        _, gamma = coupling_strengths(p)
        assert abs(gamma) < 1e-12 * math.sqrt(KAPPA_INNER * KAPPA_OUTER)

    def test_max_dissipative_coupling_at_zero_phases(self):
        wg = Waveguide(SPEED)
        inner = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, wg)
        outer = SingleGseParams(KAPPA_OUTER, BETA_OUTER, L_OUTER, 4.35e9, wg)
        p = NestedParams(inner, outer, 0.0, 0.0, 0.0)
        j, gamma = coupling_strengths(p)
        assert gamma == pytest.approx(4 * math.sqrt(KAPPA_INNER * KAPPA_OUTER), rel=1e-14)
        assert j == pytest.approx(0.0, abs=1e-12)

    def test_coherent_bound(self):
        # |J| <= 2*sqrt(kappa_i*kappa_o) over random phases
        rng = np.random.default_rng(5)
        wg = Waveguide(SPEED)
        inner = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, wg)
        outer = SingleGseParams(KAPPA_OUTER, BETA_OUTER, L_OUTER, 4.35e9, wg)
        bound = 2 * math.sqrt(KAPPA_INNER * KAPPA_OUTER)
        for _ in range(200):
            p1, p2 = rng.uniform(0, 2 * math.pi, 2)
            j, _ = coupling_strengths(NestedParams(inner, outer, p1, p2, p1))
            assert abs(j) <= bound * (1 + 1e-12)


class TestMatrixTransmission:
    def test_reduces_to_single_when_outer_decoupled(self):
        # with kappa_o = 0 only the inner ensemble talks to the line; under
        # a uniform probe-frequency phase convention the 2x2 model must
        # collapse to the one-pole closed form
        p = make_pair(kappa_o=0.0)
        grid = grid_around(4.35e9, 10 * MHZ)
        two = s21_nested_matrix(p, grid, lamb_sign=1, phase_ref="probe").s21
        one = s21_single(p.inner, grid, self_consistent_phase=True).s21
        assert np.max(np.abs(two - one)) < 1e-12

    def test_probe_convention_unitary_when_lossless(self):
        wg = Waveguide(SPEED)
        inner = SingleGseParams(KAPPA_INNER, 0.0, L_INNER, 4.35e9, wg)
        outer = SingleGseParams(KAPPA_OUTER, 0.0, L_OUTER, 4.35e9, wg)
        p = NestedParams.from_geometry(inner, outer)
        grid = grid_around(4.35e9, 10 * MHZ)
        s21 = s21_nested_matrix(p, grid, lamb_sign=1, phase_ref="probe").s21
        total = np.abs(s21) ** 2 + np.abs(s21 - 1.0) ** 2
        assert total == pytest.approx(np.ones_like(total), abs=1e-12)

    def test_printed_shift_sign_flips_diagonal(self):
        p = make_pair()
        minus = complex_frequencies(p, lamb_sign=-1)
        plus = complex_frequencies(p, lamb_sign=1)
        shift = p.inner.kappa * math.sin(p.inner.phi())
        # differencing two ~4.35 GHz doubles leaves ~1e-6 Hz of rounding
        assert plus[0].real - minus[0].real == pytest.approx(2 * shift, abs=1e-5)
        assert plus[0].imag == minus[0].imag

    def test_unknown_phase_ref_raises(self):
        with pytest.raises(ModelError, match="phase_ref must be 'resonance' or 'probe', got 'x'"):
            s21_nested_matrix(make_pair(), grid_around(4.35e9, 5 * MHZ, 11), phase_ref="x")

    @pytest.mark.parametrize("phase_ref", ["resonance", "probe"])
    def test_pole_on_grid_raises(self, phase_ref):
        # kappa = beta = 0 on both ensembles puts both poles on the real
        # axis at f_res, and the grid's middle point is exactly f_res
        wg = Waveguide(SPEED)
        inner = SingleGseParams(0.0, 0.0, L_INNER, 4.35e9, wg)
        outer = SingleGseParams(0.0, 0.0, L_OUTER, 4.35e9, wg)
        p = NestedParams.from_geometry(inner, outer)
        grid = FrequencyGrid(4.34e9, 4.36e9, 3)
        assert grid.frequencies[1] == 4.35e9
        with pytest.raises(ModelError, match="singular"):
            s21_nested_matrix(p, grid, phase_ref=phase_ref)

    @pytest.mark.parametrize("kappa", [1e300, 1e308])
    @pytest.mark.parametrize("phase_ref", ["resonance", "probe"])
    def test_overflowing_rates_raise_model_error(self, phase_ref, kappa):
        # the determinant and S21 overflowed with numpy RuntimeWarnings, and
        # the error named a singular resolvent
        p = make_pair(kappa_i=kappa, kappa_o=kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="nested resolvent is not finite: a coupling rate is too large"):
                s21_nested_matrix(p, grid_around(4.35e9, 10 * MHZ, n=11), phase_ref=phase_ref)

    def test_geometry_invariants(self):
        wg = Waveguide(SPEED)
        inner = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, wg)
        with pytest.raises(ModelError):
            NestedParams.from_geometry(inner, inner)  # L_o must exceed L_i
        other = SingleGseParams(KAPPA_OUTER, BETA_OUTER, L_OUTER, 4.35e9, Waveguide(2e7))
        with pytest.raises(ModelError):
            NestedParams.from_geometry(inner, other)  # different waveguides


class TestFitForm:
    def test_background_far_from_resonance(self):
        q = FitFormParams(4.35e9, 4.35e9, 1.15 * MHZ, 1.26e2, 1.54 * MHZ, 0.86 * MHZ, 1.01 * MHZ, 3.28e2)
        far = s21_fitform_values(q, np.array([4.0e9, 4.7e9]))
        assert np.abs(far) == pytest.approx([1.0, 1.0], abs=1e-2)

    def test_transparency_window_between_split_dips(self):
        # coherent regime kappa_iG > J > kappa_oG: two dips with a
        # transparency-like peak between them at the bare resonance
        q = FitFormParams(4.35e9, 4.35e9, 1.15 * MHZ, 1.26e2, 1.54 * MHZ, 0.86 * MHZ, 1.01 * MHZ, 3.28e2)
        grid = grid_around(4.35e9, 8 * MHZ, 8001)
        mag = s21_nested_fitform(q, grid).magnitude
        mid = mag[grid.n_points // 2]
        assert mid > mag.min() + 0.05

    def test_detuning_map_columns(self):
        q = FitFormParams(4.35e9, 4.35e9, 1.15 * MHZ, 1.26e2, 1.54 * MHZ, 0.86 * MHZ, 1.01 * MHZ, 3.28e2)
        grid = grid_around(4.35e9, 8 * MHZ, 101)
        f_o_values = [4.349e9, 4.35e9, 4.351e9]
        columns = map_nested_vs_detuning(q, f_o_values, grid)
        assert [c[0] for c in columns] == f_o_values
        assert all(c[1].s21.shape == (101,) for c in columns)

    def test_rejects_negative_rates(self):
        with pytest.raises(ModelError):
            FitFormParams(4e9, 4e9, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("name", ["f_i", "f_o", "kappa_i_g", "kappa_o_g", "beta_i", "beta_o", "j", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, name, value):
        # a NaN rate passed the `< 0` check, and f_i, f_o, j and gamma had none
        q = FitFormParams(4e9, 4e9, 1e6, 1e6, 1e6, 1e6, 1e6, 1e6)
        with pytest.raises(ModelError, match=f"^{name} must be finite"):
            dataclasses.replace(q, **{name: value})


def eigen_traces_loop(q, f_o_sweep):
    """One 2x2 eig per sweep point, branches permuted by maximal eigenvector overlap."""
    coupling = q.j - 1j * q.gamma
    eigs = np.empty((len(f_o_sweep), 2), dtype=complex)
    prev_vecs = None
    for n, f_o in enumerate(f_o_sweep):
        h = np.array([
            [q.f_i - 1j * (q.kappa_i_g + q.beta_i), coupling],
            [coupling, f_o - 1j * (q.kappa_o_g + q.beta_o)],
        ])
        vals, vecs = np.linalg.eig(h)
        if prev_vecs is not None:
            overlap = np.abs(prev_vecs.conj().T @ vecs)
            if overlap[0, 0] + overlap[1, 1] < overlap[0, 1] + overlap[1, 0]:
                vals, vecs = vals[::-1], vecs[:, ::-1]
        eigs[n] = vals
        prev_vecs = vecs
    return eigs


def eigen_reference(q, f_o):
    """Both eigenvalues at one sweep point, to 40 digits, of the matrix eigen_traces builds."""
    with mpmath.workdps(40):
        a = mpmath.mpc(q.f_i, -(q.kappa_i_g + q.beta_i))
        b = mpmath.mpc(f_o, -(q.kappa_o_g + q.beta_o))
        c = mpmath.mpc(q.j, -q.gamma)
        m, w = (a + b) / 2, (a - b) / 2
        s = mpmath.sqrt(w * w + c * c)
        return complex(m + s), complex(m - s)


EIGEN_SWEEPS = [
    (FitFormParams(4.35e9, 4.35e9, 1.0 * MHZ, 1.0 * MHZ, 0.5 * MHZ, 0.5 * MHZ, 1.01 * MHZ, 0.0),
     np.linspace(4.34e9, 4.36e9, 81)),
    (FitFormParams(4.35e9, 4.35e9, 1.15 * MHZ, 1.26e2, 1.54 * MHZ, 0.86 * MHZ, 1.01 * MHZ, 3.28e2),
     np.linspace(4.34e9, 4.36e9, 801)),
    # through both exceptional points at f_i +- 2*gamma
    (FitFormParams(4.96e9, 4.96e9, 0.5 * MHZ, 0.5 * MHZ, 0.0, 0.0, 0.0, 1.0 * MHZ),
     4.96e9 + np.linspace(-2, 2, 40001) * 2 * MHZ),
    # equal damping, no coupling: exactly degenerate at zero detuning
    (FitFormParams(4.35e9, 4.35e9, 1.0 * MHZ, 1.0 * MHZ, 0.0, 0.0, 0.0, 0.0),
     np.linspace(4.34e9, 4.36e9, 101)),
    (FitFormParams(4.35e9, 4.35e9, 1.0 * MHZ, 1.0 * MHZ, 0.0, 0.0, 1.0 * MHZ, 0.0), np.full(5, 4.35e9)),
    # back and forth through the avoided crossing, and out of order
    (FitFormParams(4.35e9, 4.35e9, 1.0 * MHZ, 1.0 * MHZ, 0.5 * MHZ, 0.5 * MHZ, 1.01 * MHZ, 0.0),
     4.35e9 + 5 * MHZ * np.sin(np.linspace(0, 6 * np.pi, 301))),
    (FitFormParams(4.35e9, 4.35e9, 1.0 * MHZ, 1.0 * MHZ, 0.5 * MHZ, 0.5 * MHZ, 1.01 * MHZ, 0.0),
     np.random.default_rng(3).uniform(4.34e9, 4.36e9, 200)),
]


class TestEigenTraces:
    @pytest.mark.parametrize("q, sweep", EIGEN_SWEEPS)
    def test_batched_equals_per_point_loop(self, q, sweep):
        # the per-point loop is the 40-digit reference; the pair matches as a set
        eigs, _ = eigen_traces(q, sweep)
        for (l1, l2), f_o in zip(eigs, sweep):
            r1, r2 = eigen_reference(q, f_o)
            err = min(max(abs(l1 - r1), abs(l2 - r2)), max(abs(l1 - r2), abs(l2 - r1)))
            assert err <= 1e-14 * max(abs(r1), abs(r2)), f_o

    @pytest.mark.parametrize("q, sweep", EIGEN_SWEEPS[-2:])
    def test_labels_depend_on_f_o_alone(self, q, sweep):
        # unsorted sweeps: each point's pair is what the sorted sweep gives it
        order = np.argsort(sweep)
        assert np.array_equal(eigen_traces(q, sweep[order])[0], eigen_traces(q, sweep)[0][order])

    def test_labels_follow_the_overlap_loop_on_fine_sweeps(self):
        # where the step is below a tenth of the smallest split, eigenvector
        # overlap follows the continuous branches too; its first point keeps
        # LAPACK's order, so the columns may be swapped for the whole sweep
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 40:
            f_i = rng.uniform(4e9, 5e9)
            q = FitFormParams(f_i, f_i, *rng.uniform(0, 3e6, 4), rng.uniform(-2e6, 2e6), rng.uniform(-3e6, 3e6))
            sweep = f_i + np.linspace(-1, 1, int(rng.integers(2, 500))) * rng.uniform(1e5, 2e7)
            eigs, _ = eigen_traces(q, sweep)
            if np.diff(sweep).max() >= 0.1 * np.abs(eigs[:, 0] - eigs[:, 1]).min():
                continue
            ref = eigen_traces_loop(q, sweep)
            same = np.abs(eigs - ref).max(axis=1) < np.abs(eigs - ref[:, ::-1]).max(axis=1)
            assert same.all() or not same.any()
            checked += 1

    def test_finite_extremes_stay_finite(self):
        # f_i - f_o overflows a double here; their halves do not
        q = FitFormParams(1.7e308, 1.7e308, 1e6, 1e6, 0.0, 0.0, 1e6, 0.0)
        eigs, _ = eigen_traces(q, [-1.7e308, 1.7e308])
        assert np.all(np.isfinite(eigs))

    def test_overflowing_rates_raise(self):
        # each rate is finite, but kappa_i_g + beta_i is not
        q = FitFormParams(4e9, 4e9, 1e308, 0.0, 1e308, 0.0, 0.0, 0.0)
        with pytest.raises(ModelError, match="overflow"):
            eigen_traces(q, [4e9])
        # every input is finite, but w + ic overflows: the ModelError comes
        # without a numpy RuntimeWarning first
        q = FitFormParams(1.7e308, 1.7e308, 1e6, 1e6, 0.0, 0.0, 0.0, 1e308)
        with pytest.raises(ModelError, match="overflow"):
            eigen_traces(q, [-1.7e308])

    def test_rejects_empty_sweep(self):
        with pytest.raises(ModelError, match="eigen_traces needs a non-empty sweep"):
            eigen_traces(EIGEN_SWEEPS[0][0], [])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_sweep(self, value):
        q = EIGEN_SWEEPS[0][0]
        with pytest.raises(ModelError, match="f_o_sweep"):
            eigen_traces(q, [4.35e9, value])

    def test_repulsion_splitting_equals_2j(self):
        # equal dampings: at zero detuning the real-part splitting is 2J
        j = 1.01 * MHZ
        q = FitFormParams(4.35e9, 4.35e9, 1.0 * MHZ, 1.0 * MHZ, 0.5 * MHZ, 0.5 * MHZ, j, 0.0)
        eigs, flags = eigen_traces(q, np.array([4.35e9]))
        split = abs(eigs[0, 0].real - eigs[0, 1].real)
        assert split == pytest.approx(2 * j, abs=1e-6 * MHZ)
        assert not flags[0]

    def test_attraction_locks_real_parts(self):
        # purely dissipative coupling: inside the attraction region the
        # real parts coalesce and the imaginary parts split
        gamma = 2.89 * MHZ
        q = FitFormParams(4.96e9, 4.96e9, 1.0 * MHZ, 1.0 * MHZ, 0.0, 0.0, 0.0, gamma)
        eigs, _ = eigen_traces(q, np.array([4.96e9]))
        assert abs(eigs[0, 0].real - eigs[0, 1].real) < 1.0
        assert abs(eigs[0, 0].imag - eigs[0, 1].imag) == pytest.approx(2 * gamma, rel=1e-9)

    def test_branches_are_continuous(self):
        q = FitFormParams(4.35e9, 4.35e9, 1.15 * MHZ, 1.26e2, 1.54 * MHZ, 0.86 * MHZ, 1.01 * MHZ, 3.28e2)
        sweep = np.linspace(4.34e9, 4.36e9, 801)
        eigs, _ = eigen_traces(q, sweep)
        steps = np.abs(np.diff(eigs, axis=0))
        # no branch swap: the step never jumps by the full splitting
        assert steps.max() < 0.6 * MHZ

    def test_exceptional_point_flagged(self):
        # J = 0, Gamma > 0, equal dampings: eigenvalues coalesce where
        # |detuning| = 2*Gamma. The flags bracket each such point, on a sweep
        # through it and on one shifted by half a step
        gamma = 1.0 * MHZ
        f_i = 4.96e9
        q = FitFormParams(f_i, f_i, 0.5 * MHZ, 0.5 * MHZ, 0.0, 0.0, 0.0, gamma)
        for shift in (0.0, 0.5e-4):
            sweep = f_i + (np.linspace(-2, 2, 40001) + shift) * gamma * 2
            _, flags = eigen_traces(q, sweep)
            step = np.diff(sweep).max()
            near = []
            for ep in (f_i - 2 * gamma, f_i + 2 * gamma):
                near.append(flags & (np.abs(sweep - ep) <= step))
                assert 1 <= np.count_nonzero(near[-1]) <= 2
                assert sweep[near[-1]].min() <= ep <= sweep[near[-1]].max()
            assert not np.any(flags & ~near[0] & ~near[1])

    def test_missed_exceptional_point_flags_nothing(self):
        # the EP condition dK = +-2J missed by 1e-6 relative
        f_i = 4.96e9
        q = FitFormParams(f_i, f_i, 0.5 * MHZ * (1 + 1e-6), 0.5 * MHZ, 0.0, 0.0, 0.0, 1.0 * MHZ)
        _, flags = eigen_traces(q, f_i + np.linspace(-2, 2, 40001) * 2 * MHZ)
        assert not flags.any()


class TestStrongCoupling:
    def test_published_device_is_not_strong(self):
        assert not strong_coupling(KAPPA_INNER, KAPPA_OUTER, 1.15 * MHZ, 1.54 * MHZ, 0.86 * MHZ)

    def test_large_outer_rate_enters_strong_regime(self):
        assert strong_coupling(KAPPA_INNER, 40e6, 1.15 * MHZ, 1.54 * MHZ, 0.86 * MHZ)


@st.composite
def extreme_pairs(draw):
    """(params, grid): an ordinary nested pair and grid with one to four of
    their numbers replaced by extremes, or the ModelError that building them
    raised. The phases come from the lengths, or are given with the pair."""
    rates = [draw(st.floats(1e5, 2e6)) for _ in range(4)]
    lengths = sorted(draw(st.lists(st.floats(1e-3, 0.5), min_size=2, max_size=2, unique=True)))
    phases = [draw(st.floats(0.0, 10.0)) for _ in range(3)]
    numbers = with_extremes(draw, [*rates, *lengths, *phases, draw(st.floats(4.3e9, 4.4e9)),
                                   draw(st.floats(4.3e9, 4.4e9)), SPEED, 4.3e9, 4.4e9])
    k_i, b_i, k_o, b_o, l_i, l_o, p1, p2, p3, f_i, f_o, speed, f_lo, f_hi = numbers
    try:
        wg = Waveguide(speed)
        inner, outer = SingleGseParams(k_i, b_i, l_i, f_i, wg), SingleGseParams(k_o, b_o, l_o, f_o, wg)
        p = NestedParams(inner, outer, p1, p2, p3) if draw(st.booleans()) else NestedParams.from_geometry(inner, outer)
        return p, FrequencyGrid(f_lo, f_hi, draw(st.integers(2, 9)))
    except ModelError as exc:
        return exc


@st.composite
def extreme_fitforms(draw):
    """(params, sweep): an ordinary two-mode model and outer-frequency sweep
    with one to four of their numbers replaced by extremes, or the
    ModelError that building them raised."""
    model = [draw(st.floats(4.3e9, 4.4e9)), draw(st.floats(4.3e9, 4.4e9)),
             *(draw(st.floats(0.0, 2e6)) for _ in range(4)), draw(st.floats(-2e6, 2e6)), draw(st.floats(-2e6, 2e6))]
    sweep = draw(st.lists(st.floats(4.3e9, 4.4e9), min_size=1, max_size=5))
    numbers = with_extremes(draw, model + sweep)
    try:
        return FitFormParams(*numbers[:8]), np.array(numbers[8:])
    except ModelError as exc:
        return exc


def given_phases(phi1, phi2, phi3):
    """(params, grid) of the device pair of make_pair with the phases phi1,
    phi2 and phi3, or the ModelError that they raise."""
    p = make_pair()
    try:
        return NestedParams(p.inner, p.outer, phi1, phi2, phi3), grid_around(4.35e9, 5e6, 5)
    except ModelError as exc:
        return exc


class TestExtremeInputs:
    """Any numbers reach the caller as finite results or one ModelError, never a RuntimeWarning."""

    @given(case=extreme_pairs(), lamb_sign=st.sampled_from([-1, 1]),
           phase_ref=st.sampled_from(["resonance", "probe"]))
    @example(case=given_phases(math.inf, 1.0, 1.0), lamb_sign=-1, phase_ref="resonance")
    @example(case=given_phases(1.7976931348623157e308, 1.7976931348623157e308, 0.0), lamb_sign=-1,
             phase_ref="resonance")
    @settings(max_examples=300, deadline=None)
    def test_matrix_transmission_is_finite_or_model_error(self, case, lamb_sign, phase_ref):
        if isinstance(case, ModelError):
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                s21 = s21_nested_matrix(*case, lamb_sign=lamb_sign, phase_ref=phase_ref).s21
            except ModelError:
                return
        assert np.isfinite(s21).all()

    @given(case=extreme_fitforms())
    @settings(max_examples=300, deadline=None)
    def test_eigen_traces_are_finite_or_model_error(self, case):
        if isinstance(case, ModelError):
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                eigs, flags = eigen_traces(*case)
            except ModelError:
                return
        assert np.isfinite(eigs).all() and flags.shape == (case[1].size,)

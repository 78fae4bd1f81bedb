"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the status lines.
Each test is self-contained and states its tolerance inline.
"""

import math
import warnings

import numpy as np
import pytest

from gsesim.anisotropy import (
    ANGULAR_FACTOR_SPAN,
    AnisotropyParams,
    angle_sweep,
    angular_factor,
    h_a_for_tuning_range,
)
from gsesim.core import Emitter, FrequencyGrid, Topology, Waveguide
from gsesim.fitting import (
    DegeneracyWarning,
    FitProblem,
    avoided_crossing_splitting,
    dip_positions,
    fit,
    fit_global_geometry,
    merged_linewidth,
    single_model,
)
from gsesim.io import synth_noise
from gsesim.lambpv import decay_shift_decomposition, pv_closed, pv_quadrature
from gsesim.multipoint import s_matrix
from gsesim.nested import (
    FitFormParams,
    NestedParams,
    coupling_strengths,
    eigen_traces,
    s21_fitform_values,
    s21_nested_matrix,
)
from gsesim.single import SingleGseParams, giant_decay, lamb_shift, s21_values
from reference import pair_sums

MHZ = 1e6
SPEED = 3.26e7
L_INNER = 0.0828
L_OUTER = 0.1656
KAPPA_INNER = 0.76 * MHZ
KAPPA_OUTER = 0.70 * MHZ
BETA_INNER = 1.58 * MHZ
BETA_OUTER = 1.39 * MHZ

WG = Waveguide(SPEED)

# nested two-mode parameters fitted at the two working points
# (radiative/total rates in MHz: inner 1.15/2.69 and outer 1.26e-4/0.86 at
# 4.35 GHz; inner 2.98/4.82 and outer 2.78/4.06 at 4.96 GHz)
ROW_COHERENT = FitFormParams(
    4.35e9, 4.35e9, 1.15 * MHZ, 1.26e-4 * MHZ,
    (2.69 - 1.15) * MHZ, (0.86 - 1.26e-4) * MHZ, 1.01 * MHZ, 3.28e-4 * MHZ,
)
ROW_DISSIPATIVE = FitFormParams(
    4.96e9, 4.96e9, 2.98 * MHZ, 2.78 * MHZ,
    (4.82 - 2.98) * MHZ, (4.06 - 2.78) * MHZ, 6.11e-4 * MHZ, 2.89 * MHZ,
)


def report(n, label):
    print(f"[ACCEPTANCE {n:2d}] {label}: PASS")


def single_at_phase(phi, kappa=KAPPA_INNER, beta=BETA_INNER):
    f_res = (11 + phi / (2 * math.pi)) * SPEED / L_INNER
    return SingleGseParams(kappa, beta, L_INNER, f_res, WG)


def nested_at_phases(phi1, phi2, kappa_i=KAPPA_INNER, kappa_o=KAPPA_OUTER):
    inner = SingleGseParams(kappa_i, BETA_INNER, L_INNER, 4.35e9, WG)
    outer = SingleGseParams(kappa_o, BETA_OUTER, L_OUTER, 4.35e9, WG)
    return NestedParams(inner, outer, phi1, phi2, phi1)


def test_01_pure_point_coupling_values():
    """Maximal engine rates match the fitted superradiant values."""
    # fully constructive phases: Gamma -> 4*sqrt(kappa_i*kappa_o)
    _, gamma_max = coupling_strengths(nested_at_phases(0.0, 0.0))
    assert gamma_max == pytest.approx(2.917 * MHZ, rel=1e-3)
    assert abs(gamma_max / (2.89 * MHZ) - 1) < 0.02

    kappa_i_max = giant_decay(single_at_phase(0.0))
    kappa_o_max = 2 * KAPPA_OUTER * 2  # 4*kappa_o at phi = 0
    assert kappa_i_max == pytest.approx(3.04 * MHZ, rel=1e-12)
    assert abs(kappa_i_max / (2.98 * MHZ) - 1) < 0.025
    assert abs(kappa_o_max / (2.78 * MHZ) - 1) < 0.025
    report(1, "pure-point decay and coupling maxima vs fitted values")


def test_02_decoupling_identities():
    """Destructive interference closes both dissipative channels exactly."""
    assert abs(giant_decay(single_at_phase(math.pi))) < 1e-12 * 4 * KAPPA_INNER

    rng = np.random.default_rng(2024)
    scale = math.sqrt(KAPPA_INNER * KAPPA_OUTER)
    for phi1 in rng.uniform(0.0, 2 * math.pi, 1000):
        phi2 = (math.pi - 2 * phi1) % (2 * math.pi)
        _, gamma = coupling_strengths(nested_at_phases(phi1, phi2))
        assert abs(gamma) < 1e-12 * scale
    report(2, "decay and dissipative coupling vanish at the node points")


def test_03_coherent_coupling_bound_and_splitting():
    """|J| respects its bound; eigenvalues split by exactly 2J."""
    j_fit = 1.01 * MHZ
    bound = 2 * math.sqrt(KAPPA_INNER * KAPPA_OUTER)
    assert bound == pytest.approx(1.459 * MHZ, rel=1e-3)
    assert abs(j_fit) <= bound

    # equal dampings isolate the coherent splitting at zero detuning
    q = FitFormParams(4.35e9, 4.35e9, 1.0 * MHZ, 1.0 * MHZ, 0.5 * MHZ, 0.5 * MHZ, j_fit, 0.0)
    eigs, _ = eigen_traces(q, np.array([4.35e9]))
    splitting = abs(eigs[0, 0].real - eigs[0, 1].real)
    assert splitting == pytest.approx(2 * j_fit, abs=1e-6 * MHZ)
    report(3, "coherent coupling bound and 2J eigenvalue splitting")


def test_04_oracle_equivalence():
    """Pairwise-sum engine reproduces every closed form to 1e-12."""
    rng = np.random.default_rng(404)
    for _ in range(100):
        kappa = rng.uniform(1e5, 2e6)
        length = rng.uniform(0.01, 0.3)
        f_res = rng.uniform(4e9, 5e9)
        p = SingleGseParams(kappa, 0.0, length, f_res, WG)
        positions, rates = (0.0, length), (kappa, kappa)
        j, gamma = pair_sums(positions, rates, positions, rates, f_res, SPEED)
        assert gamma == pytest.approx(giant_decay(p), rel=1e-12, abs=1e-12 * 4 * kappa)
        assert j == pytest.approx(lamb_shift(p), rel=1e-12, abs=1e-12 * kappa)

        k_i, k_o = rng.uniform(1e5, 2e6, 2)
        l_i = rng.uniform(0.02, 0.1)
        l_o = l_i + rng.uniform(0.02, 0.2)
        inner = SingleGseParams(k_i, 0.0, l_i, f_res, WG)
        outer = SingleGseParams(k_o, 0.0, l_o, f_res, WG)
        j_ref, gamma_ref = coupling_strengths(NestedParams.from_geometry(inner, outer))
        x0 = (l_o - l_i) / 2
        j2, gamma2 = pair_sums((0.0, l_o), (k_o, k_o), (x0, x0 + l_i), (k_i, k_i), f_res, SPEED)
        scale = math.sqrt(k_i * k_o)
        assert gamma2 == pytest.approx(gamma_ref, rel=1e-12, abs=1e-12 * scale)
        assert j2 == pytest.approx(j_ref, rel=1e-12, abs=1e-12 * scale)

    # engine S-matrix against the closed 2x2 matrix transmission
    topology = Topology((
        Emitter("o", 4.35e9, BETA_OUTER, (KAPPA_OUTER,) * 2, (0.0, L_OUTER)),
        Emitter("i", 4.35e9, BETA_INNER, (KAPPA_INNER,) * 2,
                ((L_OUTER - L_INNER) / 2, (L_OUTER + L_INNER) / 2)),
    ))
    grid = FrequencyGrid(4.34e9, 4.36e9, 2001)
    engine = s_matrix(topology, WG, grid, convention="mixed").transmission.s21
    inner = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, WG)
    outer = SingleGseParams(KAPPA_OUTER, BETA_OUTER, L_OUTER, 4.35e9, WG)
    closed = s21_nested_matrix(NestedParams.from_geometry(inner, outer), grid).s21
    assert np.max(np.abs(engine - closed)) < 1e-12
    report(4, "multipoint engine equals the closed forms (100 geometries)")


def test_05_unitarity():
    """Lossless scattering conserves probability to 1e-12 per point."""
    # single, closed form
    p = single_at_phase(0.8, beta=0.0)
    f = np.linspace(p.f_res - 10 * MHZ, p.f_res + 10 * MHZ, 2001)
    s21 = s21_values(p, f)
    total = np.abs(s21) ** 2 + np.abs(s21 - 1.0) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-12

    # nested, engine probe convention
    topology = Topology((
        Emitter("o", 4.35e9, 0.0, (KAPPA_OUTER,) * 2, (0.0, L_OUTER)),
        Emitter("i", 4.35e9, 0.0, (KAPPA_INNER,) * 2,
                ((L_OUTER - L_INNER) / 2, (L_OUTER + L_INNER) / 2)),
    ))
    grid = FrequencyGrid(4.34e9, 4.36e9, 2001)
    res = s_matrix(topology, WG, grid, convention="probe")
    total = np.abs(res.transmission.s21) ** 2 + np.abs(res.reflection) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-12

    # ten random lossless general topologies
    rng = np.random.default_rng(55)
    from gsesim.multipoint import MarkovWarning

    for _ in range(10):
        emitters = []
        for m in range(int(rng.integers(1, 4))):
            npts = int(rng.integers(1, 4))
            pos = tuple(np.sort(rng.uniform(0, 0.25, npts)) + 0.3 * m)
            kap = tuple(rng.uniform(1e5, 1.5e6, npts))
            emitters.append(Emitter(f"e{m}", rng.uniform(4.3e9, 4.4e9), 0.0, kap, pos))
        grid = FrequencyGrid(4.3e9, 4.4e9, 501)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MarkovWarning)
            res = s_matrix(Topology(tuple(emitters)), WG, grid, convention="probe")
        total = np.abs(res.transmission.s21) ** 2 + np.abs(res.reflection) ** 2
        assert np.max(np.abs(total - 1.0)) < 1e-12
    report(5, "lossless unitarity for single, nested, and 10 random layouts")


def test_06_circle_identity():
    """Decay and shift trace the Kramers-Kronig circle to 1e-12."""
    freqs = np.linspace(4.0e9, 5.0e9, 1000)
    p = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, WG)
    for f in freqs:
        a = giant_decay(p, f) / (2 * p.kappa) - 1.0
        b = lamb_shift(p, f) / p.kappa
        assert abs(a * a + b * b - 1.0) < 1e-12
    report(6, "Kramers-Kronig circle identity over 1000 frequencies")


def test_07_pv_integrals():
    """Closed-form self-energy integrals agree with PV quadrature."""
    for x in np.linspace(0.5, 50.0, 34):
        for branch in ("+", "-"):
            closed = pv_closed(float(x), branch)
            quad = pv_quadrature(float(x), branch)
            assert abs(closed.a_value - quad.a_value) <= 1e-6
            assert abs(closed.b_value - quad.b_value) <= 1e-6

    # the decay/shift decomposition assembles the closed-form rates
    for x in np.linspace(0.1, 40.0, 57):
        decay_factor, shift_factor = decay_shift_decomposition(float(x))
        kappa = KAPPA_INNER
        kappa_g = 2 * kappa + (kappa / math.pi) * decay_factor
        shift = -(kappa / math.pi) * shift_factor
        assert kappa_g == pytest.approx(2 * kappa * (1 + math.cos(x)), rel=1e-12, abs=1e-4)
        assert shift == pytest.approx(kappa * math.sin(x), rel=1e-12, abs=1e-4)
    report(7, "principal-value closed forms vs quadrature (x in [0.5, 50])")


def test_08_anisotropy():
    """Angular law extrema, 330 MHz calibration, quadratic convergence."""
    assert angular_factor(0.0) == pytest.approx(2.0, abs=1e-12)
    theta_min = 0.5 * math.acos(-1.0 / 3.0)
    assert angular_factor(theta_min) == pytest.approx(-4.0 / 3.0, abs=1e-12)
    assert ANGULAR_FACTOR_SPAN == pytest.approx(10.0 / 3.0, abs=1e-12)

    h_a = h_a_for_tuning_range(330e6)
    p = AnisotropyParams(0.155, h_a)
    freqs = np.array(angle_sweep(p, np.linspace(0, math.pi, 20001)))
    assert (freqs.max() - freqs.min()) == pytest.approx(330e6, rel=0.01)

    thetas = np.linspace(0, math.pi, 41)
    errs = []
    for h in (2e-4, 1e-4, 5e-5):
        pa = AnisotropyParams(0.155, h)
        full = np.array(angle_sweep(pa, thetas, which="full"))
        simple = np.array(angle_sweep(pa, thetas, which="simple"))
        errs.append(np.max(np.abs(full - simple)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)
    report(8, "anisotropy extrema, 330 MHz tuning range, quadratic limit")


def test_09_fit_round_trips():
    """Noiseless exact recovery, noisy Monte-Carlo, geometry round trip."""
    true = {"f_res": 4.35e9, "kappa": KAPPA_INNER, "beta": BETA_INNER,
            "length": L_INNER, "speed": SPEED}
    phi = 2 * math.pi * true["f_res"] * L_INNER / SPEED
    width = 2 * KAPPA_INNER * (1 + math.cos(phi)) + BETA_INNER
    f = np.linspace(true["f_res"] - 20 * width, true["f_res"] + 20 * width, 2001)
    clean = single_model(f, true)[0]

    fixed = {"f_res": 4.35e9, "length": L_INNER, "speed": SPEED}
    result = fit(FitProblem(
        f, clean, "single",
        free={"kappa": (KAPPA_INNER, 0, 1e8), "beta": (BETA_INNER, 0, 1e8)},
        fixed=fixed,
    ))
    assert result.values["kappa"] == pytest.approx(KAPPA_INNER, rel=1e-8)
    assert result.values["beta"] == pytest.approx(BETA_INNER, rel=1e-8)

    wins = 0
    for seed in range(100):
        data = clean + synth_noise(f.size, 0.01, seed)
        r = fit(FitProblem(
            f, data, "single",
            free={"kappa": (1.5 * KAPPA_INNER, 0, 1e8), "beta": (1.5 * BETA_INNER, 0, 1e8)},
            fixed=fixed,
        ))
        if (abs(r.values["kappa"] / KAPPA_INNER - 1) < 0.05
                and abs(r.values["beta"] / BETA_INNER - 1) < 0.05):
            wins += 1
    assert wins >= 95

    datasets = []
    for k in range(8):
        f_res = 4.2e9 + k * 0.1e9
        q = dict(true, f_res=f_res)
        fk = np.linspace(f_res - 25 * MHZ, f_res + 25 * MHZ, 501)
        datasets.append((f_res, fk, single_model(fk, q)[0]))
    # the model sees only length/speed, so the geometry fit fixes speed
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegeneracyWarning)
        geo = fit_global_geometry(datasets, free={
            "kappa": (KAPPA_INNER, 0, 1e8),
            "beta": (BETA_INNER, 0, 1e8),
            "length": (L_INNER, 0.01, 0.5),
        }, fixed={"speed": SPEED})
    assert geo.values["length"] == pytest.approx(L_INNER, rel=1e-6)
    assert geo.values["kappa"] == pytest.approx(KAPPA_INNER, rel=1e-6)
    report(9, f"fit round trips (noisy Monte-Carlo {wins}/100)")


def test_10_map_regeneration():
    """Detuning maps show repulsion (2J) and attraction (merged width)."""
    # coherent point: trace the two dip branches and fit the hyperbolae
    f = np.linspace(4.35e9 - 20 * MHZ, 4.35e9 + 20 * MHZ, 20001)
    detunings = np.linspace(-10 * MHZ, 10 * MHZ, 81)
    mag = np.array([
        np.abs(s21_fitform_values(ROW_COHERENT.detuned(4.35e9 + d), f))
        for d in detunings
    ])
    center = mag[detunings.size // 2]
    assert dip_positions(f, center).size == 2  # two hybridized branches
    splitting = avoided_crossing_splitting(detunings, f, mag)
    assert splitting == pytest.approx(2 * 1.01 * MHZ, rel=0.05)

    # dissipative point: one merged superradiant dip at zero detuning
    f2 = np.linspace(4.96e9 - 40 * MHZ, 4.96e9 + 40 * MHZ, 40001)
    column = np.abs(s21_fitform_values(ROW_DISSIPATIVE, f2))
    assert dip_positions(f2, column).size == 1
    width = merged_linewidth(f2, column)
    rate_sum = (2.98 + 2.78 + 1.84 + 1.28) * MHZ  # kappa_iT + kappa_oT
    assert width >= 0.9 * rate_sum
    report(10, "level repulsion (2J) and attraction-like merged linewidth")

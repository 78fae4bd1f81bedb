import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gsesim.multipoint as mp
from gsesim.core import Emitter, FrequencyGrid, ModelError, Topology, Waveguide
from gsesim.multipoint import (
    EffectiveModel,
    MarkovWarning,
    PassivityWarning,
    build_effective,
    s_matrix,
)
from gsesim.nested import (
    NestedParams,
    complex_frequencies,
    coupling_strengths,
    s21_nested_matrix,
)
from gsesim.single import SingleGseParams, giant_decay, lamb_shift, s21_single
from conftest import (
    BETA_INNER,
    BETA_OUTER,
    KAPPA_INNER,
    KAPPA_OUTER,
    L_INNER,
    L_OUTER,
    SPEED,
    grid_around,
    with_extremes,
)
from reference import drive_vector, pair_sums


CONVENTIONS = ("resonance", "mixed", "probe")


def reference_h(t, f_ref, lamb_sign=1):
    """H - diag(f_res) from the pair_sums double loop, block (a, b) at f_ref(a, b)."""
    ems = t.emitters
    h = np.zeros(np.shape(f_ref(ems[0], ems[0])) + (len(ems), len(ems)), dtype=complex)
    for j, a in enumerate(ems):
        for l, b in enumerate(ems):
            jj, gg = pair_sums(a.positions, a.kappa_points, b.positions, b.kappa_points, f_ref(a, b), SPEED)
            h[..., j, l] = (lamb_sign if j == l else 1) * jj - 1j * gg
    return h - 1j * np.diag([e.beta for e in ems])


def mean_resonance(a, b):
    return 0.5 * (a.f_res + b.f_res)


def reference_s_matrix(t, grid, convention):
    """(S21, reflection, (f - H)^-1 w) of the reference model by np.linalg.solve."""
    ems, f = t.emitters, grid.frequencies
    if convention == "probe":
        h = reference_h(t, lambda a, b: f)
    else:
        h = reference_h(t, mean_resonance, -1 if convention == "mixed" else 1)
    x0 = 0.0
    if convention == "resonance":
        u = np.array([drive_vector(e, e.f_res, SPEED) for e in ems]) * np.ones((f.size, 1))
    else:
        # drives from the first point, the phase from 0 to it put back into
        # the reflection: the absolute phase rounds to 1e-11 rad at 50 m and
        # next to a dark state S21 amplifies that to 1e-10
        x0 = min(min(e.positions) for e in ems)
        shifted = [replace(e, positions=tuple(x - x0 for x in e.positions)) for e in ems]
        u = np.stack([drive_vector(e, f, SPEED) for e in shifted], axis=-1)
    if convention == "probe":
        # dissipative sums from the drive amplitudes, as in the engine
        h = h.real - 1j * (np.real(u[:, :, None] * np.conj(u[:, None, :])) + np.diag([e.beta for e in ems]))
    detuning = f[:, None] - np.array([e.f_res for e in ems])
    gw = np.linalg.solve(detuning[:, :, None] * np.eye(len(ems)) - h, np.conj(u)[..., None])[..., 0]
    refl = -1j * np.sum(np.conj(u) * gw, axis=-1) * np.exp(2j * (2.0 * math.pi * (f * x0) / SPEED))
    return 1.0 - 1j * np.sum(u * gw, axis=-1), refl, gw


RATE = st.floats(1e5, 2e6)


@st.composite
def topologies(draw, sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6),
               beta=st.one_of(st.just(0.0), RATE)):
    """Up to 6 emitters with up to 4 interleaved points each, up to 50 m from the origin.

    sizes draws the number of points of each emitter and beta each intrinsic rate.
    """
    sizes = draw(sizes)
    gaps = draw(st.lists(st.floats(1e-3, 0.1), min_size=sum(sizes), max_size=sum(sizes)))
    positions = draw(st.floats(0.0, 50.0)) + np.cumsum(gaps)
    owner = np.array(draw(st.permutations([j for j, m in enumerate(sizes) for _ in range(m)])))
    emitters = [
        Emitter(
            f"e{j}",
            draw(st.floats(4.33e9, 4.37e9)),
            draw(beta),
            tuple(draw(st.lists(RATE, min_size=m, max_size=m))),
            tuple(positions[owner == j]),
        )
        for j, m in enumerate(sizes)
    ]
    return Topology(tuple(emitters))


def interleaved(rng, n, m, lossless=False, f_res=(4.33e9, 4.37e9), kappa_max=6e5):
    """n emitters with m points each at random interleaved positions."""
    positions = np.sort(rng.uniform(0.0, 0.3, n * m))
    owner = rng.permutation(n * m).reshape(n, m)
    return Topology(tuple(
        Emitter(f"e{j}", rng.uniform(*f_res), 0.0 if lossless else rng.uniform(3e5, 1.5e6),
                tuple(rng.uniform(1e5, kappa_max, m)), tuple(positions[np.sort(owner[j])]))
        for j in range(n)
    ))


def exceptional_pair(rng, waveguide):
    """Symmetric nested pair tuned so its 2x2 mixed-convention model is defective.

    With H = [[A, c], [c, D]] (outer first, c = J - iG) the eigenvalues
    coalesce when A - D = 2ic; the outer resonance and the inner intrinsic
    rate are solved for that, re-evaluating the phases, which depend on
    the pair's mean resonance.
    """
    k_i, k_o = rng.uniform(0.6e6, 0.9e6, 2)
    l_i = rng.uniform(0.07, 0.09)
    l_o = 2.0 * l_i + rng.uniform(-0.01, 0.01)
    f_i = rng.uniform(4.33e9, 4.37e9)
    beta_o = rng.uniform(3.7e6, 4.5e6)
    f_o, beta_i = f_i, beta_o

    def params():
        return NestedParams.from_geometry(
            SingleGseParams(k_i, beta_i, l_i, f_i, waveguide),
            SingleGseParams(k_o, beta_o, l_o, f_o, waveguide),
        )

    for _ in range(8):
        j, gamma = coupling_strengths(params())
        d, a = complex_frequencies(params(), lamb_sign=-1)
        delta = d + 2j * math.copysign(1.0, j) * (j - 1j * gamma) - a
        f_o += delta.real
        beta_i += delta.imag
    gap = 0.5 * (l_o - l_i)
    topology = Topology((
        Emitter("outer", f_o, beta_o, (k_o, k_o), (0.0, l_o)),
        Emitter("inner", f_i, beta_i, (k_i, k_i), (gap, gap + l_i)),
    ))
    return topology, params()


def random_two_point(rng, name, x0=0.0):
    kappa = rng.uniform(1e5, 2e6)
    length = rng.uniform(0.01, 0.3)
    f_res = rng.uniform(4e9, 5e9)
    return (
        Emitter(name, f_res, 0.0, (kappa, kappa), (x0, x0 + length)),
        SingleGseParams(kappa, 0.0, length, f_res, Waveguide(SPEED)),
    )


class TestPairSums:
    def test_self_terms_reproduce_single_gse_rates(self):
        # the j == l pair sums must equal the closed-form giant decay and
        # interference shift over random geometries
        rng = np.random.default_rng(11)
        for _ in range(100):
            em, p = random_two_point(rng, "e")
            j, gamma = pair_sums(
                em.positions, em.kappa_points, em.positions, em.kappa_points,
                em.f_res, SPEED,
            )
            assert gamma == pytest.approx(giant_decay(p), rel=1e-12)
            assert j == pytest.approx(lamb_shift(p), rel=1e-12, abs=1e-6)

    def test_cross_terms_reproduce_nested_couplings(self):
        rng = np.random.default_rng(12)
        wg = Waveguide(SPEED)
        for _ in range(100):
            f_res = rng.uniform(4e9, 5e9)
            l_i = rng.uniform(0.02, 0.1)
            l_o = l_i + rng.uniform(0.02, 0.2)
            k_i, k_o = rng.uniform(1e5, 2e6, 2)
            inner = SingleGseParams(k_i, BETA_INNER, l_i, f_res, wg)
            outer = SingleGseParams(k_o, BETA_OUTER, l_o, f_res, wg)
            p = NestedParams.from_geometry(inner, outer)
            j_ref, gamma_ref = coupling_strengths(p)
            x0 = (l_o - l_i) / 2
            j, gamma = pair_sums(
                (0.0, l_o), (k_o, k_o), (x0, x0 + l_i), (k_i, k_i), f_res, SPEED
            )
            scale = math.sqrt(k_i * k_o)
            assert gamma == pytest.approx(gamma_ref, rel=1e-12, abs=1e-12 * scale)
            assert j == pytest.approx(j_ref, rel=1e-12, abs=1e-12 * scale)

    def test_vectorized_over_frequency(self):
        em = Emitter("e", 4.35e9, 0.0, (1e6, 1e6), (0.0, 0.0828))
        f = np.linspace(4.3e9, 4.4e9, 7)
        j, gamma = pair_sums(em.positions, em.kappa_points, em.positions, em.kappa_points, f, SPEED)
        assert j.shape == gamma.shape == (7,)
        j0, g0 = pair_sums(em.positions, em.kappa_points, em.positions, em.kappa_points, f[3], SPEED)
        assert j[3] == j0 and gamma[3] == g0


class TestEffectiveModel:
    def test_symmetric_coupling_enforced(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
        with pytest.raises(ModelError):
            EffectiveModel(np.array([4e9 - 1j, 4e9 - 1j]), bad, np.ones(2, dtype=complex))

    def test_gain_on_the_diagonal_rejected(self):
        with pytest.raises(ModelError, match="diagonal imaginary parts must be non-positive"):
            EffectiveModel(np.array([4e9 - 1j, 4e9 + 1j]), np.zeros((2, 2), dtype=complex),
                           np.ones(2, dtype=complex))

    def test_hamiltonian_is_diagonal_plus_coupling(self):
        coupling = np.array([[0.0, 1.0 - 2.0j], [1.0 - 2.0j, 0.0]])
        model = EffectiveModel(np.array([4e9 - 1j, 4.1e9 - 3j]), coupling, np.ones(2, dtype=complex))
        assert np.array_equal(model.hamiltonian, [[4e9 - 1j, 1.0 - 2.0j], [1.0 - 2.0j, 4.1e9 - 3j]])

    def test_build_matches_closed_forms(self):
        wg = Waveguide(SPEED)
        t = Topology((
            Emitter("o", 4.35e9, BETA_OUTER, (KAPPA_OUTER,) * 2, (0.0, L_OUTER)),
            Emitter("i", 4.35e9, BETA_INNER, (KAPPA_INNER,) * 2,
                    ((L_OUTER - L_INNER) / 2, (L_OUTER + L_INNER) / 2)),
        ))
        model = build_effective(t, wg)
        inner = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, wg)
        outer = SingleGseParams(KAPPA_OUTER, BETA_OUTER, L_OUTER, 4.35e9, wg)
        p = NestedParams.from_geometry(inner, outer)
        j_ref, gamma_ref = coupling_strengths(p)
        assert model.coupling[0, 1] == pytest.approx(j_ref - 1j * gamma_ref, rel=1e-12)
        assert -model.diag[1].imag == pytest.approx(giant_decay(inner) + BETA_INNER, rel=1e-12)

    def test_overflowing_rate_raises_model_error(self, waveguide):
        # sqrt(kappa_p*kappa_q) overflowed with RuntimeWarnings, and the
        # non-finite H reached the eigensolver, which raised LinAlgError
        t = Topology((Emitter("e", 4.35e9, 0.0, (1e300, 1e300), (0.0, L_INNER)),))
        with pytest.raises(ModelError, match="effective Hamiltonian is not finite"):
            build_effective(t, waveguide)

    def test_markov_warning_for_long_delay(self):
        wg = Waveguide(SPEED)
        t = Topology((Emitter("e", 4.35e9, 0.0, (1e8, 1e8), (0.0, 3.0)),))
        with pytest.warns(MarkovWarning):
            build_effective(t, wg)

    def test_markov_warning_raised_once_per_call(self):
        wg = Waveguide(SPEED)
        t = Topology((
            Emitter("a", 4.35e9, 1e6, (1e8, 1e8), (0.0, 3.0)),
            Emitter("b", 4.36e9, 1e6, (1e8,), (1.0,)),
        ))
        grid = grid_around(4.35e9, 5e6, 11)
        calls = [lambda: build_effective(t, wg)]
        calls += [lambda c=c: s_matrix(t, wg, grid, convention=c) for c in CONVENTIONS]
        for call in calls:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                # this lossy layout is also not passive under resonance and mixed
                warnings.simplefilter("ignore", PassivityWarning)
                call()
            assert [w.category for w in caught] == [MarkovWarning]

    @given(t=topologies(), lamb_sign=st.sampled_from((1, -1)))
    @settings(max_examples=40, deadline=None)
    def test_build_matches_pair_sums_reference(self, t, lamb_sign):
        # build_effective assembles with lamb_sign=+1, s_matrix's 'mixed' path with -1
        pts = mp._Points.of(t)
        hrel, drive = mp._assemble(pts, SPEED, lamb_sign), pts.drives(SPEED)
        f_res = np.array([e.f_res for e in t.emitters])
        h = reference_h(t, mean_resonance, lamb_sign)
        u = np.array([drive_vector(e, e.f_res, SPEED) for e in t.emitters])
        scale = sum(sum(e.kappa_points) for e in t.emitters)
        assert np.max(np.abs(hrel - h)) < 1e-12 * scale
        assert np.max(np.abs(drive - u)) < 1e-12 * math.sqrt(scale)
        if lamb_sign == -1:
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MarkovWarning)
            model = build_effective(t, Waveguide(SPEED))
        off = ~np.eye(len(f_res), dtype=bool)
        assert np.max(np.abs(model.coupling[off] - h[off]), initial=0.0) < 1e-12 * scale
        # adding f_res rounds the self-energy to the spacing of doubles at f_res
        assert np.all(np.abs(model.diag - f_res - np.diagonal(h)) <= np.spacing(f_res) + 1e-12 * scale)
        assert np.max(np.abs(model.drive - u)) < 1e-12 * math.sqrt(scale)


class TestSMatrix:
    def test_single_emitter_matches_closed_form(self, waveguide):
        t = Topology((Emitter("i", 4.35e9, BETA_INNER, (KAPPA_INNER,) * 2, (0.0, L_INNER)),))
        p = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, waveguide)
        grid = grid_around(4.35e9, 10e6)
        engine = s_matrix(t, waveguide, grid).transmission.s21
        closed = s21_single(p, grid).s21
        assert np.max(np.abs(engine - closed)) < 1e-12

    def test_two_emitters_match_nested_matrix(self, waveguide, nested_topology):
        inner = SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, waveguide)
        outer = SingleGseParams(KAPPA_OUTER, BETA_OUTER, L_OUTER, 4.35e9, waveguide)
        p = NestedParams.from_geometry(inner, outer)
        grid = grid_around(4.35e9, 10e6)
        engine = s_matrix(nested_topology, waveguide, grid, convention="mixed").transmission.s21
        closed = s21_nested_matrix(p, grid).s21
        assert np.max(np.abs(engine - closed)) < 1e-12

    def test_probe_unitarity_random_lossless(self, waveguide):
        rng = np.random.default_rng(3)
        worst = 0.0
        for k in range(10):
            emitters = []
            for m in range(int(rng.integers(1, 4))):
                npts = int(rng.integers(1, 4))
                pos = tuple(np.sort(rng.uniform(0, 0.25, npts)) + 0.3 * m)
                kap = tuple(rng.uniform(1e5, 1.5e6, npts))
                emitters.append(Emitter(f"e{m}", rng.uniform(4.3e9, 4.4e9), 0.0, kap, pos))
            t = Topology(tuple(emitters))
            grid = FrequencyGrid(4.3e9, 4.4e9, 401)
            with warnings.catch_warnings():
                # wide random layouts can sit outside the Markov regime;
                # unitarity is an algebraic property and must hold anyway
                warnings.simplefilter("ignore", MarkovWarning)
                res = s_matrix(t, waveguide, grid, convention="probe")
            total = np.abs(res.transmission.s21) ** 2 + np.abs(res.reflection) ** 2
            worst = max(worst, float(np.max(np.abs(total - 1.0))))
        assert worst < 1e-12

    def test_reflection_vanishes_without_emitters_coupling(self, waveguide):
        t = Topology((Emitter("e", 4.35e9, 1e6, (0.0, 0.0), (0.0, 0.1)),))
        grid = grid_around(4.35e9, 5e6, 101)
        res = s_matrix(t, waveguide, grid)
        assert np.max(np.abs(res.reflection)) < 1e-15
        assert np.max(np.abs(res.transmission.s21 - 1.0)) < 1e-15

    def test_unknown_convention_rejected(self, waveguide, nested_topology):
        with pytest.raises(ModelError):
            s_matrix(nested_topology, waveguide, grid_around(4.35e9, 5e6, 11), convention="bogus")

    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_pole_on_the_grid_raises(self, waveguide, convention):
        # a lossless, uncoupled emitter is a real pole; 4.35 GHz is a grid point
        t = Topology((Emitter("e", 4.35e9, 0.0, (0.0, 0.0), (0.0, 0.1)),))
        grid = FrequencyGrid(4.3e9, 4.4e9, 3)
        assert grid.frequencies[1] == 4.35e9
        with pytest.raises(ModelError):
            s_matrix(t, waveguide, grid, convention=convention)

    @given(t=topologies())
    @settings(max_examples=40, deadline=None)
    def test_matches_pair_sums_reference(self, t):
        # Unitarity cannot detect a wrong real-symmetric J; the loop can.
        # Both sides round the rate sums differently, by about eps * sum(kappa)
        # per entry of f - H, and the resolvent scales that into S by
        # |(f - H)^-1 w|^2. Lossless layouts can sit next to a dark state,
        # where that factor reaches 1e3 and the reference itself is 1e-12
        # from a 40-digit solution, so the bound grows with it.
        wg = Waveguide(SPEED)
        grid = FrequencyGrid(4.3e9, 4.4e9, 201)
        rates = sum(sum(e.kappa_points) for e in t.emitters)
        for convention in CONVENTIONS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", MarkovWarning)
                res = passive_checked_s_matrix(t, wg, grid, convention=convention)
            s21, refl, gw = reference_s_matrix(t, grid, convention)
            bound = 1e-12 + 1e-13 * rates * np.sum(np.abs(gw) ** 2, axis=-1)
            assert np.all(np.abs(res.transmission.s21 - s21) < bound)
            assert np.all(np.abs(res.reflection - refl) < bound)

    @pytest.mark.parametrize("lossless", [False, True])
    @pytest.mark.parametrize("n", [8, 32])
    def test_probe_matches_pair_sums_reference_above_the_elimination_limit(self, waveguide, n, lossless):
        # topologies() stops at 6 emitters; these are the benchmark's sizes,
        # where Gamma is one product per frequency. The prefix sums give J
        # itself, symmetric to rounding: one antisymmetric term left out
        # would show here at the scale of the rates, not of their rounding
        t = interleaved(np.random.default_rng([28, n]), n, 4, lossless=lossless)
        grid = FrequencyGrid(4.3e9, 4.4e9, 201)
        rates = sum(sum(e.kappa_points) for e in t.emitters)
        res = passive_checked_s_matrix(t, waveguide, grid, convention="probe")
        s21, refl, gw = reference_s_matrix(t, grid, "probe")
        bound = 1e-12 + 1e-13 * rates * np.sum(np.abs(gw) ** 2, axis=-1)
        assert np.all(np.abs(res.transmission.s21 - s21) < bound)
        assert np.all(np.abs(res.reflection - refl) < bound)
        j = -probe_block(t, grid)[0].real  # -J plus the detuning on the diagonal, which cancels below
        assert np.abs(j - j.transpose(1, 0, 2)).max() <= 4 * np.finfo(float).eps * rates


def probe_block(t, grid):
    """(f*I - H, u) on the whole grid from mp._probe_resolvent: f - H (N, N, nf),
    laid out in memory as _solve lays out a block, and the drives u (N, nf)."""
    pts = mp._Points.of(t)
    n, nf = pts.f_res.size, grid.n_points
    factors = mp._phase_factors(grid, pts.x - pts.x.min(), np.sqrt(pts.kappa), SPEED)
    if n <= mp._MAX_ELIMINATION_N:
        a = np.empty((n, n, nf), dtype=complex)
    else:
        a = np.empty((nf, n, n), dtype=complex).transpose(1, 2, 0)
    u = mp._probe_resolvent(pts, grid.frequencies, factors, nf)(slice(0, nf), a)
    return a, u


def two_point(e, positions):
    """Emitter e as a two-point ensemble at positions, both at e's first rate."""
    return Emitter(e.name, e.f_res, e.beta, (e.kappa_points[0],) * 2, positions)


def mirror(t):
    """t and its mirror image x -> L - x, L the sum of its outermost positions.

    Every position is first put on a 2^-40 m lattice, where L - x is exact:
    the mirror then keeps each distance between points to the bit.
    """
    snap = Topology(tuple(replace(e, positions=tuple(round(x * 2**40) / 2**40 for x in e.positions))
                          for e in t.emitters))
    xs = [x for e in snap.emitters for x in e.positions]
    ends = min(xs) + max(xs)
    return snap, Topology(tuple(
        replace(e, kappa_points=e.kappa_points[::-1], positions=tuple(ends - x for x in e.positions[::-1]))
        for e in snap.emitters
    ))


@st.composite
def nested_pairs(draw):
    """Two emitters of topologies() as two-point ensembles, the shorter centred in the longer.

    Each keeps its resonance, intrinsic rate, first point rate and length.
    """
    pair = draw(topologies(sizes=st.just([2, 2]))).emitters
    inner, outer = sorted(pair, key=lambda e: e.positions[1] - e.positions[0])
    l_i, l_o = (e.positions[1] - e.positions[0] for e in (inner, outer))
    assume(l_o - l_i > 1e-4)
    x0 = outer.positions[0]
    return Topology((
        two_point(outer, (x0, x0 + l_o)),
        two_point(inner, (x0 + (l_o - l_i) / 2, x0 + (l_o + l_i) / 2)),
    ))


def two_point_params(e, waveguide):
    """Closed-form parameters of a two-point emitter with equal rates."""
    return SingleGseParams(e.kappa_points[0], e.beta, e.positions[1] - e.positions[0], e.f_res,
                           waveguide)


def passive_checked_s_matrix(*args, **kwargs):
    """s_matrix, asserting its PassivityWarning contract.

    One warning per call if and only if |S21|^2 + |S11|^2 exceeds 1 + 1e-10
    somewhere on the grid.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", PassivityWarning)
        res = s_matrix(*args, **kwargs)
    gain = np.max(np.abs(res.transmission.s21) ** 2 + np.abs(res.reflection) ** 2) > 1.0 + 1e-10
    assert [w.category for w in caught] == [PassivityWarning] * int(gain)
    return res


def quiet_s_matrix(t, grid, convention):
    with warnings.catch_warnings():
        # wide random layouts can sit outside the Markov regime; these
        # properties are algebraic and must hold anyway
        warnings.simplefilter("ignore", MarkovWarning)
        return passive_checked_s_matrix(t, Waveguide(SPEED), grid, convention=convention)


PROPERTY_GRID = FrequencyGrid(4.3e9, 4.4e9, 201)


class TestPhysicsProperties:
    """Invariants of the N-emitter engine over random topologies (N <= 6, M <= 4)."""

    @given(t=topologies(beta=st.just(0.0)))
    @settings(max_examples=40, deadline=None)
    def test_lossless_probe_is_unitary(self, t):
        res = quiet_s_matrix(t, PROPERTY_GRID, "probe")
        total = np.abs(res.transmission.s21) ** 2 + np.abs(res.reflection) ** 2
        assert np.max(np.abs(total - 1.0)) < 1e-10

    @given(t=topologies(beta=RATE))
    @settings(max_examples=40, deadline=None)
    def test_loss_is_passive(self, t):
        # only under probe are the rates and the drive taken at one frequency;
        # hypothesis finds layouts above 1 under resonance (by 7 %) and mixed
        res = quiet_s_matrix(t, PROPERTY_GRID, "probe")
        total = np.abs(res.transmission.s21) ** 2 + np.abs(res.reflection) ** 2
        assert np.max(total) <= 1.0 + 1e-10

    @given(t=topologies(beta=RATE))
    @settings(max_examples=40, deadline=None)
    def test_probe_loss_is_the_power_the_emitters_absorb(self, t):
        # 1 - |S21|^2 - |S11|^2 = 2 sum_j beta_j |(G w)_j|^2 with G = (f - H)^-1,
        # G w solved here from the f - H that 'probe' assembles
        res = quiet_s_matrix(t, PROPERTY_GRID, "probe")
        a, u = probe_block(t, PROPERTY_GRID)
        gw = np.linalg.solve(a.transpose(2, 0, 1), np.conj(u).T[..., None])[..., 0]
        beta = np.array([e.beta for e in t.emitters])
        absorbed = 2.0 * np.sum(beta * np.abs(gw) ** 2, axis=-1)
        lost = 1.0 - np.abs(res.transmission.s21) ** 2 - np.abs(res.reflection) ** 2
        rates = sum(sum(e.kappa_points) for e in t.emitters)
        assert np.all(np.abs(lost - absorbed) < 1e-12 + 1e-13 * rates * np.sum(np.abs(gw) ** 2, axis=-1))

    @given(t=topologies(), convention=st.sampled_from(("probe", "mixed")))
    @settings(max_examples=40, deadline=None)
    def test_mirrored_layout_transmits_the_same(self, t, convention):
        # reciprocity: S12 is the S21 of the layout mirrored along the guide.
        # Each side is within the oracle test's bound of the pair-sum
        # reference, and the two references agree
        rates = sum(sum(e.kappa_points) for e in t.emitters)
        bound = 1e-12
        s21 = []
        for layout in mirror(t):
            s21.append(quiet_s_matrix(layout, PROPERTY_GRID, convention).transmission.s21)
            gw = reference_s_matrix(layout, PROPERTY_GRID, convention)[2]
            bound = bound + 1e-13 * rates * np.sum(np.abs(gw) ** 2, axis=-1)
        assert np.all(np.abs(s21[0] - s21[1]) < bound)

    @pytest.mark.parametrize("n", [1, 3])
    def test_resonance_breaks_the_mirror_above_one_emitter(self, n):
        # each drive takes the phase at its own emitter's resonance, so the
        # mirror shifts the drives by phases that differ between emitters
        t, m = mirror(interleaved(np.random.default_rng([31, n]), n, 4))
        s21, s21_m = (quiet_s_matrix(x, PROPERTY_GRID, "resonance").transmission.s21 for x in (t, m))
        if n == 1:
            assert np.max(np.abs(s21 - s21_m)) < 1e-12
        else:
            assert np.max(np.abs(s21 - s21_m)) > 1e-2

    @given(t=topologies(sizes=st.just([2])).map(
        lambda t: Topology((two_point(t.emitters[0], t.emitters[0].positions),))))
    @settings(max_examples=40, deadline=None)
    def test_one_emitter_reduces_to_single_closed_form(self, t):
        engine = quiet_s_matrix(t, PROPERTY_GRID, "resonance").transmission.s21
        closed = s21_single(two_point_params(t.emitters[0], Waveguide(SPEED)), PROPERTY_GRID).s21
        assert np.max(np.abs(engine - closed)) < 1e-10

    @given(t=nested_pairs())
    # 40 m from the origin, next to the inner pair's dark state: drive phases
    # taken from 0 instead of the first point put S21 1e-10 off
    @example(t=Topology((
        Emitter("e0", 4.33e9, 0.0, (1e5, 1e5), (40.558659759166524, 40.68759411586733)),
        Emitter("e1", 4332421538.0, 0.0, (647905.0, 647905.0), (40.613659759166524, 40.63259411586732)),
    )))
    @settings(max_examples=40, deadline=None)
    def test_nested_pair_reduces_to_matrix_closed_form(self, t):
        outer, inner = (two_point_params(e, Waveguide(SPEED)) for e in t.emitters)
        engine = quiet_s_matrix(t, PROPERTY_GRID, "mixed").transmission.s21
        closed = s21_nested_matrix(NestedParams.from_geometry(inner, outer), PROPERTY_GRID).s21
        assert np.max(np.abs(engine - closed)) < 1e-10

    @given(t=topologies(sizes=st.just([2])).map(
        lambda t: Topology((two_point(t.emitters[0], t.emitters[0].positions),))))
    @settings(max_examples=40, deadline=None)
    def test_one_emitter_probe_reduces_to_self_consistent_single(self, t):
        # under probe the phase across the ensemble is taken at each probe
        # frequency, as in the closed form's self-consistent mode
        engine = quiet_s_matrix(t, PROPERTY_GRID, "probe").transmission.s21
        p = two_point_params(t.emitters[0], Waveguide(SPEED))
        closed = s21_single(p, PROPERTY_GRID, self_consistent_phase=True).s21
        assert np.max(np.abs(engine - closed)) < 1e-10

    @given(t=nested_pairs())
    @settings(max_examples=40, deadline=None)
    def test_nested_pair_probe_reduces_to_matrix_closed_form(self, t):
        # the probe-frequency closed form, with the shift in the single-GSE sign
        outer, inner = (two_point_params(e, Waveguide(SPEED)) for e in t.emitters)
        engine = quiet_s_matrix(t, PROPERTY_GRID, "probe").transmission.s21
        closed = s21_nested_matrix(NestedParams.from_geometry(inner, outer), PROPERTY_GRID,
                                   lamb_sign=+1, phase_ref="probe").s21
        assert np.max(np.abs(engine - closed)) < 1e-10


@st.composite
def extreme_cases(draw):
    """(topology, waveguide, grid): an ordinary case with one to four of its
    numbers (resonances, rates, positions, speed, grid ends) replaced by
    extremes of either sign, or the ModelError that building it raised."""
    t = draw(topologies())
    positions = [x for e in t.emitters for x in e.positions]
    numbers = positions + [x for e in t.emitters for x in (e.f_res, e.beta, *e.kappa_points)]
    numbers = with_extremes(draw, numbers + [SPEED, 4.3e9, 4.4e9])
    x_it, it = iter(numbers[: len(positions)]), iter(numbers[len(positions) :])
    try:
        emitters = []
        for j, em in enumerate(t.emitters):
            m = len(em.positions)
            emitters.append(Emitter(f"e{j}", next(it), next(it), tuple(next(it) for _ in range(m)),
                                    tuple(sorted(next(x_it) for _ in range(m)))))
        speed, f_lo, f_hi = it
        return Topology(tuple(emitters)), Waveguide(speed), FrequencyGrid(f_lo, f_hi, draw(st.integers(2, 9)))
    except ModelError as exc:
        return exc


def overflowing_gamma():
    """Five emitters, one with rates of 1e300 and 1.8e308 Hz: |u_j|^2 overflows
    in the Gamma of the 'probe' solve, which LAPACK serves at N = 5."""
    t = interleaved(np.random.default_rng(0), 5, 2)
    first = replace(t.emitters[0], kappa_points=(1e300, 1.7976931348623157e308))
    return Topology((first, *t.emitters[1:])), Waveguide(SPEED), FrequencyGrid(4.3e9, 4.4e9, 8)


class TestExtremeInputs:
    """Any numbers reach the caller as finite results or one ModelError, never a RuntimeWarning."""

    @given(case=extreme_cases(), convention=st.sampled_from(CONVENTIONS))
    @example(case=overflowing_gamma(), convention="probe")
    @example(case=(interleaved(np.random.default_rng(0), 1, 4), Waveguide(SPEED),
                   FrequencyGrid(4.3e9, 1.7976931348623157e308, 4)), convention="resonance")
    @settings(max_examples=300, deadline=None)
    def test_s_matrix_is_finite_or_model_error(self, case, convention):
        if isinstance(case, ModelError):
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", MarkovWarning)
            warnings.simplefilter("ignore", PassivityWarning)
            try:
                res = s_matrix(*case, convention=convention)
            except ModelError:
                return
        assert np.isfinite(res.transmission.s21).all() and np.isfinite(res.reflection).all()

    @given(case=extreme_cases())
    @settings(max_examples=200, deadline=None)
    def test_build_effective_is_finite_or_model_error(self, case):
        if isinstance(case, ModelError):
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", MarkovWarning)
            try:
                model = build_effective(*case[:2])
            except ModelError:
                return
        assert all(np.isfinite(a).all() for a in (model.diag, model.coupling, model.drive))


def _forbid_solve(*args):
    raise AssertionError("the batched solve ran")


class TestPoleResidues:
    """Frequency-independent H: eigenexpansion with a batched-solve fallback."""

    @pytest.mark.filterwarnings("ignore::gsesim.multipoint.MarkovWarning")
    def test_agrees_with_batched_solve(self, monkeypatch, waveguide):
        rng = np.random.default_rng(21)
        grid = FrequencyGrid(4.3e9, 4.4e9, 1001)
        layouts = [interleaved(rng, n, m) for n, m in ((1, 2), (2, 4), (5, 3), (8, 4), (16, 4))]
        layouts += [interleaved(rng, n, 4, lossless=True) for n in (2, 8)]
        # a wide resonance spread and strong coupling: without its refinement
        # step the expansion is 3e-12 off the solve on one of these
        rng = np.random.default_rng(8)
        layouts += [
            interleaved(rng, n, m, lossless, f_res=(4.30e9, 4.40e9), kappa_max=2e6)
            for n, m in ((4, 3), (6, 4)) for lossless in (False, True)
        ]
        for t in layouts:
            for convention in ("resonance", "mixed"):
                with monkeypatch.context() as m:
                    m.setattr(mp, "_solve", _forbid_solve)
                    fast = passive_checked_s_matrix(t, waveguide, grid, convention=convention)
                with monkeypatch.context() as m:
                    m.setattr(mp, "_MIN_PAIRING", np.inf)
                    solved = passive_checked_s_matrix(t, waveguide, grid, convention=convention)
                assert np.max(np.abs(fast.transmission.s21 - solved.transmission.s21)) < 1e-12
                assert np.max(np.abs(fast.reflection - solved.reflection)) < 1e-12
                assert (fast.path, solved.path) == ("pole-residues", "solve")
                assert fast.min_pairing == solved.min_pairing >= mp._MIN_PAIRING

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exceptional_point_takes_the_fallback(self, monkeypatch, waveguide, seed):
        t, params = exceptional_pair(np.random.default_rng(seed), waveguide)
        grid = FrequencyGrid(4.3e9, 4.4e9, 2001)
        solves = []
        solve = mp._solve
        monkeypatch.setattr(mp, "_solve", lambda *a: solves.append(1) or solve(*a))
        res = s_matrix(t, waveguide, grid, convention="mixed")
        assert solves == [1]
        assert res.path == "solve"
        assert res.min_pairing < mp._MIN_PAIRING
        assert np.max(np.abs(res.transmission.s21 - s21_nested_matrix(params, grid).s21)) < 1e-12

    @pytest.mark.parametrize("convention", ["resonance", "mixed"])
    def test_degenerate_eigenvalues_take_the_fallback(self, monkeypatch, waveguide, convention):
        # three identical point emitters one wavelength apart: H = a + c*(1 1^T - 1)
        # has a doubly degenerate eigenvalue a - c
        f_res = 4.35e9
        step = SPEED / f_res
        t = Topology(tuple(Emitter(f"e{j}", f_res, 1e6, (5e5,), (j * step,)) for j in range(3)))
        grid = grid_around(f_res, 10e6)
        solves = []
        solve = mp._solve
        monkeypatch.setattr(mp, "_solve", lambda *a: solves.append(1) or solve(*a))
        res = s_matrix(t, waveguide, grid, convention=convention)
        assert solves == [1]
        assert res.path == "solve"
        assert 0.0 <= res.min_pairing <= 1.0
        s21, refl, _ = reference_s_matrix(t, grid, convention)
        assert np.max(np.abs(res.transmission.s21 - s21)) < 1e-12
        assert np.max(np.abs(res.reflection - refl)) < 1e-12


class TestFrequencyBlocks:
    """f - H is assembled and solved in blocks of at most _BLOCK_BYTES."""

    @pytest.mark.filterwarnings("ignore::gsesim.multipoint.MarkovWarning")
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_outputs_do_not_depend_on_the_blocking(self, monkeypatch, waveguide, convention):
        t = interleaved(np.random.default_rng(5), 5, 3)
        grid = FrequencyGrid(4.3e9, 4.4e9, 201)
        per_frequency = 16 * 5 * 5
        with monkeypatch.context() as m:
            if convention != "probe":
                m.setattr(mp, "_MIN_PAIRING", np.inf)
            default = passive_checked_s_matrix(t, waveguide, grid, convention=convention)
            assert default.path == "solve"
            assert (default.min_pairing is None) == (convention == "probe")
            # one frequency per block, then blocks of 7 with a last one of 5
            assert grid.n_points % 7 == 5
            for budget in (1, 7 * per_frequency):
                m.setattr(mp, "_BLOCK_BYTES", budget)
                blocked = passive_checked_s_matrix(t, waveguide, grid, convention=convention)
                assert np.array_equal(blocked.transmission.s21, default.transmission.s21)
                assert np.array_equal(blocked.reflection, default.reflection)

    @pytest.mark.filterwarnings("ignore::gsesim.multipoint.MarkovWarning")
    @pytest.mark.parametrize("convention", CONVENTIONS)
    def test_peak_memory_does_not_grow_with_the_grid(self, monkeypatch, waveguide, convention):
        # N = 32 x 4 on 2001 points: f - H on the whole grid alone is 33 MB,
        # and probe's sums over it another 16 MB
        t = interleaved(np.random.default_rng(6), 32, 4)
        grid = FrequencyGrid(4.3e9, 4.4e9, 2001)
        if convention != "probe":
            monkeypatch.setattr(mp, "_MIN_PAIRING", np.inf)
        tracemalloc.start()
        try:
            res = passive_checked_s_matrix(t, waveguide, grid, convention=convention)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.path == "solve"
        assert peak <= 10.5e6

    @pytest.mark.filterwarnings("ignore::gsesim.multipoint.MarkovWarning")
    def test_probe_peak_memory_does_not_grow_with_the_grid(self, waveguide):
        # each block forms its drives from its own exponentials: whole-grid
        # drives and their batched product took N = 32 x 4 on 20 001 points to
        # a 22 MB peak. 'resonance' and 'mixed' get no long-grid case: their
        # pole residues hold nf x N arrays by design
        t = interleaved(np.random.default_rng(6), 32, 4)
        grid = FrequencyGrid(4.3e9, 4.4e9, 20001)
        tracemalloc.start()
        try:
            passive_checked_s_matrix(t, waveguide, grid, convention="probe")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

    def test_eliminated_probe_blocks_count_every_row(self, waveguide):
        # up to _MAX_ELIMINATION_N a block holds the phasor rows, their
        # guide-order copy and the prefix sums besides f - H; sized by f - H
        # alone, N = 2 x 4 on 100 001 points peaked at 30.7 MiB
        t = interleaved(np.random.default_rng(6), 2, 4)
        grid = FrequencyGrid(4.3e9, 4.4e9, 100001)
        tracemalloc.start()
        try:
            passive_checked_s_matrix(t, waveguide, grid, convention="probe")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    @pytest.mark.parametrize("convention, bound_mib", [("resonance", 5.2), ("mixed", 7.5)])
    def test_pole_residue_peak_memory(self, waveguide, convention, bound_mib):
        # N = 32 x 4 on 2001 points: each (N, nf) array of the expansion is
        # about 1 MiB, so every extra temporary shows
        t = interleaved(np.random.default_rng(6), 32, 4)
        grid = FrequencyGrid(4.3e9, 4.4e9, 2001)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PassivityWarning)
                res = s_matrix(t, waveguide, grid, convention=convention)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.path == "pole-residues"
        assert peak <= bound_mib * 2**20

    @pytest.mark.filterwarnings("ignore::gsesim.multipoint.MarkovWarning")
    @pytest.mark.parametrize("convention", CONVENTIONS)
    @pytest.mark.parametrize("n", range(1, mp._MAX_ELIMINATION_N + 1))
    def test_eliminated_outputs_do_not_depend_on_the_blocking(self, monkeypatch, waveguide, convention, n):
        # the same check at the N that _eliminate solves: a complex product
        # with a broadcast operand changes its bits at one-frequency blocks.
        # Blocks here also count the prefix sums and the rows of the drives
        # and points, so the budgets give blocks of 1 to 16 frequencies
        t = interleaved(np.random.default_rng(5), n, 3)
        grid = FrequencyGrid(4.3e9, 4.4e9, 201)
        monkeypatch.setattr(mp, "_MIN_PAIRING", np.inf)
        default = passive_checked_s_matrix(t, waveguide, grid, convention=convention)
        for budget in (1, 7 * 16 * n * n, 40 * 16 * n * n):
            monkeypatch.setattr(mp, "_BLOCK_BYTES", budget)
            blocked = passive_checked_s_matrix(t, waveguide, grid, convention=convention)
            assert np.array_equal(blocked.transmission.s21, default.transmission.s21)
            assert np.array_equal(blocked.reflection, default.reflection)


def random_batch(seed, nb, n, scale=1.0):
    """(a, u): nb complex n x n matrices and drives, entries of modulus about scale."""
    rng = np.random.default_rng(seed)
    a = scale * (rng.normal(size=(nb, n, n)) + 1j * rng.normal(size=(nb, n, n)))
    u = scale * (rng.normal(size=(nb, n)) + 1j * rng.normal(size=(nb, n)))
    return a, u


def solve_batch(a, u):
    """mp._solve on the fixed batch a with drives u, one frequency per row."""
    def resolvent(sl, buf):
        buf[...] = a[sl].transpose(1, 2, 0)
        return u[sl].T

    return mp._solve(resolvent, *u.shape, mp._block_rows(*u.shape))


def eliminate(a, w):
    """mp._eliminate on a batch a (nb, N, N) with w (nb, N), each entry copied
    into one row; returns the solutions (nb, N) and the rows of w it was given."""
    rows = w.T.copy()
    return mp._eliminate(a.transpose(1, 2, 0).copy(), rows).T, rows


batches = dict(seed=st.integers(0, 2**32 - 1), nb=st.integers(1, 24), n=st.integers(1, mp._MAX_ELIMINATION_N))


class TestElimination:
    """_eliminate: partial pivoting along the frequency axis, against LAPACK."""

    @given(**batches, zero_lead=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_lapack(self, seed, nb, n, zero_lead):
        a, u = random_batch(seed, nb, n)
        if zero_lead and n > 1:
            a[::2, 0, 0] = 0.0  # pivoting must act at these frequencies
        w = np.conj(u)
        x, rows = eliminate(a, w)
        assert np.array_equal(rows, w.T)  # _scattering reads w after the elimination
        ref = np.linalg.solve(a, w[..., None])[..., 0]
        cond = np.linalg.cond(a)
        err = np.linalg.norm(x - ref, axis=1)
        assert np.all(err <= 64 * n * np.finfo(float).eps * cond * np.linalg.norm(ref, axis=1))

    @given(**batches, cuts=st.lists(st.integers(1, 23), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_splits_give_the_same_bits(self, seed, nb, n, cuts):
        a, u = random_batch(seed, nb, n)
        a[1::3, 0, 0] = 0.0
        w = np.conj(u)
        edges = [0, *sorted({c for c in cuts if c < nb}), nb]
        parts = [eliminate(a[i:j], w[i:j])[0] for i, j in zip(edges, edges[1:])]
        assert np.array_equal(np.concatenate(parts), eliminate(a, w)[0])

    @given(**batches, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_singular_frequency_raises(self, seed, nb, n, data):
        a, u = random_batch(seed, nb, n)
        f = data.draw(st.integers(0, nb - 1))
        a[f, :, data.draw(st.integers(0, n - 1))] = 0.0  # a zero column: exactly singular
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="singular resolvent"):
                solve_batch(a, u)

    @given(**batches, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_extreme_entries_are_finite_or_model_error(self, seed, nb, n, data):
        values = [0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -1.0]
        pick = data.draw(st.lists(st.sampled_from(values), min_size=2, max_size=2))
        a, u = random_batch(seed, nb, n)
        rng = np.random.default_rng(seed)
        # a random share of the entries is replaced by the drawn extremes
        mask = rng.random(a.shape) < 0.5
        a[mask] = pick[0] + 1j * pick[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                s21, refl = solve_batch(a, u)
            except ModelError:
                return
        assert np.all(np.isfinite(s21)) and np.all(np.isfinite(refl))


def direct_factors(grid, d, weights, speed):
    """mp._phase_factors with one exponential per frequency and distance:
    the whole grid as weighted coarse factors and one fine column of ones."""
    coarse = np.exp(-1j * (mp.TWO_PI * (d[:, None] * grid.frequencies) / speed)) * weights[:, None]
    return coarse, np.ones((d.size, 1), dtype=complex)


def probe_reference(t, f, dps=30):
    """(S21, reflection) under 'probe' at one frequency, from pair sums at dps digits."""
    n = len(t.emitters)
    with mpmath.workdps(dps):
        x = [mpmath.mpf(p) for e in t.emitters for p in e.positions]
        root = [mpmath.sqrt(k) for e in t.emitters for k in e.kappa_points]
        owner = [j for j, e in enumerate(t.emitters) for _ in e.positions]
        k = 2 * mpmath.pi * mpmath.mpf(f) / SPEED
        a = [[mpmath.mpc(0)] * n for _ in range(n)]  # f - H
        for j, e in enumerate(t.emitters):
            a[j][j] = f - mpmath.mpf(e.f_res) + 1j * e.beta
        u = [0] * n
        for p in range(len(x)):
            u[owner[p]] += root[p] * mpmath.expj(-k * x[p])
            for q in range(p, len(x)):
                # J - i*Gamma = sum sqrt(kappa_p*kappa_q) * (sin/2 - i*cos)
                z = mpmath.expj(k * abs(x[p] - x[q]))
                h = root[p] * root[q] * (z.imag / 2 - 1j * z.real)
                a[owner[p]][owner[q]] -= h
                if q != p:
                    a[owner[q]][owner[p]] -= h
        w = [mpmath.conj(uj) for uj in u]
        g = mpmath.lu_solve(mpmath.matrix(a), mpmath.matrix(w))
        return (complex(1 - 1j * sum(uj * gj for uj, gj in zip(u, g))),
                complex(-1j * sum(wj * gj for wj, gj in zip(w, g))))


class TestGridPhasors:
    """weights*exp(-i*k*d) on a uniform grid from a coarse and a fine table,
    one row along the frequencies per distance."""

    @pytest.mark.parametrize("nf", [2, 3, 7, 211, 2001])
    def test_as_accurate_as_one_exponential_per_frequency(self, nf):
        # distances measured from a first point 40 m out, phases up to 250 rad;
        # weights of order one, so the bounds stay absolute
        grid = FrequencyGrid(4.3e9, 4.4e9, nf)
        x0 = 40.0 + math.pi / 100
        d = (x0 + np.array([0.0, 1e-3, 0.0371, 0.1, 0.2183, 0.295])) - x0
        weights = np.array([1.0, 0.5, 0.731, 1.25, 0.9, 1.5])
        with mpmath.workdps(40):
            df = (mpmath.mpf(grid.f_stop) - grid.f_start) / (nf - 1)
            ref = np.array([
                [complex(wj * mpmath.expj(-2 * mpmath.pi * (grid.f_start + m * df) * dj / SPEED)) for m in range(nf)]
                for dj, wj in zip(d, weights)
            ])
        table = mp._phasors(*mp._phase_factors(grid, d, weights, SPEED), 0, nf)
        assert table.shape == (d.size, nf)
        direct = np.max(np.abs(direct_factors(grid, d, weights, SPEED)[0] - ref))
        # the products with the fine factor and the weight round once more
        # each, by about 2e-16 of the weight
        assert np.max(np.abs(table - ref)) <= direct + 1e-15
        assert direct < 1e-13

    def test_rows_do_not_depend_on_the_blocking(self):
        grid = FrequencyGrid(4.3e9, 4.4e9, 2001)
        factors = mp._phase_factors(grid, np.linspace(0.0, 0.3, 9), np.linspace(0.5, 1.5, 9), SPEED)
        whole = mp._phasors(*factors, 0, 2001)
        assert whole.shape == (9, 2001)
        for start, stop in ((0, 1), (5, 9), (43, 46), (256, 512), (1999, 2001)):
            block = mp._phasors(*factors, start, stop)
            assert block.strides[1] == block.itemsize  # each row contiguous along the frequencies
            assert np.array_equal(block, whole[:, start:stop])

    def test_lossless_n32_probe_against_30_digit_reference(self, monkeypatch, waveguide):
        # the factored phasors move the outputs by up to about 1e-12 from one
        # exponential per frequency; at the two frequencies where they move
        # most, both are checked against the 30-digit pair sums. The direct
        # variant takes its drives and its a_p from one exponential each.
        t = interleaved(np.random.default_rng(6), 32, 4, lossless=True)
        grid = FrequencyGrid(4.3e9, 4.4e9, 2001)
        tables = s_matrix(t, waveguide, grid, convention="probe")
        monkeypatch.setattr(mp, "_phase_factors", direct_factors)
        direct = s_matrix(t, waveguide, grid, convention="probe")
        moved = (np.abs(tables.transmission.s21 - direct.transmission.s21)
                 + np.abs(tables.reflection - direct.reflection))
        for m in np.argsort(moved)[-2:]:
            s21, refl = probe_reference(t, grid.frequencies[m])
            for res in (tables, direct):
                assert abs(res.transmission.s21[m] - s21) < 1e-12
                assert abs(res.reflection[m] - refl) < 1e-12


def unequal_layout(rng, sizes=(3, 1, 8, 2, 1, 3), x0=40.0):
    """Emitters with the given numbers of points, interleaved within 0.3 m of x0."""
    positions = x0 + np.sort(rng.uniform(0.0, 0.3, sum(sizes)))
    owner = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    return Topology(tuple(
        Emitter(f"e{j}", rng.uniform(4.33e9, 4.37e9), rng.uniform(3e5, 1.5e6),
                tuple(rng.uniform(1e5, 6e5, m)), tuple(positions[owner == j]))
        for j, m in enumerate(sizes)
    ))


def grid_drives(t, grid):
    """mp._grid_drives of a topology from its first coupling point, shape (N, nf)."""
    pts = mp._Points.of(t)
    factors = mp._phase_factors(grid, pts.x - pts.x.min(), np.sqrt(pts.kappa), SPEED)
    return mp._grid_drives(pts, *factors, grid.n_points)


def long_double_drives(emitters, grid):
    """sum_p sqrt(kappa_p)*exp(-i*2*pi*f_m*x_p/v) on the grid in long double, shape (nf, N)."""
    two_pi = 8 * np.arctan(np.longdouble(1))
    nf = grid.n_points
    f = np.longdouble(grid.f_start) + np.arange(nf) * ((np.longdouble(grid.f_stop) - grid.f_start) / (nf - 1))
    return np.stack([
        np.sum(np.sqrt(np.array(e.kappa_points, dtype=np.longdouble))
               * np.exp(-1j * (two_pi * np.multiply.outer(f, np.array(e.positions, dtype=np.longdouble)) / SPEED)),
               axis=-1)
        for e in emitters
    ], axis=-1)


LAYOUTS = {
    "unequal": lambda: unequal_layout(np.random.default_rng(3)),
    "lone": lambda: unequal_layout(np.random.default_rng(4), sizes=(5,)),
    "64x8": lambda: interleaved(np.random.default_rng(7), 64, 8),
}


class TestGridDrives:
    """Drives on the grid as one batched product per point count."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
    @pytest.mark.parametrize("nf", [2, 3, 7, 211, 2001])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_as_accurate_as_one_exponential_per_entry(self, layout, nf):
        # every entry against sums in long double, whose phases of up to
        # 250 rad err by about 1e-16 rad, a thousandth of a double's
        t = LAYOUTS[layout]()
        grid = FrequencyGrid(4.3e9, 4.4e9, nf)
        x0 = min(min(e.positions) for e in t.emitters)
        shifted = [replace(e, positions=tuple(x - x0 for x in e.positions)) for e in t.emitters]
        ref = long_double_drives(shifted, grid)
        direct = np.stack([drive_vector(e, grid.frequencies, SPEED) for e in shifted], axis=-1)
        scale = max(sum(math.sqrt(k) for k in e.kappa_points) for e in t.emitters)
        u = grid_drives(t, grid)
        assert u.shape == (len(t.emitters), nf)
        err = np.max(np.abs(u.T - ref))
        assert err <= np.max(np.abs(direct - ref)) + 1e-15 * scale
        assert err < 1e-13 * scale

    @pytest.mark.parametrize("convention", ["mixed", "probe"])
    def test_relabelled_emitters_permute_the_drives(self, waveguide, convention):
        t = unequal_layout(np.random.default_rng(8))
        perm = [4, 2, 0, 5, 3, 1]
        relabelled = Topology(tuple(t.emitters[j] for j in perm))
        grid = FrequencyGrid(4.3e9, 4.4e9, 211)
        u, u_relabelled = grid_drives(t, grid), grid_drives(relabelled, grid)
        assert np.max(np.abs(u_relabelled - u[perm])) <= 1e-15 * np.max(np.abs(u))
        a = passive_checked_s_matrix(t, waveguide, grid, convention=convention)
        b = passive_checked_s_matrix(relabelled, waveguide, grid, convention=convention)
        assert np.max(np.abs(a.transmission.s21 - b.transmission.s21)) < 1e-13
        assert np.max(np.abs(a.reflection - b.reflection)) < 1e-13


class TestPassivityWarning:
    """'resonance' and 'mixed' warn when a lossy layout is not passive."""

    @pytest.mark.parametrize("convention", ["resonance", "mixed"])
    def test_gain_warns_once(self, waveguide, convention):
        t = interleaved(np.random.default_rng(2), 8, 4)
        grid = FrequencyGrid(4.3e9, 4.4e9, 201)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(2):
                res = s_matrix(t, waveguide, grid, convention=convention)
        assert np.max(np.abs(res.transmission.s21) ** 2 + np.abs(res.reflection) ** 2) > 1.0 + 1e-10
        # one constant message: the registry drops the repeat from this line
        assert [w.category for w in caught] == [PassivityWarning]

    @pytest.mark.parametrize("seed, convention", [(2, "probe"), (5, "resonance")])
    def test_passive_layouts_do_not_warn(self, waveguide, seed, convention):
        t = interleaved(np.random.default_rng(seed), 8, 4)
        grid = FrequencyGrid(4.3e9, 4.4e9, 201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = s_matrix(t, waveguide, grid, convention=convention)
        assert np.max(np.abs(res.transmission.s21) ** 2 + np.abs(res.reflection) ** 2) <= 1.0


class TestDriveVector:
    def test_single_point_magnitude(self):
        em = Emitter("e", 4.35e9, 0.0, (9e5,), (0.05,))
        u = drive_vector(em, 4.35e9, SPEED)
        assert abs(u) == pytest.approx(math.sqrt(9e5), rel=1e-12)

    def test_two_point_interference(self):
        # |u|^2 equals the giant decay rate at the same frequency
        em = Emitter("e", 4.35e9, 0.0, (KAPPA_INNER,) * 2, (0.0, L_INNER))
        p = SingleGseParams(KAPPA_INNER, 0.0, L_INNER, 4.35e9, Waveguide(SPEED))
        u = drive_vector(em, 4.35e9, SPEED)
        assert abs(u) ** 2 == pytest.approx(giant_decay(p), rel=1e-12)

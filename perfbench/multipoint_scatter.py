"""multipoint-scatter: in-process `s_matrix` calls on seeded N-emitter topologies.

One pass is a fixed list of tasks: braided/general layouts with M = 4
points per emitter (three at N = 2, four at N = 8, two at N = 32) under all
three conventions on 2001-point grids, plus `build_effective` for each;
lossless copies of the first N = 2, 8 and 32 layouts; a one-emitter case;
a nested pair near its exceptional point; and one probe-convention case
at N = 64 with M = 8 on 501 points. The layout counts place the median
task in the middle of the N = 8 `resonance` group and the tail percentile
in the middle of the three N = 32 probe tasks, so neither statistic
straddles two kinds of task. Each task's output is
checked against the repo's independent oracles.
"""

from __future__ import annotations

import math

import numpy as np

import gsesim.core as core
import gsesim.multipoint as mp
from gsesim.nested import NestedParams, complex_frequencies, coupling_strengths, s21_nested_matrix
from gsesim.single import SingleGseParams, s21_single

SPEED = 3.26e7
F_LO, F_HI = 4.30e9, 4.40e9
NF = 2001
NF_LARGE = 501
LAYOUT_SPAN_M = 0.3
UNITARY_TOL = 1e-10
ORACLE_TOL = 1e-10


def _layout(rng, n, m, lossless=False):
    """n emitters with m points each, their positions interleaved at random."""
    positions = np.sort(rng.uniform(0.0, LAYOUT_SPAN_M, n * m))
    owner = rng.permutation(n * m).reshape(n, m)
    emitters = []
    for j in range(n):
        beta = 0.0 if lossless else rng.uniform(0.3e6, 1.5e6)
        emitters.append(core.Emitter(
            f"e{j}", rng.uniform(4.33e9, 4.37e9), beta,
            tuple(rng.uniform(1e5, 6e5, m)), tuple(positions[np.sort(owner[j])]),
        ))
    return core.Topology(tuple(emitters))


def _lossless_copy(topology):
    return core.Topology(tuple(
        core.Emitter(e.name, e.f_res, 0.0, e.kappa_points, e.positions) for e in topology.emitters
    ))


def _near_exceptional_point(rng, waveguide):
    """Symmetric nested pair tuned so its 2x2 mixed-convention model is defective.

    With H = [[A, c], [c, D]] (outer first, c = J - iG) the eigenvalues
    coalesce when A - D = 2ic; the outer resonance and the inner intrinsic
    rate are solved for that. The loop re-evaluates the phases because c
    depends on the pair's mean resonance; the large outer intrinsic rate
    keeps the solved inner rate positive.
    """
    k_i, k_o = rng.uniform(0.6e6, 0.9e6, 2)
    l_i = rng.uniform(0.07, 0.09)
    l_o = 2.0 * l_i + rng.uniform(-0.01, 0.01)
    f_i = rng.uniform(4.33e9, 4.37e9)
    beta_o = rng.uniform(3.7e6, 4.5e6)
    f_o, beta_i = f_i, beta_o
    for _ in range(8):
        params = NestedParams.from_geometry(
            SingleGseParams(k_i, beta_i, l_i, f_i, waveguide),
            SingleGseParams(k_o, beta_o, l_o, f_o, waveguide),
        )
        j, gamma = coupling_strengths(params)
        d, a = complex_frequencies(params, lamb_sign=-1)
        delta = d + 2j * math.copysign(1.0, j) * (j - 1j * gamma) - a
        f_o += delta.real
        beta_i += delta.imag
    params = NestedParams.from_geometry(
        SingleGseParams(k_i, beta_i, l_i, f_i, waveguide),
        SingleGseParams(k_o, beta_o, l_o, f_o, waveguide),
    )
    gap = 0.5 * (l_o - l_i)
    topology = core.Topology((
        core.Emitter("outer", f_o, beta_o, (k_o, k_o), (0.0, l_o)),
        core.Emitter("inner", f_i, beta_i, (k_i, k_i), (gap, gap + l_i)),
    ))
    return topology, params


def setup(seed, workdir):
    """Seeded topologies and grids; returns the pass as (name, points, run, check, fits) tasks."""
    rng = np.random.default_rng([seed, 2])
    wg = core.Waveguide(SPEED)
    grid = core.FrequencyGrid(F_LO, F_HI, NF)
    large_grid = core.FrequencyGrid(F_LO, F_HI, NF_LARGE)
    tasks = []

    def s_matrix_task(name, topology, g, convention, check):
        def run():
            return mp.s_matrix(topology, wg, g, convention=convention)
        tasks.append((name, g.n_points, run, check, None))

    layouts = {f"n{n}_{k}": _layout(rng, n, 4) for n, copies in ((2, 3), (8, 4), (32, 2)) for k in range(copies)}
    for name, topology in layouts.items():
        tasks.append((f"build_effective_{name}", 0,
                      lambda t=topology: mp.build_effective(t, wg), check_effective, None))
        for convention in ("resonance", "mixed"):
            s_matrix_task(f"{convention}_{name}", topology, grid, convention, check_finite)
        s_matrix_task(f"probe_{name}", topology, grid, "probe", check_passive)
    for name in ("n2_0", "n8_0", "n32_0"):
        s_matrix_task(f"probe_lossless_{name}", _lossless_copy(layouts[name]), grid, "probe", check_unitary)

    kappa, length = rng.uniform(0.5e6, 0.9e6), rng.uniform(0.07, 0.09)
    single = SingleGseParams(kappa, rng.uniform(1e6, 2e6), length, rng.uniform(4.33e9, 4.37e9), wg)
    one = core.Topology((core.Emitter("one", single.f_res, single.beta, (kappa, kappa), (0.0, length)),))
    single_ref = s21_single(single, grid).s21
    s_matrix_task("resonance_n1", one, grid, "resonance",
                  lambda r: check_oracle(r, single_ref, "s21_single"))

    ep_topology, ep_params = _near_exceptional_point(rng, wg)
    nested_ref = s21_nested_matrix(ep_params, grid).s21
    s_matrix_task("mixed_nested_ep", ep_topology, grid, "mixed",
                  lambda r: check_oracle(r, nested_ref, "s21_nested_matrix"))

    s_matrix_task("probe_n64_m8", _layout(rng, 64, 8), large_grid, "probe", check_passive)
    return tasks


def _finite(result):
    s21, refl = result.transmission.s21, result.reflection
    if not (np.all(np.isfinite(s21)) and np.all(np.isfinite(refl))):
        return ["non-finite S-matrix entries"]
    return []


def check_finite(result):
    return _finite(result)


def check_effective(model):
    if not np.all(np.isfinite(model.hamiltonian)) or not np.all(np.isfinite(model.drive)):
        return ["non-finite effective model"]
    return []


def _power(result):
    return np.abs(result.transmission.s21) ** 2 + np.abs(result.reflection) ** 2


def check_passive(result):
    """With loss, |S21|^2 + |S11|^2 <= 1 at every frequency."""
    bad = _finite(result)
    if bad:
        return bad
    worst = float(np.max(_power(result)))
    return [] if worst <= 1.0 + UNITARY_TOL else [f"passivity violated: max |S21|^2+|S11|^2 = {worst!r}"]


def check_unitary(result):
    """Lossless probe convention: |S21|^2 + |S11|^2 = 1 within 1e-10."""
    bad = _finite(result)
    if bad:
        return bad
    worst = float(np.max(np.abs(_power(result) - 1.0)))
    return [] if worst <= UNITARY_TOL else [f"unitarity violated by {worst:.3e}"]


def check_oracle(result, reference, oracle):
    bad = _finite(result)
    if bad:
        return bad
    worst = float(np.max(np.abs(result.transmission.s21 - reference)))
    return [] if worst <= ORACLE_TOL else [f"differs from {oracle} by {worst:.3e}"]


def fingerprint(result):
    """Bytes that must repeat exactly from pass to pass."""
    if isinstance(result, mp.EffectiveModel):
        return result.hamiltonian.tobytes() + result.drive.tobytes()
    return result.transmission.s21.tobytes() + result.reflection.tobytes()


def exceptional_point_gap(params):
    """|lambda_1 - lambda_2| / |J - iG| of the nested pair's mixed model."""
    j, gamma = coupling_strengths(params)
    inner, outer = complex_frequencies(params, lamb_sign=-1)
    c = j - 1j * gamma
    return abs(2.0 * np.sqrt(((outer - inner) / 2.0) ** 2 + c * c)) / abs(c)

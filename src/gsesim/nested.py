"""Two nested giant spin ensembles: waveguide-mediated coupling and spectra.

The outer ensemble's coupling points act as the mirrors of an effective
cavity around the inner one. The waveguide mediates an effective coupling
J - i*Gamma between the two magnon modes, with

    Gamma = sqrt(kappa_o*kappa_i) * [cos(p1) + cos(p3) + cos(p1+p2) + cos(p2+p3)]
    J     = sqrt(kappa_o*kappa_i)/2 * [sin(p1) + sin(p3) + sin(p1+p2) + sin(p2+p3)]

for the three inter-point propagation phases p1, p2, p3.

Sign convention note: the one-emitter closed form (single.py) places the
shifted resonance at f_res + kappa*sin(phi), while the matrix transmission
here uses diagonal complex frequencies with the shift printed as
f_res - kappa*sin(phi). Both are kept as published; `lamb_sign` switches
the matrix diagonals to the single-GSE convention when consistency across
modules is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import ModelError, Spectrum, TWO_PI, _require_finite, phase
from .single import SingleGseParams


@dataclass(frozen=True)
class NestedParams:
    """Symmetric nested layout of two two-point ensembles.

    phi1/phi2/phi3: propagation phases outer-left -> inner-left, inner
    span, inner-right -> outer-right, in radians. For a device built from
    lengths these satisfy phi1 == phi3 = pi*f_ref*(L_o - L_i)/v.
    """

    inner: SingleGseParams
    outer: SingleGseParams
    phi1: float
    phi2: float
    phi3: float

    def __post_init__(self):
        if not (min(self.phi1, self.phi2, self.phi3) >= 0 and math.isfinite(self.phi1 + self.phi2 + self.phi3)):
            raise ModelError("propagation phases must be >= 0 and have a finite sum")
        if self.outer.length <= self.inner.length:
            raise ModelError("nesting requires L_o > L_i")
        if self.inner.waveguide != self.outer.waveguide:
            raise ModelError("inner and outer must share one waveguide")

    @property
    def waveguide(self):
        return self.inner.waveguide

    @classmethod
    def from_geometry(cls, inner, outer):
        """Build phases from the two lengths at the mean of the two resonances.

        At degeneracy this is the published convention; phi1 == phi3 holds
        exactly.
        """
        f_ref = 0.5 * (inner.f_res + outer.f_res)
        wg = inner.waveguide
        gap = 0.5 * (outer.length - inner.length)
        phi1 = phase(f_ref, gap, wg)
        phi2 = phase(f_ref, inner.length, wg)
        return cls(inner, outer, phi1, phi2, phi1)


def coupling_strengths(p):
    """Effective coupling (J, Gamma) between the two ensembles, in Hz."""
    root = math.sqrt(p.outer.kappa * p.inner.kappa)
    p1, p2, p3 = p.phi1, p.phi2, p.phi3
    gamma = root * (
        math.cos(p1) + math.cos(p3) + math.cos(p1 + p2) + math.cos(p2 + p3)
    )
    j = 0.5 * root * (
        math.sin(p1) + math.sin(p3) + math.sin(p1 + p2) + math.sin(p2 + p3)
    )
    return j, gamma


def complex_frequencies(p, lamb_sign=-1):
    """Diagonal complex frequencies of the two ensembles, (inner, outer).

    As published the shift enters as f_res - kappa*sin(phi) (lamb_sign=-1);
    lamb_sign=+1 selects the single-GSE convention f_res + kappa*sin(phi).
    """
    return tuple(gse.f_res + _self_energy(gse, gse.phi(), lamb_sign) for gse in (p.inner, p.outer))


def _self_energy(gse, phi, lamb_sign):
    """Diagonal self-energy relative to f_res: shift - i*(kappa_G + beta)."""
    return (
        lamb_sign * gse.kappa * np.sin(phi)
        - 1j * (2.0 * gse.kappa * (1.0 + np.cos(phi)) + gse.beta)
    )


# a rate that overflows the model, or a singular resolvent, leaves non-finite values, which the
# function rejects
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def s21_nested_matrix(p, grid, lamb_sign=-1, phase_ref="resonance"):
    """Matrix transmission of the nested pair on a frequency grid.

    Couples the 2x2 effective model through phase-dressed drive vectors
    evaluated at the probe frequency, with diagonal complex frequencies
    evaluated at each emitter's own resonance (as published; this mixed
    convention is what `phase_ref='resonance'` selects). With
    phase_ref='probe' the diagonals and the coupling are re-evaluated at
    each probe frequency, making the model fully self-consistent.
    A singular resolvent, an overflowing model or a non-finite result on
    the grid raises ModelError.
    """
    if phase_ref not in ("resonance", "probe"):
        raise ModelError(f"phase_ref must be 'resonance' or 'probe', got {phase_ref!r}")
    f = grid.frequencies
    v = p.waveguide.speed
    l_i, l_o = p.inner.length, p.outer.length
    k_i, k_o = p.inner.kappa, p.outer.kappa

    w = TWO_PI * f / v  # radians per meter at probe frequency
    u_o = math.sqrt(k_o) * (1.0 + np.exp(-1j * w * l_o))
    u_i = math.sqrt(k_i) * (
        np.exp(-1j * w * (l_o - l_i) / 2.0) + np.exp(-1j * w * (l_o + l_i) / 2.0)
    )

    # work in detuning coordinates: f - f_res is computed before the small
    # shift/decay terms enter, so no precision is lost against the GHz scale
    if phase_ref == "resonance":
        j, gamma = coupling_strengths(p)
        self_i = _self_energy(p.inner, p.inner.phi(), lamb_sign)
        self_o = _self_energy(p.outer, p.outer.phi(), lamb_sign)
    else:
        # decay sums factor through the drive amplitudes (kappa_G = |u|^2,
        # Gamma = Re(u_o * conj(u_i))): reusing them keeps the dissipative
        # part exactly consistent with the drive, so the lossless model
        # stays unitary to machine precision
        self_i = lamb_sign * k_i * np.sin(w * l_i) - 1j * (np.abs(u_i) ** 2 + p.inner.beta)
        self_o = lamb_sign * k_o * np.sin(w * l_o) - 1j * (np.abs(u_o) ** 2 + p.outer.beta)
        p1 = w * (l_o - l_i) / 2.0
        p12 = w * (l_o + l_i) / 2.0
        root = math.sqrt(k_o * k_i)
        gamma = np.real(u_o * np.conj(u_i))
        j = root * (np.sin(p1) + np.sin(p12))
    off = 1j * gamma - j  # entry of (f*I - H_eff)

    a = (f - p.outer.f_res) - self_o
    d = (f - p.inner.f_res) - self_i
    det = a * d - off * off

    # S21 = 1 - i * u . (f*I - H)^-1 . conj(u), solved in closed 2x2 form
    w_o, w_i = np.conj(u_o), np.conj(u_i)
    num = u_o * (d * w_o - off * w_i) + u_i * (-off * w_o + a * w_i)
    if not (np.all(np.isfinite(det)) and np.all(np.isfinite(num))):
        raise ModelError("nested resolvent is not finite: a coupling rate is too large")
    s21 = 1.0 - 1j * num / det
    if not np.all(np.isfinite(s21)):
        raise ModelError("singular resolvent on the frequency grid")
    return Spectrum(grid, s21)


@dataclass(frozen=True)
class FitFormParams:
    """Eight-parameter two-mode transmission model (all values in Hz)."""

    f_i: float
    f_o: float
    kappa_i_g: float
    kappa_o_g: float
    beta_i: float
    beta_o: float
    j: float
    gamma: float

    def __post_init__(self):
        for f in fields(self):
            _require_finite(f.name, getattr(self, f.name))
        for name in ("kappa_i_g", "kappa_o_g", "beta_i", "beta_o"):
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be >= 0")

    def detuned(self, f_o):
        return replace(self, f_o=f_o)


def _fitform_terms(f, f_i, f_o, kappa_i_g, kappa_o_g, beta_i, beta_o, j, gamma):
    """(d_o, d_i, c, root, num, den) of the two-mode fit form S21 = 1 - num/den
    at frequencies f, with c = j - i*gamma and root = sqrt(kappa_i_g*kappa_o_g)."""
    d_o = f - f_o + 1j * (kappa_o_g + beta_o)
    d_i = f - f_i + 1j * (kappa_i_g + beta_i)
    c = j - 1j * gamma
    root = math.sqrt(kappa_i_g * kappa_o_g)
    num = 2j * root * c + 1j * kappa_i_g * d_o + 1j * kappa_o_g * d_i
    return d_o, d_i, c, root, num, d_o * d_i - c * c


def s21_fitform_values(q, f):
    """Complex two-mode fit-model transmission at probe frequencies f."""
    *_, num, den = _fitform_terms(np.asarray(f, dtype=float), **vars(q))
    return 1.0 - num / den


def s21_nested_fitform(q, grid):
    """Two-mode fit-model spectrum on a frequency grid."""
    return Spectrum(grid, s21_fitform_values(q, grid.frequencies))


def eigen_traces(q, f_o_sweep):
    """Complex eigenvalue branches of the 2x2 coupled-mode matrix, in closed form.

    Sweeps the outer resonance over f_o_sweep and returns (eigs, ep_flags)
    where eigs has shape (n, 2). With a = f_i - i(kappa_i_g + beta_i),
    b = f_o - i(kappa_o_g + beta_o), c = j - i*gamma, m = (a + b)/2 and
    w = (a - b)/2, column 1 is m + s and column 2 is m - s, where
    s = sqrt(w - ic) * sqrt(w + ic) with principal roots. Along a real f_o
    sweep Im(w +- ic) = -dK/2 +- j is constant, with
    dK = (kappa_i_g + beta_i) - (kappa_o_g + beta_o), so neither factor
    crosses its branch cut: the branches are continuous in f_o for any
    sweep order, with no tracking between points. The factor w +- ic
    vanishes only when dK = +-2j exactly, at f_o = f_i +- 2*gamma: that is
    an exceptional point. For each one inside [min, max] of the sweep,
    ep_flags marks the nearest sweep value at or below it and the nearest
    at or above it.
    """
    f_o = np.asarray(f_o_sweep, dtype=float).ravel()
    if f_o.size == 0:
        raise ModelError("eigen_traces needs a non-empty sweep")
    if not np.all(np.isfinite(f_o)):
        raise ModelError("f_o_sweep must be finite")
    a = q.f_i - 1j * (q.kappa_i_g + q.beta_i)
    b = f_o - 1j * (q.kappa_o_g + q.beta_o)
    c = q.j - 1j * q.gamma
    # halving first keeps a - b from overflowing at finite extremes; what
    # still overflows is caught by the check below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        m = a / 2 + b / 2
        w = a / 2 - b / 2
        plus, minus = w + 1j * c, w - 1j * c
        s = np.sqrt(minus) * np.sqrt(plus)
        eigs = np.stack((m + s, m - s), axis=1)
    if not np.all(np.isfinite(eigs)):
        raise ModelError("eigenvalues overflow: a rate or frequency is too large")

    flags = np.zeros(f_o.size, dtype=bool)
    for sign, factor in ((1, plus), (-1, minus)):
        f_ep = q.f_i + 2 * sign * q.gamma
        if factor[0].imag == 0 and f_o.min() <= f_ep <= f_o.max():
            flags |= (f_o == f_o[f_o <= f_ep].max()) | (f_o == f_o[f_o >= f_ep].min())
    return eigs, flags


def map_nested_vs_detuning(q, f_o_values, grid):
    """Detuning map: one fit-form spectrum column per outer frequency."""
    return [(f_o, s21_nested_fitform(q.detuned(f_o), grid)) for f_o in f_o_values]


def strong_coupling(kappa_i, kappa_o, kappa_i_g, beta_i, beta_o):
    """Strong-coupling predicate sqrt(kappa_o*kappa_i) > max(kappa_i_g+beta_i, beta_o)."""
    return math.sqrt(kappa_o * kappa_i) > max(kappa_i_g + beta_i, beta_o)

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
from dataclasses import dataclass

import numpy as np

from .core import ModelError, Spectrum, phase
from .single import SingleGseParams

TWO_PI = 2.0 * math.pi


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
        if min(self.phi1, self.phi2, self.phi3) < 0:
            raise ModelError("propagation phases must be >= 0")
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
        phi1 = phase(f_ref, gap, wg)[0]
        phi2 = phase(f_ref, inner.length, wg)[0]
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
    out = []
    for gse in (p.inner, p.outer):
        phi = gse.phi()
        shift = gse.kappa * math.sin(phi)
        kappa_g = 2.0 * gse.kappa * (1.0 + math.cos(phi))
        out.append(gse.f_res + lamb_sign * shift - 1j * (kappa_g + gse.beta))
    return tuple(out)


def _self_energy(gse, phi, lamb_sign):
    """Diagonal self-energy relative to f_res: shift - i*(kappa_G + beta)."""
    return (
        lamb_sign * gse.kappa * np.sin(phi)
        - 1j * (2.0 * gse.kappa * (1.0 + np.cos(phi)) + gse.beta)
    )


def s21_nested_matrix(p, grid, lamb_sign=-1, phase_ref="resonance"):
    """Matrix transmission of the nested pair on a frequency grid.

    Couples the 2x2 effective model through phase-dressed drive vectors
    evaluated at the probe frequency, with diagonal complex frequencies
    evaluated at each emitter's own resonance (as published; this mixed
    convention is what `phase_ref='resonance'` selects). With
    phase_ref='probe' the diagonals and the coupling are re-evaluated at
    each probe frequency, making the model fully self-consistent.
    A singular resolvent or a non-finite result on the grid raises
    ModelError.
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
    if np.any(det == 0):
        raise ModelError("singular resolvent on the frequency grid")

    # S21 = 1 - i * u . (f*I - H)^-1 . conj(u), solved in closed 2x2 form
    w_o, w_i = np.conj(u_o), np.conj(u_i)
    s21 = 1.0 - 1j * (
        u_o * (d * w_o - off * w_i) + u_i * (-off * w_o + a * w_i)
    ) / det
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
        for name in ("kappa_i_g", "kappa_o_g", "beta_i", "beta_o"):
            if getattr(self, name) < 0:
                raise ModelError(f"{name} must be >= 0")

    def detuned(self, f_o):
        return FitFormParams(
            self.f_i, f_o, self.kappa_i_g, self.kappa_o_g,
            self.beta_i, self.beta_o, self.j, self.gamma,
        )


def s21_fitform_values(q, f):
    """Complex two-mode fit-model transmission at probe frequencies f."""
    f = np.asarray(f, dtype=float)
    d_o = f - q.f_o + 1j * (q.kappa_o_g + q.beta_o)
    d_i = f - q.f_i + 1j * (q.kappa_i_g + q.beta_i)
    coupling = q.j - 1j * q.gamma
    num = (
        2j * math.sqrt(q.kappa_i_g * q.kappa_o_g) * coupling
        + 1j * q.kappa_i_g * d_o
        + 1j * q.kappa_o_g * d_i
    )
    den = d_o * d_i - (1j * q.gamma - q.j) ** 2
    return 1.0 - num / den


def s21_nested_fitform(q, grid):
    """Two-mode fit-model spectrum on a frequency grid."""
    return Spectrum(grid, s21_fitform_values(q, grid.frequencies))


def eigen_traces(q, f_o_sweep, ep_tol=None):
    """Complex eigenvalue branches of the 2x2 coupled-mode matrix.

    Sweeps the outer resonance over f_o_sweep and returns (eigs, ep_flags)
    where eigs has shape (n, 2). Branches are continued by maximal
    eigenvector overlap between adjacent sweep points, not by sorting, so
    they stay smooth through near-degeneracies. ep_flags marks sweep
    points where the eigenvalues are degenerate within ep_tol (default:
    1e-9 of the coupling scale).
    """
    f_o_sweep = np.asarray(f_o_sweep, dtype=float)
    if f_o_sweep.size == 0:
        raise ModelError("eigen_traces needs a non-empty sweep")
    coupling = q.j - 1j * q.gamma
    if ep_tol is None:
        ep_tol = 1e-9 * max(abs(coupling), 1.0)

    h = np.empty((f_o_sweep.size, 2, 2), dtype=complex)
    h[:, 0, 0] = q.f_i - 1j * (q.kappa_i_g + q.beta_i)
    h[:, 0, 1] = h[:, 1, 0] = coupling
    h[:, 1, 1] = f_o_sweep - 1j * (q.kappa_o_g + q.beta_o)
    vals, vecs = np.linalg.eig(h)

    # Each branch keeps to the eigenvector it overlaps most with at the
    # previous sweep point. Between adjacent raw eigenvector sets the
    # branches cross when the off-diagonal overlaps win; a swap carried
    # from the previous point flips that test, so the swap state is the
    # running parity of crossings. A tie keeps the raw order and restarts
    # the parity.
    overlap = np.abs(vecs[:-1].conj().transpose(0, 2, 1) @ vecs[1:])
    straight = overlap[:, 0, 0] + overlap[:, 1, 1]
    crossed = overlap[:, 0, 1] + overlap[:, 1, 0]
    cross = np.concatenate(([False], straight < crossed))
    tie = np.concatenate(([True], ~(straight < crossed) & ~(crossed < straight)))
    parity = np.cumsum(cross)
    restart = np.maximum.accumulate(np.where(tie, np.arange(tie.size), 0))
    swapped = (parity - parity[restart]) % 2 == 1

    eigs = np.where(swapped[:, None], vals[:, ::-1], vals)
    flags = np.abs(vals[:, 0] - vals[:, 1]) < ep_tol
    return eigs, flags


def map_nested_vs_detuning(q, f_o_values, grid):
    """Detuning map: one fit-form spectrum column per outer frequency."""
    return [(f_o, s21_nested_fitform(q.detuned(f_o), grid)) for f_o in f_o_values]


def strong_coupling(kappa_i, kappa_o, kappa_i_g, beta_i, beta_o):
    """Strong-coupling predicate sqrt(kappa_o*kappa_i) > max(kappa_i_g+beta_i, beta_o)."""
    return math.sqrt(kappa_o * kappa_i) > max(kappa_i_g + beta_i, beta_o)

"""Closed-form observables of a single two-point giant spin ensemble.

The interference between the two coupling points modulates the radiative
decay rate, kappa_G = 2*kappa*(1 + cos(phi)), and shifts the resonance by
kappa*sin(phi). The transmission follows the one-pole form

    S21 = 1 + kappa_G / (i*(f - f_res - kappa*sin(phi)) - kappa_G - beta)

with phi the propagation phase across the ensemble. By default phi is
evaluated at the emitter resonance (the convention under which the device
parameters were fitted); `self_consistent_phase=True` re-evaluates phi at
each probe frequency instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (TWO_PI, ModelError, Spectrum, Waveguide, _finite_phase, _require_finite,
                   field_to_frequency, phase)


@dataclass(frozen=True)
class SingleGseParams:
    """Two-point ensemble with equal per-point radiative rates.

    kappa:  per-point radiative rate, Hz
    beta:   intrinsic non-radiative rate, Hz
    length: separation of the two coupling points, m
    f_res:  magnon resonance frequency, Hz
    """

    kappa: float
    beta: float
    length: float
    f_res: float
    waveguide: Waveguide

    def __post_init__(self):
        _require_finite("single-GSE parameters", self.kappa, self.beta, self.length, self.f_res)
        if self.kappa < 0:
            raise ModelError("kappa must be >= 0")
        if self.beta < 0:
            raise ModelError("beta must be >= 0")
        if self.length <= 0:
            raise ModelError("length must be > 0")
        if self.f_res <= 0:
            raise ModelError("f_res must be > 0")

    def phi(self, at_f=None):
        """Unreduced propagation phase across the ensemble."""
        f = self.f_res if at_f is None else at_f
        return phase(f, self.length, self.waveguide)


def giant_decay(p, at_f=None):
    """Radiative decay rate kappa_G = 2*kappa*(1 + cos(phi)) in Hz.

    Bounded by [0, 4*kappa]; vanishes when phi is an odd multiple of pi
    (destructive interference between the two coupling points).
    """
    return 2.0 * p.kappa * (1.0 + math.cos(p.phi(at_f)))


def lamb_shift(p, at_f=None):
    """Interference-induced resonance shift kappa*sin(phi) in Hz (signed).

    The shifted resonance sits at f_res + lamb_shift, tied to giant_decay
    by the circle identity (kappa_G/(2*kappa) - 1)^2 + (shift/kappa)^2 = 1.
    """
    return p.kappa * math.sin(p.phi(at_f))


def s21_values(p, f, self_consistent_phase=False):
    """Complex S21 at probe frequencies f (array-valued)."""
    f = np.asarray(f, dtype=float)
    # a rate that overflows the lineshape leaves non-finite values, which Spectrum rejects
    with np.errstate(over="ignore", invalid="ignore"):
        if self_consistent_phase:
            phi = _finite_phase(TWO_PI * f * p.length / p.waveguide.speed)
        else:
            phi = p.phi()
        kappa_g = 2.0 * p.kappa * (1.0 + np.cos(phi))
        shift = p.kappa * np.sin(phi)
        denom = 1j * (f - p.f_res - shift) - kappa_g - p.beta
        # denom = 0 only where kappa_G + beta = 0 at an on-resonance probe point: unit transmission
        return 1.0 + np.divide(kappa_g, denom, out=np.zeros_like(denom), where=denom != 0)


def s21_single(p, grid, self_consistent_phase=False):
    """Transmission spectrum of a single GSE on a frequency grid."""
    return Spectrum(grid, s21_values(p, grid.frequencies, self_consistent_phase))


def map_single_vs_field(p, fields, H_A, grid):
    """Bias-field transmission map: one spectrum column per field value.

    Each field sets f_res through the Kittel relation; returns a list of
    (field_tesla, Spectrum) pairs in input order.
    """
    return [(b, s21_single(replace(p, f_res=field_to_frequency(b, H_A)), grid)) for b in fields]

"""Magnetocrystalline anisotropy: crystal angle to magnon frequency.

Rotating a magnetized YIG sphere changes the first-order anisotropy
contribution to the Kittel-mode frequency. For rotation in the {110}
plane (azimuth fixed at pi/4) and H_A << H_e0 the resonance reduces to

    f = (gamma/2pi) * [H_e0 + H_A * g(theta)],
    g(theta) = -3/16 + 5/4*cos(2*theta) + 15/16*cos(4*theta)

whose extrema {2, -4/3} span 10/3, fixing the full angular tuning range
at (gamma/2pi)*H_A*10/3. The full quadratic law keeps all angle terms and
is what the simplified law is checked against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import GAMMA_2PI, GsesimWarning, ModelError, _require_finite

ANGULAR_FACTOR_MAX = 2.0  # g(0)
ANGULAR_FACTOR_MIN = -4.0 / 3.0  # g at cos(2*theta) = -1/3
ANGULAR_FACTOR_SPAN = ANGULAR_FACTOR_MAX - ANGULAR_FACTOR_MIN


class AnisotropyRegimeWarning(GsesimWarning):
    """H_A is not small against the bias field; the simple law degrades."""


@dataclass(frozen=True)
class AnisotropyParams:
    """Bias field, anisotropy field and gyromagnetic ratio.

    H_e0:  bias field, tesla
    H_A:   first-order anisotropy field, tesla (signed)
    gamma: gyromagnetic ratio over 2*pi, Hz/T

    The magnetization azimuth is fixed at pi/4, which keeps the rotation
    in the {110} plane.
    """

    H_e0: float
    H_A: float
    gamma: float = GAMMA_2PI

    def __post_init__(self):
        _require_finite("anisotropy parameters", self.H_e0, self.H_A, self.gamma)
        if self.H_e0 <= 0:
            raise ModelError("H_e0 must be > 0")
        if self.gamma <= 0:
            raise ModelError("gamma must be > 0")
        if abs(self.H_A) > 0.1 * self.H_e0:
            warnings.warn(
                "H_A/H_e0 exceeds 0.1; the simplified angle law is outside "
                "its validity regime",
                AnisotropyRegimeWarning,
                stacklevel=2,
            )


def resonance_full(p, theta_h):
    """Resonance frequency from the full quadratic law, Hz.

    Keeps every angle term at the magnetization azimuth phi0 = pi/4, where
    sin^2(2*phi0) = 1 and the sin^2(theta)*sin^2(2*theta)*sin^2(4*phi0)
    cross term vanishes; rejects parameter sets with a negative radicand
    (unsaturated or unphysical regime).
    """
    _require_finite("theta", theta_h)
    _require_finite("4*theta", 4.0 * float(theta_h))  # the phase of the fourth harmonic
    c2 = math.cos(2.0 * theta_h)
    c4 = math.cos(4.0 * theta_h)
    first = p.H_e0 + p.H_A * (1.5 + 0.5 * c4 + (-15.0 / 8.0 + 2.0 * c2 - c4 / 8.0))
    second = p.H_e0 + p.H_A * (2.0 * c4 + (0.5 * c2 - 0.5 * c4))
    radicand = first * second
    if radicand <= 0:
        raise ModelError(f"negative radicand at theta={theta_h}: unphysical regime")
    f = p.gamma * math.sqrt(radicand)
    _require_finite("resonance frequency", f)
    return f


def angular_factor(theta_h):
    """g(theta) of the simplified law (vectorized)."""
    theta_h = np.asarray(theta_h, dtype=float)
    return -3.0 / 16.0 + 1.25 * np.cos(2.0 * theta_h) + 15.0 / 16.0 * np.cos(4.0 * theta_h)


def resonance_simple(p, theta_h):
    """First-order resonance f = gamma*(H_e0 + H_A*g(theta)), Hz.

    Valid for H_A << H_e0 and phi0 = pi/4; even and pi-periodic in theta.
    """
    _require_finite("theta", theta_h)
    _require_finite("4*theta", 4.0 * float(theta_h))
    with np.errstate(over="ignore"):
        f = p.gamma * (p.H_e0 + p.H_A * angular_factor(theta_h))
    _require_finite("resonance frequency", f)
    return f


def h_a_for_tuning_range(tuning_range_hz, gamma=GAMMA_2PI):
    """Anisotropy field whose full angular tuning span equals the given range."""
    return tuning_range_hz / (gamma * ANGULAR_FACTOR_SPAN)


def angle_sweep(p, thetas, which="simple"):
    """Resonance frequency at each angle, in input order."""
    if which == "simple":
        return [float(resonance_simple(p, th)) for th in thetas]
    if which == "full":
        return [resonance_full(p, th) for th in thetas]
    raise ModelError(f"which must be 'full' or 'simple', got {which!r}")

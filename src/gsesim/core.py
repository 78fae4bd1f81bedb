"""Domain types and the propagation-phase primitive.

Unit convention: every frequency and rate in this package is an ordinary
(linear) frequency in Hz. Formulas written with angular frequencies use
omega = 2*pi*f at the point of evaluation, so stored values correspond
directly to the "/2pi" numbers quoted in MHz by spectroscopy hardware.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Gyromagnetic ratio of YIG, gamma/2pi in Hz per tesla.
GAMMA_2PI = 28.0e9

TWO_PI = 2.0 * math.pi

# the most values numpy can size as one complex array
MAX_POINTS = np.iinfo(np.intp).max // 16


class ModelError(ValueError):
    """Invalid physical parameters or inconsistent model input."""


class ParameterNameError(ModelError):
    """The free and fixed parameters are not a valid set for a model.

    They miss a model parameter, name one the model does not have or name one
    both free and fixed; or a free guess is not finite or not inside bounds
    lo < hi, or a fixed value is not finite.
    """


class GsesimWarning(UserWarning):
    """Base of every warning gsesim emits."""


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise ModelError(f"{name} must be finite, got {float(v)!r}")


def _finite_phase(phi):
    """phi, a propagation phase 2*pi*f*d/v its caller formed under np.errstate;
    ModelError, not numpy warnings or a LAPACK failure, when it is not finite."""
    if not np.isfinite(phi).all():
        raise ModelError("propagation phase 2*pi*f*d/v is not finite: a distance or frequency "
                         "is too large, or the waveguide speed too small")
    return phi


@dataclass(frozen=True)
class Waveguide:
    """Non-dispersive waveguide carrying traveling microwave photons.

    speed: photon propagation speed in m/s.
    """

    speed: float

    def __post_init__(self):
        _require_finite("speed", self.speed)
        if self.speed <= 0:
            raise ModelError(f"waveguide speed must be > 0, got {self.speed}")


@dataclass(frozen=True)
class Emitter:
    """One spin ensemble coupled to the waveguide at one or more points.

    f_res:        resonance frequency in Hz
    beta:         intrinsic (non-radiative) rate in Hz
    kappa_points: per-coupling-point radiative rates in Hz
    positions:    coupling-point coordinates along the waveguide in m,
                  strictly increasing
    """

    name: str
    f_res: float
    beta: float
    kappa_points: tuple = ()
    positions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "kappa_points", tuple(float(k) for k in self.kappa_points))
        object.__setattr__(self, "positions", tuple(float(x) for x in self.positions))
        _require_finite("f_res/beta", self.f_res, self.beta)
        _require_finite("kappa", *self.kappa_points)
        _require_finite("position", *self.positions)
        if self.f_res <= 0:
            raise ModelError(f"emitter {self.name!r}: f_res must be > 0")
        if self.beta < 0:
            raise ModelError(f"emitter {self.name!r}: beta must be >= 0")
        if len(self.kappa_points) != len(self.positions):
            raise ModelError(
                f"emitter {self.name!r}: {len(self.kappa_points)} rates for "
                f"{len(self.positions)} positions"
            )
        if not self.positions:
            raise ModelError(f"emitter {self.name!r}: needs at least one coupling point")
        if any(k < 0 for k in self.kappa_points):
            raise ModelError(f"emitter {self.name!r}: radiative rates must be >= 0")
        if any(b >= a for a, b in zip(self.positions[1:], self.positions)):
            raise ModelError(f"emitter {self.name!r}: positions must be strictly increasing")

    @property
    def span(self):
        """Interval (first position, last position) occupied on the waveguide."""
        return self.positions[0], self.positions[-1]


@dataclass(frozen=True)
class Topology:
    """Ordered collection of emitters sharing one waveguide."""

    emitters: tuple

    def __post_init__(self):
        object.__setattr__(self, "emitters", tuple(self.emitters))
        if not self.emitters:
            raise ModelError("topology needs at least one emitter")
        seen = {}
        for em in self.emitters:
            for x in em.positions:
                if x in seen:
                    raise ModelError(
                        f"coupling point {x} m shared by {seen[x]!r} and {em.name!r}"
                    )
                seen[x] = em.name


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform probe-frequency grid in Hz.

    `frequencies` forms the points once, np.linspace(f_start, f_stop,
    n_points), on first use, and returns that one read-only array on every
    access: every spectrum on the grid shares it. Copy it to modify it. A
    pickled or copied grid forms its own.
    """

    f_start: float
    f_stop: float
    n_points: int

    def __post_init__(self):
        _require_finite("grid", self.f_start, self.f_stop)
        if not (self.f_stop > self.f_start > 0):
            raise ModelError("grid requires f_stop > f_start > 0")
        if self.n_points < 2:
            raise ModelError("grid requires n_points >= 2")
        if self.n_points > MAX_POINTS:
            raise ModelError(f"grid requires n_points <= {MAX_POINTS}")

    @cached_property
    def frequencies(self):
        # near the largest float the last point can round past it before
        # linspace sets it to f_stop: the result is finite, the warning spurious
        with np.errstate(over="ignore"):
            f = np.linspace(self.f_start, self.f_stop, self.n_points)
        f.flags.writeable = False
        return f

    def __getstate__(self):
        # a pickled or copied grid forms its own read-only points on first use
        # instead of carrying a writeable copy of these
        state = self.__dict__.copy()
        state.pop("frequencies", None)
        return state


@dataclass(frozen=True)
class Spectrum:
    """Complex transmission values on a frequency grid.

    `frequencies` is the grid's own read-only array, not a copy.
    """

    grid: FrequencyGrid
    s21: np.ndarray = field(repr=False)

    def __post_init__(self):
        s21 = np.asarray(self.s21, dtype=complex)
        object.__setattr__(self, "s21", s21)
        if s21.shape != (self.grid.n_points,):
            raise ModelError(
                f"spectrum length {s21.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.isfinite(s21).all():
            raise ModelError("spectrum contains non-finite values")

    @property
    def frequencies(self):
        return self.grid.frequencies

    @property
    def magnitude(self):
        return np.abs(self.s21)


def phase(f, length, waveguide):
    """Propagation phase 2*pi*f*length/speed in radians, unreduced."""
    _require_finite("f", f)
    _require_finite("length", length)
    if f <= 0:
        raise ModelError(f"phase requires f > 0, got {f}")
    if length < 0:
        raise ModelError(f"phase requires length >= 0, got {length}")
    with np.errstate(over="ignore", invalid="ignore"):  # map's field sweep passes numpy scalars
        return _finite_phase(TWO_PI * f * length / waveguide.speed)


def classify_topology(t):
    """Tag the interleaving pattern of the emitters' position intervals.

    For exactly two emitters with two coupling points each: nested if one
    interval strictly contains the other, braided if they interleave,
    separate if disjoint. One emitter is 'single'; everything else is
    'general'. Informational only: scattering code never branches on it.
    """
    ems = t.emitters
    if len(ems) == 1:
        return "single"
    if len(ems) == 2 and all(len(e.positions) == 2 for e in ems):
        (a1, a2), (b1, b2) = ems[0].span, ems[1].span
        if (a1 < b1 and b2 < a2) or (b1 < a1 and a2 < b2):
            return "nested"
        if a2 < b1 or b2 < a1:
            return "separate"
        return "braided"
    return "general"


def field_to_frequency(B, H_A_equiv=0.0):
    """Kittel-mode frequency f = (gamma/2pi) * (B + H_A) for fields in tesla."""
    _require_finite("B", B)
    _require_finite("H_A_equiv", H_A_equiv)
    f = GAMMA_2PI * (B + H_A_equiv)
    if f <= 0:
        raise ModelError(f"resulting frequency must be > 0, got {f} Hz")
    return f

"""Principal-value integrals behind the giant-ensemble decay and Lamb shift.

The waveguide-mediated self-energy of a two-point ensemble reduces to
Abel-regularized principal-value integrals over photon frequency,

    A(x) = PV int_0^inf  w*cos(w*x) / (w +- 1) dw
    B(x) = PV int_0^inf  w*sin(w*x) / (w +- 1) dw

in units of the magnon frequency, with x the phase across the ensemble.
Both close in terms of the sine and cosine integrals, which `sici`
evaluates together; this module carries the closed forms, an independent
quadrature oracle, and the physical decay/shift decomposition
(2*pi*cos(x), -pi*sin(x)) that assembles into the interference-modulated
decay rate 2*kappa*(1 + cos x) and shift kappa*sin(x).

The oracle uses numpy alone. It rotates the contour onto the imaginary
axis, w = i*s, where the integrand decays like exp(-s*x), and sums it with
a double-exponential (exp-sinh) trapezoidal rule (T. Ooura and M. Mori,
J. Comput. Appl. Math. 112, 229 (1999)). The same sum over every second
node, at twice the step, gives the residual it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelError

EULER_GAMMA = 0.5772156649015328606
_HALF_PI = 0.5 * math.pi
_SERIES_SPLIT = 4.0
_RESIDUAL_TOL = 1e-5  # largest quadrature residual pv_quadrature accepts


class PvDivergence(ModelError):
    """The principal-value integral diverges at the requested argument."""


class PvConvergenceError(ModelError):
    """The quadrature oracle failed to converge to the requested residual."""


def _sici_series(x):
    # alternating Taylor series; below the split point the largest term is
    # ~e^4, so cancellation costs at most ~2 digits
    total, num, k = 0.0, x, 0
    while True:
        term = num / (2 * k + 1)
        total += term
        if abs(term) < 1e-18 * abs(total) + 1e-300:
            break
        num *= -x * x / ((2 * k + 2) * (2 * k + 3))
        k += 1
    si_val = total

    total, num, k = 0.0, 0.5 * x * x, 1
    while True:
        term = num / (2 * k)
        total += term
        if abs(term) < 1e-18 * abs(total) + 1e-300:
            break
        num *= -x * x / ((2 * k + 1) * (2 * k + 2))
        k += 1
    ci_val = EULER_GAMMA + math.log(x) - total
    return si_val, ci_val


def _e1_imag_axis(x):
    # modified Lentz continued fraction for E1(i*x), x real > 0
    tiny = 1e-300
    z = 1j * x
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 20000):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return np.exp(-z) * h
    raise ModelError(f"continued fraction for E1(i*{x}) did not converge")


def sici(x):
    """Sine and cosine integrals (Si(x), Ci(x)) for finite x > 0, from one evaluation.

    Si(x) = int_0^x sin(t)/t dt, and Ci(x) is log-singular at the origin.
    """
    if not math.isfinite(x) or x <= 0:
        raise ModelError(f"sici requires finite x > 0, got {x!r}")
    if x < _SERIES_SPLIT:
        return _sici_series(x)
    e1 = _e1_imag_axis(x)
    return _HALF_PI + e1.imag, -e1.real


def m_aux(x):
    """Auxiliary M(x): A(+ branch) = -pi*M(x), A(- branch) = pi*M(x) - pi*sin(x)."""
    s, c = sici(x)
    return (-math.cos(x) * c + math.sin(x) * (_HALF_PI - s)) / math.pi


def n_aux(x):
    """Auxiliary N(x): B(+ branch) = 1/x - pi*N(x)."""
    s, c = sici(x)
    return (math.cos(x) * (_HALF_PI - s) + math.sin(x) * c) / math.pi


@dataclass(frozen=True)
class PvResult:
    """Values of the two regularized integrals at one argument."""

    a_value: float
    b_value: float


def _check_branch(x, branch):
    if branch not in ("+", "-"):
        raise ModelError(f"branch must be '+' or '-', got {branch!r}")
    if not math.isfinite(x):
        raise ModelError(f"argument must be finite, got {float(x)!r}")
    if x == 0.0:
        raise PvDivergence("the regularized integrals diverge as x -> 0")
    if x < 0:
        raise ModelError(f"argument must be > 0 (the phase across the ensemble), got {float(x)!r}")


def pv_closed(x, branch):
    """Closed-form A(x), B(x) in terms of Si and Ci.

    Derived by splitting w/(w +- 1) = 1 -+ 1/(w +- 1) and Abel-regularizing
    the non-decaying piece; checked against pv_quadrature on both branches.
    """
    _check_branch(x, branch)
    s, c = sici(x)
    if branch == "+":
        a = math.cos(x) * c + math.sin(x) * (s - _HALF_PI)
        b = 1.0 / x - math.cos(x) * (_HALF_PI - s) - math.sin(x) * c
    else:
        a = -math.cos(x) * c - math.sin(x) * (s + _HALF_PI)
        b = 1.0 / x + math.cos(x) * (s + _HALF_PI) - math.sin(x) * c
    return PvResult(a, b)


def pv_quadrature(x, branch):
    """Numerical A(x), B(x) on the rotated contour w = i*s.

    Independent oracle for pv_closed. For x > 0, Jordan's lemma turns the
    Abel limit of A + i*B into -int_0^inf s*exp(-s*x)/(i*s +- 1) ds, and the
    '-' branch adds i*pi times the residue exp(i*x) of its pole at w = 1.
    The integral is a trapezoidal sum over the exp-sinh nodes; its residual
    is the difference from the same sum at twice the step, taken on every
    second node. Raises PvConvergenceError when it exceeds _RESIDUAL_TOL.
    """
    _check_branch(x, branch)
    # exp-sinh nodes s = exp(pi/2*sinh(u)) for u in [-4.5, 4.5] at step h; built
    # per call, so that importing the package pages in no extra numpy loops
    h = 0.05
    u = h * np.arange(-90, 91)
    s = np.exp(_HALF_PI * np.sinh(u))
    ds_du = s * _HALF_PI * np.cosh(u)
    sign = 1.0 if branch == "+" else -1.0
    with np.errstate(over="ignore"):
        # s*x overflows to inf far out on the grid, where exp(-s*x) is 0 anyway
        terms = -s * np.exp(-s * x) / (1j * s + sign) * ds_du
    value = h * complex(terms.sum())
    residual = abs(value - 2.0 * h * complex(terms[::2].sum()))
    if residual > _RESIDUAL_TOL:
        raise PvConvergenceError(
            f"quadrature residual {residual:.2e} at x={x}, branch {branch!r}"
        )
    if branch == "-":
        value += 1j * math.pi * complex(math.cos(x), math.sin(x))
    return PvResult(value.real, value.imag)


def decay_shift_decomposition(x):
    """Per-point-pair factors (2*pi*cos(x), -pi*sin(x)) of the self-energy.

    The cosine term drives the collective radiative decay and the sine
    term the Lamb shift; assembled over a two-point ensemble they give
    kappa_G = 2*kappa*(1 + cos x) and shift kappa*sin(x).
    """
    return 2.0 * math.pi * math.cos(x), -math.pi * math.sin(x)

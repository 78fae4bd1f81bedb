"""Least-squares extraction of model parameters from transmission spectra.

Two model families are fit in practice: the one-pole single-ensemble form
(per-resonance decay-rate extraction and the joint geometry fit that pins
down the coupling-point separation and the photon speed) and the
eight-parameter two-mode form for the nested pair. Complex data is fitted
on stacked real/imaginary residuals; magnitude-only data on |S21|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .core import ModelError, TWO_PI
from .nested import FitFormParams, s21_fitform_values


class FitError(ModelError):
    """The optimizer failed or the problem is structurally unidentifiable."""


class DegeneracyWarning(UserWarning):
    """The datasets cannot separate the requested parameters."""


class ParameterNameError(ModelError):
    """The free and fixed parameters do not name exactly a model's parameters."""


def single_model(f, q):
    """One-pole single-GSE transmission; needs f_res, kappa, beta, length, speed."""
    f = np.asarray(f, dtype=float)
    phi = TWO_PI * q["f_res"] * q["length"] / q["speed"]
    if not math.isfinite(phi):
        raise ModelError(f"interference phase {phi!r} is not finite")
    kappa_g = 2.0 * q["kappa"] * (1.0 + math.cos(phi))
    shift = q["kappa"] * math.sin(phi)
    return 1.0 + kappa_g / (1j * (f - q["f_res"] - shift) - kappa_g - q["beta"])


def single_giant_model(f, q):
    """One-pole form parameterized directly by the giant decay rate.

    Needs f_res, kappa_g, beta; the interference shift is absorbed into
    f_res, which is what a per-spectrum lineshape fit can actually see.
    """
    f = np.asarray(f, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 - 1j * q["kappa_g"] / (f - q["f_res"] + 1j * (q["kappa_g"] + q["beta"]))


def nested_fitform_model(f, q):
    """Two-mode fit form; needs f_i, f_o, kappa_i_g, kappa_o_g, beta_i, beta_o, j, gamma."""
    params = FitFormParams(
        q["f_i"], q["f_o"], q["kappa_i_g"], q["kappa_o_g"],
        q["beta_i"], q["beta_o"], q["j"], q["gamma"],
    )
    return s21_fitform_values(params, f)


MODELS = {
    "single": single_model,
    "single_giant": single_giant_model,
    "nested_fitform": nested_fitform_model,
}

# the names each model reads; free and fixed together must give exactly these
MODEL_PARAMS = {
    "single": ("f_res", "kappa", "beta", "length", "speed"),
    "single_giant": ("f_res", "kappa_g", "beta"),
    "nested_fitform": tuple(f.name for f in fields(FitFormParams)),
}
# the geometry fit takes f_res from each dataset
GEOMETRY_PARAMS = MODEL_PARAMS["single"][1:]


def _check_params(expected, free, fixed):
    """Free and fixed must name exactly `expected`, with finite values in bounds."""
    given = set(free) | set(fixed)
    missing = [n for n in expected if n not in given]
    unknown = sorted(given.difference(expected))
    if missing or unknown:
        raise ParameterNameError(
            f"parameters missing {missing}, unknown {unknown}; expected {list(expected)}"
        )
    both = sorted(set(free) & set(fixed))
    if both:
        raise ParameterNameError(f"parameters {both} are given both free and fixed")
    for name, (guess, lo, hi) in free.items():
        if not (lo <= guess <= hi and lo < hi and math.isfinite(guess)):
            raise ModelError(f"initial guess for {name!r} must be finite and inside bounds lo < hi")
    bad = sorted(n for n, v in fixed.items() if not math.isfinite(v))
    if bad:
        raise ModelError(f"fixed parameters {bad} must be finite")


@dataclass(frozen=True)
class FitProblem:
    """One spectrum, one model, and the free-parameter layout.

    data may be complex S21 values or real magnitudes (set magnitude_only).
    free maps parameter name -> (guess, lower, upper); fixed holds the
    remaining model parameters.
    """

    freqs: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    model: str
    free: dict
    fixed: dict = field(default_factory=dict)
    magnitude_only: bool = False
    db_scale: bool = False

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        if self.model not in MODELS:
            raise ModelError(f"unknown model {self.model!r}")
        if not self.free:
            raise ModelError("at least one free parameter required")
        if np.any(np.diff(self.freqs) <= 0):
            raise ModelError("frequency grid must be strictly increasing")
        if len(self.freqs) < 2 * len(self.free):
            raise ModelError(
                f"{len(self.freqs)} points cannot constrain {len(self.free)} parameters"
            )
        if self.db_scale and not self.magnitude_only:
            raise ModelError("db_scale applies to magnitude-only data")
        _check_params(MODEL_PARAMS[self.model], self.free, self.fixed)

    def evaluate(self, values):
        q = dict(self.fixed)
        q.update(values)
        return MODELS[self.model](self.freqs, q)


@dataclass(frozen=True)
class FitResult:
    """Parameter estimates with 1-sigma uncertainties from the Jacobian."""

    values: dict
    sigmas: dict
    residual_norm: float
    n_iter: int
    converged: bool


def _residuals(problem, names):
    def fun(x):
        model = problem.evaluate(dict(zip(names, x)))
        if problem.magnitude_only:
            mag = np.abs(model)
            if problem.db_scale:
                mag = 20.0 * np.log10(np.maximum(mag, 1e-300))
            return np.asarray(mag - problem.data, dtype=float)
        r = model - problem.data
        return np.concatenate([r.real, r.imag])

    return fun


def _sigma_from_jacobian(jac, residual, n_free, names):
    dof = max(residual.size - n_free, 1)
    s2 = float(residual @ residual) / dof
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    tol = sv[0] * 1e-12 if sv[0] > 0 else np.inf
    bad_sv = sv < tol
    param_bad = np.zeros(len(names), dtype=bool)
    if np.any(bad_sv):
        # a parameter is unidentifiable if it dominates a null direction
        for row in vt[bad_sv]:
            param_bad[int(np.argmax(np.abs(row)))] = True
        culprits = [n for n, b in zip(names, param_bad) if b]
        warnings.warn(
            f"singular Jacobian: parameters {culprits} are unidentifiable",
            DegeneracyWarning,
            stacklevel=4,
        )
    inv_sv = np.where(bad_sv, 0.0, 1.0 / np.where(bad_sv, 1.0, sv))
    cov = (vt.T * inv_sv**2) @ vt * s2
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return {
        n: (math.inf if b else float(s))
        for n, s, b in zip(names, sig, param_bad)
    }


def _least_squares(fun, free, tol):
    """Minimize the residuals fun(x) over free: name -> (guess, lower, upper).

    The convergence policy of fit and fit_global_geometry lives here.
    """
    from scipy import optimize  # deferred: only fits pay the scipy import

    names = list(free)
    x0, lo, hi = (np.array([free[n][k] for n in names], dtype=float) for k in range(3))
    if not np.all(np.isfinite(fun(x0))):
        raise FitError("model is not finite at the initial guess")
    res = optimize.least_squares(
        fun, x0, bounds=(lo, hi), method="trf",
        x_scale=np.where(np.abs(x0) > 0, np.abs(x0), 1.0),
        max_nfev=20000, xtol=tol, ftol=tol, gtol=tol,
    )
    if res.status <= 0:
        raise FitError(f"fit did not converge: {res.message}")
    sigmas = _sigma_from_jacobian(res.jac, res.fun, len(names), names)
    return FitResult(
        dict(zip(names, res.x)), sigmas, float(np.linalg.norm(res.fun)),
        int(res.nfev), bool(res.success),
    )


def fit(problem):
    """Local bounded least-squares fit (trust-region reflective).

    Returns a FitResult; raises FitError when the optimizer stops without
    meeting a tolerance, including when it runs out of evaluations.
    """
    return _least_squares(_residuals(problem, list(problem.free)), problem.free, 1e-14)


def initial_guess_single(freqs, magnitude):
    """Heuristic starting point for single-GSE lineshape fits.

    Dip location gives f_res; full width at half depth gives the total
    rate, split equally between radiative and intrinsic.
    """
    freqs = np.asarray(freqs, dtype=float)
    magnitude = np.asarray(magnitude, dtype=float)
    i_min = int(np.argmin(magnitude))
    f0 = freqs[i_min]
    depth = 1.0 - magnitude[i_min]
    if depth <= 0:
        raise FitError("no dip in the spectrum; cannot build an initial guess")
    half = 1.0 - 0.5 * depth
    below = magnitude < half
    idx = np.flatnonzero(below)
    fwhm = freqs[idx[-1]] - freqs[idx[0]] if idx.size > 1 else (freqs[-1] - freqs[0]) / 10
    total = fwhm / 2.0
    return {
        "f_res": f0,
        "kappa_g": 0.5 * total,
        "beta": 0.5 * total,
    }


def fit_global_geometry(datasets, free, fixed=None):
    """Joint single-GSE fit across spectra taken at known resonances.

    datasets: list of (f_res_hz, freqs, complex_s21). free/fixed follow
    FitProblem conventions over {kappa, beta, length, speed}. The
    interference phase differs between datasets through f_res, which is
    what makes length and speed separately identifiable; a warning is
    issued when the resonances span less than one interference period of
    the initial guess.
    """
    if len(datasets) < 3:
        raise FitError("geometry fit needs at least 3 datasets")
    fixed = dict(fixed or {})
    _check_params(GEOMETRY_PARAMS, free, fixed)
    names = list(free)
    f_res_values = np.array([d[0] for d in datasets], dtype=float)
    if not np.all(np.isfinite(f_res_values)):
        raise FitError("dataset resonances must be finite")
    if np.ptp(f_res_values) == 0:
        raise FitError("all datasets share one resonance; length and speed degenerate")

    guess = {n: free[n][0] for n in names}
    guess.update(fixed)
    period = guess["speed"] / guess["length"]
    if np.ptp(f_res_values) < period:
        warnings.warn(
            "resonances span less than one interference period; length and "
            "speed are weakly identifiable",
            DegeneracyWarning,
            stacklevel=2,
        )

    def fun(x):
        q = dict(fixed)
        q.update(zip(names, x))
        parts = []
        for f_res, freqs, s21 in datasets:
            qq = dict(q)
            qq["f_res"] = f_res
            r = single_model(freqs, qq) - s21
            parts.append(r.real)
            parts.append(r.imag)
        return np.concatenate(parts)

    return _least_squares(fun, free, 1e-15)


def dip_positions(freqs, magnitude):
    """Frequencies of the (at most) two deepest local minima of one |S21| column."""
    freqs = np.asarray(freqs, dtype=float)
    magnitude = np.asarray(magnitude, dtype=float)
    interior = np.where(
        (magnitude[1:-1] < magnitude[:-2]) & (magnitude[1:-1] < magnitude[2:])
    )[0] + 1
    if interior.size == 0:
        return np.array([])
    keep = interior[np.argsort(magnitude[interior])][:2]
    return np.sort(freqs[keep])


def avoided_crossing_splitting(sweep_values, freqs, mag):
    """Coupling splitting 2*J extracted from a level-repulsion map, Hz.

    Follows the standard avoided-crossing analysis: trace the two |S21|
    dip branches across the detuning sweep and fit them jointly to the
    hyperbolae mid(d) +- sqrt(d^2/4 + J^2). More robust than reading the
    zero-detuning dip separation, which asymmetric linewidths push apart.
    mag is the (n_sweep, n_freq) magnitude matrix; sweep_values are
    detunings in Hz.
    """
    from scipy import optimize

    sweep_values = np.asarray(sweep_values, dtype=float)
    lo, hi, dets = [], [], []
    for d, column in zip(sweep_values, mag):
        dips = dip_positions(freqs, column)
        if dips.size == 2:
            dets.append(d)
            lo.append(dips[0])
            hi.append(dips[1])
    if len(dets) < 5:
        raise FitError("too few two-dip columns for an avoided-crossing fit")
    dets = np.asarray(dets)
    lo = np.asarray(lo)
    hi = np.asarray(hi)

    def resid(x):
        j, fc = x
        mid = fc + dets / 2.0
        r = np.sqrt(dets**2 / 4.0 + j * j)
        return np.concatenate([mid - r - lo, mid + r - hi])

    guess = [0.25 * float(np.min(hi - lo)) + 1.0, float(np.median(0.5 * (lo + hi)))]
    res = optimize.least_squares(resid, guess)
    if res.status <= 0:
        raise FitError(f"avoided-crossing fit did not converge: {res.message}")
    return 2.0 * abs(res.x[0])


def merged_linewidth(freqs, magnitude):
    """Full width at half depth of the deepest dip in one |S21| column, Hz."""
    freqs = np.asarray(freqs, dtype=float)
    magnitude = np.asarray(magnitude, dtype=float)
    depth = 1.0 - magnitude.min()
    if depth <= 0:
        raise FitError("no dip in the column")
    below = np.flatnonzero(magnitude < 1.0 - 0.5 * depth)
    return freqs[below[-1]] - freqs[below[0]]


def extract_decay_curve(entries, reference):
    """Per-resonance fitted decay rates against the interference prediction.

    entries: list of (f_res_hz, freqs, complex_s21); reference: a
    SingleGseParams carrying kappa, length and waveguide for the
    prediction column. Returns a list of rows
    (f_res, kappa_g_fitted, kappa_g_predicted).
    """
    from .single import giant_decay  # local import avoids a cycle

    if not entries:
        raise FitError("extract_decay_curve needs at least one entry")
    rows = []
    for f_res, freqs, s21 in entries:
        guess = initial_guess_single(freqs, np.abs(s21))
        guess["f_res"] = f_res
        span = freqs[-1] - freqs[0]
        problem = FitProblem(
            freqs, s21, "single_giant",
            free={
                "f_res": (guess["f_res"], freqs[0], freqs[-1]),
                "kappa_g": (max(guess["kappa_g"], 1e-6 * span), 0.0, span),
                "beta": (max(guess["beta"], 1e-6 * span), 0.0, span),
            },
        )
        result = fit(problem)
        rows.append((f_res, result.values["kappa_g"], giant_decay(reference, f_res)))
    return rows

"""Least-squares extraction of model parameters from transmission spectra.

Two model families are fit in practice: the one-pole single-ensemble form
(per-resonance decay-rate extraction and the joint geometry fit that pins
down the coupling-point separation and the photon speed) and the
eight-parameter two-mode form for the nested pair. The dtype of the data
says what is fitted: complex data is S21, fitted on stacked real/imaginary
residuals, and real data is |S21|, fitted linearly or in dB. Every
residual comes with its closed-form Jacobian, and one numpy
Levenberg-Marquardt solver, `_least_squares`, minimizes them all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .core import ModelError, ParameterNameError, TWO_PI, _finite_phase
from .nested import FitFormParams, _fitform_terms
from .single import giant_decay


class FitError(ModelError):
    """The optimizer failed or the problem is structurally unidentifiable."""


class DegeneracyWarning(UserWarning):
    """The datasets cannot separate the requested parameters."""


def single_model(f, q):
    """One-pole single-GSE transmission and its partials, (S21, {name: dS21/dname}).

    Needs f_res, kappa, beta, length, speed. S21 = 1 + kappa_g/den with
    den = i*(f - f_res - kappa*sin(phi)) - kappa_g - beta and
    kappa_g = 2*kappa*(1 + cos(phi)); f_res, length and speed also act
    through phi = 2*pi*f_res*length/speed.
    """
    f = np.asarray(f, dtype=float)
    # a fixed speed may be 0: as a numpy scalar it divides to inf, which _finite_phase rejects
    kappa, f_res, length, speed = q["kappa"], q["f_res"], q["length"], np.float64(q["speed"])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi = _finite_phase(TWO_PI * f_res * length / speed)
    cos, sin = math.cos(phi), math.sin(phi)
    kappa_g = 2.0 * kappa * (1.0 + cos)
    den = 1j * (f - f_res - kappa * sin) - kappa_g - q["beta"]
    inv = 1.0 / den
    a = kappa_g * inv * inv

    def partial(d_kappa_g, d_shift, d_f_res=0.0):
        return d_kappa_g * inv + a * (d_kappa_g + 1j * (d_f_res + d_shift))

    d_phi = partial(-2.0 * kappa * sin, kappa * cos)
    return 1.0 + kappa_g / den, {
        "f_res": partial(0.0, 0.0, 1.0) + d_phi * (TWO_PI * length / speed),
        "kappa": partial(2.0 * (1.0 + cos), sin),
        "beta": a,
        "length": d_phi * (TWO_PI * f_res / speed),
        "speed": d_phi * (-phi / speed),
    }


def single_giant_model(f, q):
    """One-pole form in the giant decay rate and its partials, (S21, {name: dS21/dname}).

    Needs f_res, kappa_g, beta; the interference shift is absorbed into
    f_res, which is what a per-spectrum lineshape fit can actually see.
    """
    f = np.asarray(f, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        den = f - q["f_res"] + 1j * (q["kappa_g"] + q["beta"])
        inv = 1.0 / den
        s21 = 1.0 - 1j * q["kappa_g"] / den
        kappa_inv2 = q["kappa_g"] * inv * inv
    return s21, {"f_res": -1j * kappa_inv2, "kappa_g": -1j * inv - kappa_inv2, "beta": -kappa_inv2}


def nested_fitform_model(f, q):
    """Two-mode fit form and its partials, (S21, {name: dS21/dname}).

    Needs f_i, f_o, kappa_i_g, kappa_o_g, beta_i, beta_o, j, gamma. S21 is
    1 - num/den from the terms s21_fitform_values forms, so the two are
    equal; each parameter moves num and den, and
    d S21 = (num*d_den/den - d_num)/den.
    """
    FitFormParams(**q)  # its checks: finite values, rates >= 0
    d_o, d_i, c, root, num, den = _fitform_terms(np.asarray(f, dtype=float), **q)
    k_i, k_o = q["kappa_i_g"], q["kappa_o_g"]
    inv = 1.0 / den
    ratio = num * inv
    # d root / d kappa, taken as 0 where root vanishes
    root_i = 0.5 * k_o / root if root > 0 else 0.0
    root_o = 0.5 * k_i / root if root > 0 else 0.0

    def partial(d_num, d_den):
        return (ratio * d_den - d_num) * inv

    return 1.0 - num / den, {
        "f_i": partial(-1j * k_o, -d_o),
        "f_o": partial(-1j * k_i, -d_i),
        "kappa_i_g": partial(2j * c * root_i + 1j * d_o - k_o, 1j * d_o),
        "kappa_o_g": partial(2j * c * root_o + 1j * d_i - k_i, 1j * d_i),
        "beta_i": partial(-k_o, 1j * d_o),
        "beta_o": partial(-k_i, 1j * d_i),
        "j": partial(2j * root, -2.0 * c),
        "gamma": partial(2.0 * root, 2j * c),
    }


# fit models: name -> (f, q) -> (S21, {parameter: d S21 / d parameter})
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

_MAX_NFEV = 20000  # evaluations before a fit gives up
_MAG_FLOOR = 1e-300  # |S21| below this counts as zero in magnitude and dB residuals
_FLAT_SV = 1e-10  # column-scaled singular value, relative to the largest, of a flat direction
_FLAT_COMPONENT = 1e-6  # weight in a flat direction that makes a parameter unidentifiable


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
            raise ParameterNameError(f"initial guess for {name!r} must be finite and inside bounds lo < hi")
    bad = sorted(n for n, v in fixed.items() if not math.isfinite(v))
    if bad:
        raise ParameterNameError(f"fixed parameters {bad} must be finite")


@dataclass(frozen=True)
class FitProblem:
    """One spectrum, one model, and the free-parameter layout.

    freqs is a 1-D grid and data has its shape, both finite. The dtype of
    data says what is fitted: complex data is S21, real data is |S21|,
    so no real value may be below 0 (-0.0 is not). db_scale fits real
    data on a dB scale; the data stay linear |S21|, as for a magnitude
    fit. free maps parameter name -> (guess, lower, upper); fixed holds
    the remaining model parameters.
    """

    freqs: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    model: str
    free: dict
    fixed: dict = field(default_factory=dict)
    db_scale: bool = False

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        object.__setattr__(self, "data", np.asarray(self.data))
        if self.model not in MODELS:
            raise ModelError(f"unknown model {self.model!r}")
        if not self.free:
            raise ModelError("at least one free parameter required")
        if self.freqs.ndim != 1 or self.data.shape != self.freqs.shape:
            raise ModelError(f"data of shape {self.data.shape} must match 1-D frequencies, got {self.freqs.shape}")
        if not (np.isfinite(self.freqs).all() and np.isfinite(self.data).all()):
            raise ModelError("frequencies and data must be finite")
        if not np.iscomplexobj(self.data) and np.any(self.data < 0):
            raise ModelError("real data is |S21| and must be >= 0")
        if np.any(self.freqs[1:] <= self.freqs[:-1]):
            raise ModelError("frequency grid must be strictly increasing")
        if len(self.freqs) < 2 * len(self.free):
            raise ModelError(
                f"{len(self.freqs)} points cannot constrain {len(self.free)} parameters"
            )
        if self.db_scale and np.iscomplexobj(self.data):
            raise ModelError("db_scale applies to magnitude-only data")
        _check_params(MODEL_PARAMS[self.model], self.free, self.fixed)


@dataclass(frozen=True)
class FitResult:
    """Parameter estimates with 1-sigma uncertainties from the Jacobian.

    n_iter counts the evaluations of the residual and its Jacobian.
    converged is always True: a fit that meets no stopping test raises
    FitError instead of returning.
    """

    values: dict
    sigmas: dict
    residual_norm: float
    n_iter: int
    converged: bool


def _residuals(model, freqs, data, fixed, names, db_scale=False):
    """fun(x) -> (residual, Jacobian) of `model` against data over the free names.

    Complex data is S21: the residual stacks the real and imaginary parts
    of S21 - data. Real data is |S21|: the residual is |S21| - data, or
    with db_scale 20*log10 of each, both sides floored at _MAG_FLOOR (the
    data are converted once, here). Magnitude residuals take
    d|s| = Re(conj(s)*ds)/|s|, and dB residuals 20/ln(10) * d|s|/|s|;
    both are 0 where |s| is below the floor.
    """
    data = 20.0 * np.log10(np.maximum(data, _MAG_FLOOR)) if db_scale else data

    def fun(x):
        q = dict(fixed)
        q.update(zip(names, x))
        s, partials = MODELS[model](freqs, q)
        ds = np.column_stack([partials[n] for n in names])
        if not np.iscomplexobj(data):
            mag = np.abs(s)
            inv = np.divide(1.0, mag, out=np.zeros_like(mag), where=mag > _MAG_FLOOR)
            dmag = (np.conj(s)[:, None] * ds).real * inv[:, None]
            if db_scale:
                mag = 20.0 * np.log10(np.maximum(mag, _MAG_FLOOR))
                dmag *= (20.0 / math.log(10.0)) * inv[:, None]
            return mag - data, dmag
        r = s - data
        return np.concatenate([r.real, r.imag]), np.concatenate([ds.real, ds.imag])

    return fun


def _sigma_from_jacobian(jac, residual, names):
    """1-sigma errors from the Jacobian at the optimum; inf along flat directions.

    The test runs on the Jacobian with unit-norm columns, so it does not
    depend on the parameters' units: a direction whose singular value is
    at most _FLAT_SV of the largest is flat, and every parameter with a
    component above _FLAT_COMPONENT in a flat direction is unidentifiable.
    """
    dof = max(residual.size - len(names), 1)
    # einsum, not a BLAS dot: its sum is the same on every OpenBLAS core
    s2 = float(np.einsum("i,i->", residual, residual)) / dof
    norms = np.linalg.norm(jac, axis=0)
    norms = np.where(norms > 0, norms, math.inf)  # a column whose norm is 0 (or underflows) is flat
    _, sv, vt = np.linalg.svd(jac / norms, full_matrices=False)
    flat = sv <= _FLAT_SV * sv[0]
    param_bad = np.any(np.abs(vt[flat]) > _FLAT_COMPONENT, axis=0)
    if np.any(param_bad):
        culprits = [n for n, b in zip(names, param_bad) if b]
        warnings.warn(
            f"singular Jacobian: parameters {culprits} are unidentifiable",
            DegeneracyWarning,
            stacklevel=4,
        )
    inv_sv = np.where(flat, 0.0, 1.0 / np.where(flat, 1.0, sv))
    cov = (vt.T * inv_sv**2) @ vt * s2
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0)) / norms
    return {
        n: (math.inf if b else float(s))
        for n, s, b in zip(names, sig, param_bad)
    }


def _trust_step(uf, sv, vt, delta, rank):
    """Minimizer of |J p + r| over |p| <= delta, from J = U diag(sv) vt and uf = U^T r.

    The minimum-norm Gauss-Newton step on the first `rank` singular
    values if it fits; otherwise the Levenberg-Marquardt step
    -(J^T J + alpha I)^-1 J^T r of length delta, with alpha from
    safeguarded Newton iterations on 1/|p(alpha)| = 1/delta.
    """
    suf = sv * uf
    p = -(uf[:rank] / sv[:rank]) @ vt[:rank]
    p_norm = float(np.linalg.norm(p))
    if p_norm <= delta:
        return p
    lower = 0.0
    if rank == sv.size:
        lower = (p_norm - delta) * p_norm / float(np.sum(suf**2 / sv**6))
    upper = float(np.linalg.norm(suf)) / delta
    alpha = max(1e-3 * upper, math.sqrt(lower * upper))
    for _ in range(10):
        if not lower < alpha <= upper:
            alpha = max(1e-3 * upper, math.sqrt(lower * upper))
        w = suf / (sv**2 + alpha)
        w_norm = float(np.linalg.norm(w))
        phi = w_norm - delta
        slope = -float(np.sum(w**2 / (sv**2 + alpha))) / w_norm
        if phi < 0:
            upper = alpha
        lower = max(lower, alpha - phi / slope)
        alpha -= (phi + delta) / delta * phi / slope
        if abs(phi) < 0.01 * delta:
            break
    p = -(suf / (sv**2 + alpha)) @ vt
    return p * (delta / np.linalg.norm(p))


def _column_scale(jac, scale):
    """Step scale of each variable: 1 over the largest column norm of J seen so far."""
    norms = np.linalg.norm(jac, axis=0)
    return np.minimum(scale, 1.0 / np.where(norms > 0, norms, 1.0))


@np.errstate(all="ignore")  # a non-finite residual, cost or Jacobian is handled below
def _least_squares(fun, free, tol):
    """Minimize |r(x)|^2 over free: name -> (guess, lower, upper).

    fun(x) returns the residual r and its Jacobian. Levenberg-Marquardt in
    trust-region form (J. J. More, LNM 630, 1978): each variable is measured
    in units of 1 over the largest norm its Jacobian column has had, so a
    parameter that starts near zero moves as freely as the rest. A trial
    point is projected onto the bounds, a variable on a bound that the
    gradient pushes against is held there, and a trial point where fun is
    not finite shrinks the region.

    The stopping tests are those of the trust-region reflective method: the
    cost falls by less than tol of itself, the step is shorter than tol of
    |x|, or the bound-scaled gradient is below tol. As in MINPACK the first
    also holds when the model predicts a fall below tol, so that steps at
    rounding level, whose gain ratio is noise, end the fit. Raises FitError
    after _MAX_NFEV evaluations without meeting a test.
    """
    names = list(free)
    x, lo, hi = (np.array([free[n][k] for n in names], dtype=float) for k in range(3))
    r, jac = fun(x)
    cost = 0.5 * float(r @ r)
    if not (math.isfinite(cost) and np.all(np.isfinite(jac))):
        raise FitError("model is not finite at the initial guess")
    scale = _column_scale(jac, np.inf)
    delta = max(float(np.linalg.norm(x / scale)), 1.0)  # so that a guess near 0 can move off it
    nfev = 1
    while True:
        g = jac.T @ r
        # the gradient test: each component scaled by the distance to the
        # bound it points away from, when that bound is finite
        gap = np.where(g > 0, x - lo, np.where(g < 0, hi - x, np.inf))
        if np.max(np.abs(g * np.where(np.isfinite(gap), gap, 1.0))) < tol:
            break
        if nfev >= _MAX_NFEV:
            raise FitError(f"fit did not converge in {_MAX_NFEV} evaluations")
        held = ((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0))
        u, sv, vt = np.linalg.svd(jac * np.where(held, 0.0, scale), full_matrices=False)
        uf = u.T @ r
        rank = int(np.count_nonzero(sv > _FLAT_SV * sv[0]))
        reduction, done = -1.0, False
        while reduction <= 0 and nfev < _MAX_NFEV:
            x_new = np.clip(x + scale * _trust_step(uf, sv, vt, delta, rank), lo, hi)
            step = x_new - x
            step_norm = float(np.linalg.norm(step / scale))
            r_new, jac_new = fun(x_new)
            nfev += 1
            cost_new = 0.5 * float(r_new @ r_new)
            if not (math.isfinite(cost_new) and np.all(np.isfinite(jac_new))):
                delta = 0.25 * step_norm
                continue
            reduction = cost - cost_new
            js = jac @ step
            predicted = -float(g @ step + 0.5 * js @ js)
            if predicted > 0:
                ratio = reduction / predicted
            else:
                ratio = 1.0 if reduction == predicted == 0 else 0.0
            if ratio < 0.25:
                delta = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * delta:
                delta *= 2.0
            done = (
                (reduction < tol * cost and ratio > 0.25)
                or (abs(reduction) <= tol * cost and 0 <= predicted <= tol * cost)
                or np.linalg.norm(step) < tol * (tol + np.linalg.norm(x))
            )
            if done:
                break
        if reduction > 0:
            x, r, jac, cost = x_new, r_new, jac_new, cost_new
            scale = _column_scale(jac, scale)
        if done:
            break
    sigmas = _sigma_from_jacobian(jac, r, names)
    return FitResult(dict(zip(names, x)), sigmas, float(np.linalg.norm(r)), nfev, True)


def _stacked(problems):
    """fun(x) -> (residual, Jacobian) of problems that share one free layout, stacked in order."""
    parts = [_residuals(p.model, p.freqs, p.data, p.fixed, list(p.free), p.db_scale) for p in problems]

    def fun(x):
        residuals, jacobians = zip(*(part(x) for part in parts))
        return np.concatenate(residuals), np.concatenate(jacobians)

    return fun


def fit(problem):
    """Local bounded least-squares fit (Levenberg-Marquardt, see _least_squares).

    Returns a FitResult; raises FitError when the optimizer stops without
    meeting a tolerance, including when it runs out of evaluations.
    """
    return _least_squares(_stacked([problem]), problem.free, 1e-14)


def initial_guess_single(freqs, magnitude):
    """Heuristic starting point for single-GSE lineshape fits.

    Dip location gives f_res; full width at half depth gives the total
    rate, split equally between radiative and intrinsic. Raises FitError
    when |S21| never falls below 1.
    """
    freqs = np.asarray(freqs, dtype=float)
    magnitude = np.asarray(magnitude, dtype=float)
    # the width is 0 when a single point lies below half depth
    total = (merged_linewidth(freqs, magnitude) or (freqs[-1] - freqs[0]) / 10) / 2.0
    return {"f_res": freqs[np.argmin(magnitude)], "kappa_g": 0.5 * total, "beta": 0.5 * total}


def fit_global_geometry(datasets, free, fixed=None):
    """Joint single-GSE fit across spectra taken at known resonances.

    datasets: list of (f_res_hz, freqs, s21). As in FitProblem, complex
    s21 is S21 and real s21 is |S21|, so real datasets are magnitude fits;
    the CLI still requires complex data. free/fixed follow FitProblem
    conventions over {kappa, beta, length, speed}. The model sees length
    and speed only through the delay length/speed, so one of them must be
    fixed (ParameterNameError otherwise); the interference phase differs
    between datasets through f_res, which is what pins the delay. Each
    dataset is checked as a "single" FitProblem with its f_res fixed, so a
    non-finite f_res raises ParameterNameError. A warning is issued when
    the resonances span less than one interference period of the initial
    guess.
    """
    if len(datasets) < 3:
        raise FitError("geometry fit needs at least 3 datasets")
    fixed = dict(fixed or {})
    _check_params(GEOMETRY_PARAMS, free, fixed)
    if "length" in free and "speed" in free:
        raise ParameterNameError("length and speed enter only as length/speed; fix one")
    problems = [FitProblem(freqs, s21, "single", free, dict(fixed, f_res=f_res))
                for f_res, freqs, s21 in datasets]
    span = np.ptp([d[0] for d in datasets])
    if span == 0:
        raise FitError("all datasets share one resonance; length and speed degenerate")
    guess = dict(fixed, **{n: v[0] for n, v in free.items()})
    if span < guess["speed"] / guess["length"]:
        warnings.warn(
            "resonances span less than one interference period; the delay "
            "length/speed is weakly identifiable",
            DegeneracyWarning,
            stacklevel=2,
        )
    return _least_squares(_stacked(problems), free, 1e-15)


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
    ones = np.ones(2 * dets.size)

    def resid(x):
        j, fc = x
        mid = fc + dets / 2.0
        r = np.sqrt(dets**2 / 4.0 + j * j)
        dr = np.divide(j, r, out=np.zeros_like(r), where=r > 0)
        return (np.concatenate([mid - r - lo, mid + r - hi]),
                np.column_stack([np.concatenate([-dr, dr]), ones]))

    guess = {
        "j": (0.25 * float(np.min(hi - lo)) + 1.0, -math.inf, math.inf),
        "fc": (float(np.median(0.5 * (lo + hi))), -math.inf, math.inf),
    }
    return 2.0 * abs(_least_squares(resid, guess, 1e-8).values["j"])


def merged_linewidth(freqs, magnitude):
    """Full width at half depth of the deepest dip in one |S21| column, Hz."""
    freqs = np.asarray(freqs, dtype=float)
    magnitude = np.asarray(magnitude, dtype=float)
    if not (np.isfinite(freqs).all() and np.isfinite(magnitude).all()):
        raise FitError("frequencies and |S21| must be finite")
    depth = 1.0 - magnitude.min()
    if not depth > 0:
        raise FitError("no dip: |S21| never falls below 1")
    below = np.flatnonzero(magnitude < 1.0 - 0.5 * depth)
    return abs(freqs[below[-1]] - freqs[below[0]])


def extract_decay_curve(entries, reference):
    """Per-resonance fitted decay rates against the interference prediction.

    entries: list of (f_res_hz, freqs, complex_s21); reference: a
    SingleGseParams carrying kappa, length and waveguide for the
    prediction column. Returns a list of rows
    (f_res, kappa_g_fitted, kappa_g_predicted).
    """
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

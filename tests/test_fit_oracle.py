"""The numpy fit solver against the optimizer it replaced.

`fitting._least_squares` used to hand the residuals to
scipy.optimize.least_squares (method "trf", finite-difference Jacobian,
x_scale = |x0|, xtol = ftol = gtol = tol, max_nfev 20000), and
avoided_crossing_splitting called it with its defaults; `trf` repeats
those calls. Each test records every problem that a fit entry point hands
to `_least_squares` and solves it both ways:

- fitted values of identified parameters (finite sigma) agree within 1e-8
  relative, and within 1e-9 on noiseless data;
- with a flat direction, the two complex poles of the two-mode form
  agree within 1e-8 relative and kappa_i_g + kappa_o_g within 1e-7: on
  fit-extract's seed 1 trf stops 1.2e-8 short of the minimum in that sum
  (started from trf's answer, the numpy solver moves it by 1.2e-8 and
  lowers the cost by 3e-14, landing 3e-11 from its own answer);
- 2J of the avoided-crossing fit agrees within 1e-6 relative.

The problems are fit-extract's (perfbench/fit_extract.py) at seeds 1-3,
the golden `fit` and `fit-geometry` runs, and the round trips of
tests/test_fitting.py.
"""

import json
import math
import os
import sys
import warnings

import numpy as np
import pytest
from scipy import optimize

import gsesim.fitting as fitting
from gsesim.cli import main
import test_fitting
import test_golden
from test_fitting import two_mode_poles

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import fit_extract  # noqa: E402


def trf(fun, free, tol):
    """The parent's optimizer on the residual half of fun."""
    names = list(free)
    x0, lo, hi = (np.array([free[n][k] for n in names], dtype=float) for k in range(3))
    residual = lambda x: fun(x)[0]
    if names == ["j", "fc"]:  # avoided_crossing_splitting, scipy's defaults
        return optimize.least_squares(residual, x0)
    return optimize.least_squares(
        residual, x0, bounds=(lo, hi), method="trf",
        x_scale=np.where(np.abs(x0) > 0, np.abs(x0), 1.0),
        max_nfev=20000, xtol=tol, ftol=tol, gtol=tol,
    )


@pytest.fixture
def recorded(monkeypatch):
    """Every (fun, free, tol, result) that passes through `_least_squares`."""
    calls = []
    solve = fitting._least_squares

    def record(fun, free, tol):
        result = solve(fun, free, tol)
        calls.append((fun, free, tol, result))
        return result

    monkeypatch.setattr(fitting, "_least_squares", record)
    return calls


def assert_agrees_with_trf(calls):
    assert calls
    for fun, free, tol, new in calls:
        old = trf(fun, free, tol)
        assert old.status > 0, old.message
        names = list(free)
        old_values = dict(zip(names, old.x))
        if names == ["j", "fc"]:
            assert abs(new.values["j"]) == pytest.approx(abs(old_values["j"]), rel=1e-6)
        elif math.inf in new.sigmas.values():
            # the two-mode form's flat direction: compare what the data fix
            assert set(names) == set(fitting.MODEL_PARAMS["nested_fitform"]), names
            poles = two_mode_poles(new.values)
            assert np.max(np.abs(poles - two_mode_poles(old_values))) < 1e-8 * np.max(np.abs(poles))
            kappa_sum = lambda v: v["kappa_i_g"] + v["kappa_o_g"]
            assert kappa_sum(new.values) == pytest.approx(kappa_sum(old_values), rel=1e-7)
        else:
            rtol = 1e-9 if new.residual_norm < 1e-6 else 1e-8
            for name in names:
                assert new.values[name] == pytest.approx(old_values[name], rel=rtol), (name, names)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_extract(recorded, tmp_path, seed):
    # five decay fits, the geometry fit, the two-mode fit and the splitting
    run = fit_extract.setup(seed, str(tmp_path))[0][2]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fitting.DegeneracyWarning)
        run()
    assert len(recorded) == fit_extract.N_SPECTRA + 3
    assert_agrees_with_trf(recorded)


def test_golden_fits(recorded, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, doc in test_golden.INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    for argv in test_golden.RUNS:
        if argv[0] in ("synth", "fit", "fit-geometry"):
            assert main(argv) == 0, argv
    assert [len(free) for _, free, _, _ in recorded] == [3, 3]
    assert_agrees_with_trf(recorded)


ROUND_TRIPS = {
    "noiseless": lambda: test_fitting.TestRoundTrips().test_noiseless_recovery(),
    "noisy-monte-carlo": lambda: test_fitting.TestRoundTrips().test_noisy_monte_carlo(),
    "nested-couplings": lambda: test_fitting.TestRoundTrips().test_nested_fitform_recovers_couplings(),
    "scale-equivariance": lambda: test_fitting.TestRoundTrips().test_scale_equivariance(),
    "sqrt-n": lambda: test_fitting.TestRoundTrips().test_sigmas_shrink_like_sqrt_n(),
    "magnitude-and-db": lambda: test_fitting.TestProblemValidation().test_magnitude_and_db(),
    "geometry-noiseless": lambda: test_fitting.TestGeometryFit().test_noiseless_recovers_geometry(),
    "geometry-offset": lambda: test_fitting.TestGeometryFit().test_offset_start_still_pins_the_ratio(),
    "geometry-noisy": lambda: test_fitting.TestGeometryFit().test_noisy_recovery_within_a_percent(),
    "splitting": lambda: test_fitting.TestMapAnalysis().test_avoided_crossing_extracts_2j(),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_round_trips(recorded, name):
    ROUND_TRIPS[name]()
    assert_agrees_with_trf(recorded)

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

import gsesim
from gsesim.core import Emitter, FrequencyGrid, Topology, Waveguide
from gsesim.single import SingleGseParams

# Device parameters of the fabricated sample (rates in Hz, lengths in m).
SPEED = 3.26e7
L_INNER = 0.0828
L_OUTER = 0.1656
KAPPA_INNER = 0.76e6
BETA_INNER = 1.58e6
KAPPA_OUTER = 0.70e6
BETA_OUTER = 1.39e6

MHZ = 1e6

# two-mode rates for `map --sweep detuning`, as in the README example
TWO_MODE = [
    "--f-i", "4.35GHz", "--kappa-i-g", "1.15MHz", "--kappa-o-g", "0.000126MHz",
    "--beta-i", "1.54MHz", "--beta-o", "0.86MHz", "--j", "1.01MHz", "--gamma", "0.000328MHz",
]


def cli_flags():
    """{command: the long flags its parser declares, --help aside} of gsesim's CLI."""
    from gsesim.cli import build_parser

    (commands,) = build_parser()._subparsers._group_actions
    return {command: {flag for action in parser._actions for flag in action.option_strings
                      if flag.startswith("--")} - {"--help"}
            for command, parser in commands.choices.items()}


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, which are not JSON,
    as jq and JavaScript do."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def pytest_configure(config):
    # an unasserted gsesim warning fails the test. This sits here, not in
    # pyproject's filterwarnings, which also governs perfbench/selftest.py:
    # its fixtures run the benchmark's non-passive layouts without asserting it
    for warning in ("multipoint.PassivityWarning", "multipoint.MarkovWarning", "fitting.DegeneracyWarning",
                    "anisotropy.AnisotropyRegimeWarning"):
        config.addinivalue_line("filterwarnings", f"error::gsesim.{warning}")


@pytest.fixture(scope="session")
def waveguide():
    return Waveguide(SPEED)


@pytest.fixture()
def inner_gse(waveguide):
    return SingleGseParams(KAPPA_INNER, BETA_INNER, L_INNER, 4.35e9, waveguide)


@pytest.fixture()
def outer_gse(waveguide):
    return SingleGseParams(KAPPA_OUTER, BETA_OUTER, L_OUTER, 4.35e9, waveguide)


def two_point_emitter(name, f_res, beta, kappa, x0, length):
    return Emitter(name, f_res, beta, (kappa, kappa), (x0, x0 + length))


@pytest.fixture()
def nested_topology():
    outer = two_point_emitter("outer", 4.35e9, BETA_OUTER, KAPPA_OUTER, 0.0, L_OUTER)
    inner = two_point_emitter(
        "inner", 4.35e9, BETA_INNER, KAPPA_INNER, (L_OUTER - L_INNER) / 2, L_INNER
    )
    return Topology((outer, inner))


def grid_around(f0, half_span, n=2001):
    return FrequencyGrid(f0 - half_span, f0 + half_span, n)


def resonance_at_phase_multiple(n, length=L_INNER, speed=SPEED):
    """Frequency whose propagation phase across `length` is exactly 2*pi*n."""
    return n * speed / length


# finite extremes, subnormals and non-finite values
EXTREME = st.sampled_from([0.0, 5e-324, 2.2e-308, 1e-300, 1e-12, 1e12, 1e300, 1.7976931348623157e308,
                           math.inf, math.nan])


def with_extremes(draw, numbers):
    """numbers with one to four of its entries replaced by EXTREME values of either sign."""
    numbers = list(numbers)
    for i, x, negative in draw(st.lists(st.tuples(st.integers(0, len(numbers) - 1), EXTREME, st.booleans()),
                                        min_size=1, max_size=4)):
        numbers[i] = -x if negative else x
    return numbers


def rng(seed):
    return np.random.default_rng(seed)


def fresh_python(*args, cwd=None, env=None):
    """Run the interpreter on args in a new process that imports this gsesim, with env added."""
    src = os.path.dirname(os.path.dirname(gsesim.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": path, **(env or {})},
                          capture_output=True, text=True, timeout=120)

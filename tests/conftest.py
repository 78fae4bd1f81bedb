import numpy as np
import pytest

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


def pytest_configure(config):
    # an unasserted PassivityWarning fails the test. This sits here, not in
    # pyproject's filterwarnings, which also governs perfbench/selftest.py:
    # its fixtures run the benchmark's non-passive layouts without asserting it
    config.addinivalue_line("filterwarnings", "error::gsesim.multipoint.PassivityWarning")


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


def rng(seed):
    return np.random.default_rng(seed)

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gsesim.core import (
    Emitter,
    FrequencyGrid,
    ModelError,
    Spectrum,
    Topology,
    Waveguide,
    classify_topology,
    field_to_frequency,
    phase,
)
from conftest import SPEED, L_INNER, two_point_emitter

TWO_PI = 2.0 * math.pi


class TestPhase:
    def test_one_wavelength_identity(self):
        wg = Waveguide(SPEED)
        f = SPEED / L_INNER  # about 393.719 MHz
        assert phase(f, L_INNER, wg) == pytest.approx(TWO_PI, rel=1e-15)

    def test_device_working_point(self):
        phi = phase(4.35e9, L_INNER, Waveguide(SPEED))
        assert phi / TWO_PI == pytest.approx(11.04847, abs=1e-5)
        assert math.remainder(phi, TWO_PI) == pytest.approx(0.30452, abs=1e-4)
        # direct arithmetic cross-check
        assert phi == TWO_PI * 4.35e9 * L_INNER / SPEED

    def test_zero_length(self):
        assert phase(1e9, 0.0, Waveguide(SPEED)) == 0.0

    @given(
        f=st.floats(1e6, 1e10),
        a=st.floats(0, 0.5),
        b=st.floats(0, 0.5),
    )
    def test_linear_in_length(self, f, a, b):
        wg = Waveguide(SPEED)
        total = phase(f, a + b, wg)
        assert total == pytest.approx(phase(f, a, wg) + phase(f, b, wg), rel=1e-12)

    def test_rejects_bad_input(self):
        wg = Waveguide(SPEED)
        with pytest.raises(ModelError):
            phase(-1.0, 0.1, wg)
        with pytest.raises(ModelError):
            phase(1e9, -0.1, wg)
        with pytest.raises(ModelError):
            phase(math.nan, 0.1, wg)


class TestClassification:
    def test_nested(self):
        outer = two_point_emitter("o", 4e9, 0.0, 1e6, 0.0, 0.1656)
        inner = two_point_emitter("i", 4e9, 0.0, 1e6, 0.0414, 0.0828)
        assert classify_topology(Topology((outer, inner))) == "nested"
        # symmetric under relabeling
        assert classify_topology(Topology((inner, outer))) == "nested"

    def test_braided(self):
        a = two_point_emitter("a", 4e9, 0.0, 1e6, 0.0, 0.08)
        b = two_point_emitter("b", 4e9, 0.0, 1e6, 0.04, 0.08)
        assert classify_topology(Topology((a, b))) == "braided"

    def test_separate(self):
        a = two_point_emitter("a", 4e9, 0.0, 1e6, 0.0, 0.05)
        b = two_point_emitter("b", 4e9, 0.0, 1e6, 0.06, 0.05)
        assert classify_topology(Topology((a, b))) == "separate"

    def test_single_and_general(self):
        a = two_point_emitter("a", 4e9, 0.0, 1e6, 0.0, 0.05)
        assert classify_topology(Topology((a,))) == "single"
        three = Emitter("t", 4e9, 0.0, (1e6,) * 3, (0.2, 0.3, 0.4))
        assert classify_topology(Topology((a, three))) == "general"

    def test_duplicate_positions_rejected(self):
        a = two_point_emitter("a", 4e9, 0.0, 1e6, 0.0, 0.05)
        b = two_point_emitter("b", 4e9, 0.0, 1e6, 0.05, 0.05)
        with pytest.raises(ModelError):
            Topology((a, b))

    def test_empty_topology_rejected(self):
        with pytest.raises(ModelError, match="topology needs at least one emitter"):
            Topology(())


class TestFieldToFrequency:
    def test_working_point(self):
        assert field_to_frequency(0.155) == pytest.approx(4.34e9)

    def test_with_anisotropy_offset(self):
        assert field_to_frequency(0.1, 0.005) == pytest.approx(2.94e9)

    def test_degenerate_rejected(self):
        with pytest.raises(ModelError):
            field_to_frequency(0.0, 0.0)

    @given(b=st.floats(0.01, 1.0), db=st.floats(0.0, 0.1))
    def test_affine_with_unit_slope(self, b, db):
        lo = field_to_frequency(b)
        hi = field_to_frequency(b + db)
        assert hi - lo == pytest.approx(28.0e9 * db, rel=1e-9, abs=1e-3)


class TestValidation:
    def test_emitter_invariants(self):
        with pytest.raises(ModelError):
            Emitter("x", -1.0, 0.0, (1e6,), (0.0,))
        with pytest.raises(ModelError):
            Emitter("x", 4e9, -1.0, (1e6,), (0.0,))
        with pytest.raises(ModelError):
            Emitter("x", 4e9, 0.0, (1e6, 1e6), (0.0,))
        with pytest.raises(ModelError):
            Emitter("x", 4e9, 0.0, (1e6, 1e6), (0.1, 0.1))
        with pytest.raises(ModelError):
            Emitter("x", 4e9, 0.0, (-1e6,), (0.0,))
        with pytest.raises(ModelError):
            Emitter("x", 4e9, 0.0, (), ())

    def test_waveguide_and_grid(self):
        with pytest.raises(ModelError):
            Waveguide(0.0)
        with pytest.raises(ModelError):
            FrequencyGrid(2e9, 1e9, 10)
        with pytest.raises(ModelError):
            FrequencyGrid(1e9, 2e9, 1)

    @pytest.mark.parametrize("n_points", [2.5, math.nan, math.inf, -math.inf, "5", True, 10**400],
                             ids=["fraction", "nan", "inf", "-inf", "string", "bool", "huge"])
    def test_grid_rejects_a_count_that_is_not_an_integer(self, n_points):
        # a fractional count used to build, then fail on first use with numpy's TypeError
        with pytest.raises(ModelError, match="grid requires"):
            FrequencyGrid(1e9, 2e9, n_points)

    @pytest.mark.parametrize("n_points", [5.0, np.int64(5)], ids=["float", "int64"])
    def test_grid_stores_an_integral_count_as_an_int(self, n_points):
        grid = FrequencyGrid(1e9, 2e9, n_points)
        assert type(grid.n_points) is int and grid.n_points == 5
        assert grid.frequencies.size == 5

    def test_spectrum_shape_and_finiteness(self):
        grid = FrequencyGrid(1e9, 2e9, 4)
        with pytest.raises(ModelError):
            Spectrum(grid, np.ones(3, dtype=complex))
        with pytest.raises(ModelError):
            Spectrum(grid, np.array([1, 2, 3, np.inf], dtype=complex))
        s = Spectrum(grid, np.full(4, 0.5 + 0.5j))
        assert s.magnitude == pytest.approx(np.full(4, abs(0.5 + 0.5j)))


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))])
def test_a_copied_grid_forms_its_own_read_only_points(duplicate):
    grid = FrequencyGrid(4.3e9, 4.4e9, 2001)
    f = grid.frequencies
    dup = duplicate(grid)
    assert dup == grid
    assert not dup.frequencies.flags.writeable
    assert dup.frequencies is dup.frequencies is not f
    assert np.array_equal(dup.frequencies, f)
    assert grid.frequencies is f


def test_every_gsesim_warning_derives_from_one_base():
    import importlib
    import pkgutil

    import gsesim
    from gsesim.core import GsesimWarning

    found = {}
    for info in pkgutil.iter_modules(gsesim.__path__):
        module = importlib.import_module(f"gsesim.{info.name}")
        found.update({name: cls for name, cls in vars(module).items()
                      if isinstance(cls, type) and issubclass(cls, Warning) and cls.__module__ == module.__name__})
    assert {"GsesimWarning", "MarkovWarning", "PassivityWarning", "DegeneracyWarning",
            "AnisotropyRegimeWarning"} <= set(found)
    assert all(issubclass(cls, GsesimWarning) for cls in found.values())

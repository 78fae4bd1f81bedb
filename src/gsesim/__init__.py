"""Giant-spin-ensemble waveguide spectroscopy: simulation and fitting."""

__version__ = "0.1.0"

from .core import (
    GAMMA_2PI,
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
from .single import SingleGseParams, giant_decay, lamb_shift, s21_single
from .nested import (
    FitFormParams,
    NestedParams,
    coupling_strengths,
    eigen_traces,
    map_nested_vs_detuning,
    s21_nested_fitform,
    s21_nested_matrix,
)
from .multipoint import EffectiveModel, build_effective, s_matrix
from .anisotropy import AnisotropyParams, angular_factor, resonance_full, resonance_simple
from .lambpv import PvResult, pv_closed, pv_quadrature
from .fitting import FitProblem, FitResult, fit, fit_global_geometry

__all__ = [
    "GAMMA_2PI",
    "Emitter",
    "FrequencyGrid",
    "ModelError",
    "Spectrum",
    "Topology",
    "Waveguide",
    "classify_topology",
    "field_to_frequency",
    "phase",
    "SingleGseParams",
    "giant_decay",
    "lamb_shift",
    "s21_single",
    "FitFormParams",
    "NestedParams",
    "coupling_strengths",
    "eigen_traces",
    "map_nested_vs_detuning",
    "s21_nested_fitform",
    "s21_nested_matrix",
    "EffectiveModel",
    "build_effective",
    "s_matrix",
    "AnisotropyParams",
    "angular_factor",
    "resonance_full",
    "resonance_simple",
    "PvResult",
    "pv_closed",
    "pv_quadrature",
    "FitProblem",
    "FitResult",
    "fit",
    "fit_global_geometry",
]

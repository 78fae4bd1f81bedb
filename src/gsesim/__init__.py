"""Giant-spin-ensemble waveguide spectroscopy: simulation and fitting.

The public names below resolve on first use (PEP 562), so `import gsesim`
loads no submodule and each command line pays only for the models it runs.
"""

import importlib

__version__ = "0.1.0"

# the public names of each submodule, in the order of __all__
_EXPORTS = {
    "core": (
        "GAMMA_2PI", "Emitter", "FrequencyGrid", "ModelError", "ParameterNameError",
        "Spectrum", "Topology", "Waveguide", "classify_topology", "field_to_frequency", "phase",
    ),
    "single": ("SingleGseParams", "giant_decay", "lamb_shift", "s21_single"),
    "nested": (
        "FitFormParams", "NestedParams", "coupling_strengths", "eigen_traces",
        "map_nested_vs_detuning", "s21_nested_fitform", "s21_nested_matrix",
    ),
    "multipoint": ("EffectiveModel", "build_effective", "s_matrix"),
    "anisotropy": ("AnisotropyParams", "angular_factor", "resonance_full", "resonance_simple"),
    "lambpv": ("PvResult", "pv_closed", "pv_quadrature"),
    "fitting": ("FitProblem", "FitResult", "fit", "fit_global_geometry"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    """Import the submodule that defines `name`, or that `name` is, on first access."""
    for module, names in _EXPORTS.items():
        if name == module:
            return importlib.import_module("." + module, __name__)
        if name in names:
            return getattr(importlib.import_module("." + module, __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

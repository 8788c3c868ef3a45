"""Density-matrix simulation of NMR quantum teleportation on a three-spin molecule.

The package loads lazily (PEP 562): ``import nmrteleport`` imports none of its
modules, and so not numpy; an export loads its module on first use.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> the names the package exports from it
    "channels": ("KrausChannel", "RelaxationParams", "dephasing_channel", "depolarizing_channel", "relaxation_channel"),
    "circuits": ("Circuit", "CorrectionTable", "bell_to_computational", "control_circuit", "correction_table",
                 "entangle_gate", "teleport_circuit"),
    "errors": ("ConfigError", "FitConvergenceError", "NumericalInvariantError", "UnphysicalBlochError",
               "UnsupportedGateError"),
    "experiment": ("DEFAULT_DELAYS", "CurveComparison", "DecayFit", "SweepConfig", "SweepRecord", "compare_curves",
                   "fit_decay", "fit_exponential", "run_sweep", "tomograph"),
    "nmr": ("FreeEvolution", "MoleculeModel", "PulseSchedule", "RfRotation", "SpinParams", "compile_gate", "tce_model"),
    "qstate": ("DensityMatrix", "lift_operator", "tensor_product"),
    "tomography": ("ProcessMap", "TomographyInputSet", "entanglement_fidelity", "state_tomography"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Load an export's module on first use, and keep the name here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

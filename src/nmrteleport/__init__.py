"""Density-matrix simulation of NMR quantum teleportation on a three-spin molecule."""

from .channels import (
    KrausChannel,
    RelaxationParams,
    dephasing_channel,
    depolarizing_channel,
    relaxation_channel,
)
from .circuits import (
    Circuit,
    CorrectionTable,
    bell_to_computational,
    control_circuit,
    correction_table,
    entangle_gate,
    teleport_circuit,
)
from .errors import (
    ConfigError,
    FitConvergenceError,
    NumericalInvariantError,
    UnphysicalBlochError,
    UnsupportedGateError,
)
from .experiment import (
    DEFAULT_DELAYS,
    CurveComparison,
    DecayFit,
    SweepConfig,
    SweepRecord,
    compare_curves,
    fit_decay,
    fit_exponential,
    run_sweep,
    tomograph,
)
from .nmr import (
    FreeEvolution,
    MoleculeModel,
    PulseSchedule,
    RfRotation,
    SpinParams,
    compile_gate,
    tce_model,
)
from .qstate import (
    DensityMatrix,
    lift_operator,
    tensor_product,
)
from .tomography import (
    ProcessMap,
    TomographyInputSet,
    entanglement_fidelity,
    state_tomography,
)

__version__ = "0.1.0"

"""Density-matrix simulation of NMR quantum teleportation on a three-spin molecule."""

from .channels import (
    KrausChannel,
    RelaxationParams,
    apply_channel,
    dephasing_channel,
    depolarizing_channel,
    measurement_dephasing,
    relaxation_channel,
)
from .circuits import (
    Circuit,
    CorrectionTable,
    GateEvent,
    bell_to_computational,
    control_circuit,
    correction_table,
    entangle_gate,
    run_circuit,
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
    build_process,
    compare_curves,
    fit_decay,
    fit_exponential,
    run_sweep,
)
from .nmr import (
    FreeEvolution,
    MoleculeModel,
    PulseSchedule,
    RfRotation,
    SpinParams,
    compile_gate,
    run_circuit_pulse,
    simulate_schedule,
    tce_model,
)
from .qstate import (
    DensityMatrix,
    PureState,
    bell_states,
    lift_operator,
    partial_trace,
    pauli_expectation,
    pauli_string,
    state_fidelity,
    tensor_product,
)
from .tomography import (
    ProcessMap,
    TomographyInputSet,
    entanglement_fidelity,
    entanglement_fidelity_from_kraus,
    process_tomography,
    state_tomography,
)

__version__ = "0.1.0"

"""Single-qubit quantum process tomography and entanglement fidelity.

A process is characterized by sending four linearly independent input
states through it, reconstructing each output from its Pauli expectation
values, and solving the exactly determined linear system for the Pauli
transfer matrix R[m][n] = tr(P_m E(P_n))/2 over the basis (I, X, Y, Z).
The chi matrix (E(rho) = sum chi_mn P_m rho P_n) follows by a fixed linear
basis change, and the entanglement fidelity with respect to the maximally
mixed input is chi[0][0] = tr(R)/4.

Basis ordering and the R <-> chi conversion convention are defined here and
nowhere else; all tests reference this single definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .channels import KrausChannel
from .errors import NumericalInvariantError, UnphysicalBlochError
from .qstate import (
    DensityMatrix,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    pauli_expectation,
    validate_density,
)

PAULI_BASIS = ("I", "X", "Y", "Z")
_PAULI_OPS = (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z)

BLOCH_EXCESS_TOL = 1e-6
TRANSFER_TRACE_TOL = 1e-9
CHI_HERMITICITY_TOL = 1e-9
CHI_TRACE_TOL = 1e-9
CHI_PSD_SLACK = 1e-8
ROUND_TRIP_TOL = 1e-10
FIDELITY_CONSISTENCY_TOL = 1e-9


def state_tomography(x: float, y: float, z: float) -> DensityMatrix:
    """Reconstruct a qubit state from its Bloch components (<X>, <Y>, <Z>).

    A Bloch vector up to 1e-6 beyond unit length is renormalized onto the
    Bloch sphere; anything longer is unphysical data and raises.
    """
    length = float(np.sqrt(x * x + y * y + z * z))
    if length > 1.0 + BLOCH_EXCESS_TOL:
        raise UnphysicalBlochError(f"Bloch vector length {length} exceeds 1")
    if length > 1.0:
        x, y, z = x / length, y / length, z / length
    matrix = (IDENTITY_2 + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / 2.0
    return DensityMatrix(1, matrix)


def _coords(rho: DensityMatrix) -> np.ndarray:
    """Pauli coordinates (tr(P_m rho)); component 0 is the trace."""
    return np.array([pauli_expectation(rho, label) for label in PAULI_BASIS])


def canonical_input_states() -> tuple[DensityMatrix, ...]:
    """|0>, |1>, |+>, |+i> as density matrices."""
    return (
        state_tomography(0.0, 0.0, 1.0),
        state_tomography(0.0, 0.0, -1.0),
        state_tomography(1.0, 0.0, 0.0),
        state_tomography(0.0, 1.0, 0.0),
    )


@dataclass(frozen=True, eq=False)
class TomographyInputSet:
    """Four single-qubit preparations that span operator space."""

    states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        if len(self.states) != 4 or any(s.num_qubits != 1 for s in self.states):
            raise ValueError("need exactly four single-qubit input states")
        coords = np.column_stack([_coords(s) for s in self.states])
        if np.linalg.cond(coords) > 1e9:
            raise ValueError("input states are not linearly independent as operators")
        coords.flags.writeable = False
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "_coordinate_matrix", coords)

    @classmethod
    def canonical(cls) -> TomographyInputSet:
        return cls(canonical_input_states())

    def coordinate_matrix(self) -> np.ndarray:
        """Read-only 4x4 matrix whose column n is the Pauli coordinates of input n."""
        return self._coordinate_matrix


@lru_cache(maxsize=1)
def _transfer_from_chi() -> np.ndarray:
    """16x16 map M with vec(R) = M vec(chi), fixed by the Pauli basis."""
    m = np.zeros((16, 16), dtype=complex)
    for l in range(4):
        for k in range(4):
            for a in range(4):
                for b in range(4):
                    m[4 * l + k, 4 * a + b] = (
                        np.trace(_PAULI_OPS[l] @ _PAULI_OPS[a] @ _PAULI_OPS[k] @ _PAULI_OPS[b]) / 2.0
                    )
    return m


def _chi_from_transfer(transfer: np.ndarray) -> np.ndarray:
    vec = np.linalg.solve(_transfer_from_chi(), transfer.astype(complex).reshape(16))
    return vec.reshape(4, 4)


def _transfer_from_chi_matrix(chi: np.ndarray) -> np.ndarray:
    vec = _transfer_from_chi() @ chi.reshape(16)
    if np.max(np.abs(vec.imag)) > ROUND_TRIP_TOL:
        raise NumericalInvariantError("transfer matrix reconstructed from chi is not real")
    return vec.real.reshape(4, 4)


@dataclass(frozen=True, eq=False)
class ProcessMap:
    """Reconstructed single-qubit process: Pauli transfer matrix and chi matrix."""

    transfer_matrix: np.ndarray
    chi_matrix: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.transfer_matrix, dtype=float)
        chi = np.asarray(self.chi_matrix, dtype=complex)
        if r.shape != (4, 4) or chi.shape != (4, 4):
            raise ValueError("transfer and chi matrices must be 4x4")
        if abs(r[0, 0] - 1.0) > TRANSFER_TRACE_TOL:
            raise NumericalInvariantError(f"R[0][0] = {r[0, 0]} violates trace preservation")
        try:  # a CPTP process has a density-matrix-like chi
            validate_density(chi, CHI_HERMITICITY_TOL, CHI_TRACE_TOL, CHI_PSD_SLACK)
        except NumericalInvariantError as exc:
            raise NumericalInvariantError(f"chi matrix: {exc}") from exc
        r = r.copy()
        chi = chi.copy()
        r.flags.writeable = False
        chi.flags.writeable = False
        object.__setattr__(self, "transfer_matrix", r)
        object.__setattr__(self, "chi_matrix", chi)


def process_tomography(
    evaluate: Callable[[DensityMatrix], DensityMatrix],
    inputs: TomographyInputSet | None = None,
    clamp_positive: bool = False,
) -> ProcessMap:
    """Characterize a linear trace-preserving map from four input/output pairs."""
    input_set = inputs if inputs is not None else TomographyInputSet.canonical()
    return reconstruct_process([evaluate(s) for s in input_set.states], input_set, clamp_positive)


def reconstruct_process(
    outputs: Sequence[DensityMatrix],
    inputs: TomographyInputSet,
    clamp_positive: bool = False,
) -> ProcessMap:
    """Process map from the outputs of the four ``inputs``, in their order.

    Each output is itself reconstructed by state tomography from its Bloch
    components before the transfer matrix is solved for, mirroring how the
    data would be taken.  ``clamp_positive`` projects the chi matrix onto
    the positive cone (for use with deliberately miscalibrated pulses);
    exact simulations never need it.
    """
    v = inputs.coordinate_matrix()
    coords = []
    for out in outputs:
        if not isinstance(out, DensityMatrix) or out.num_qubits != 1:
            raise ValueError("process under test must return single-qubit density matrices")
        reconstructed = state_tomography(
            pauli_expectation(out, "X"),
            pauli_expectation(out, "Y"),
            pauli_expectation(out, "Z"),
        )
        coords.append(_coords(reconstructed))
    w = np.column_stack(coords)
    try:
        transfer = np.linalg.solve(v.T, w.T).T
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular tomography reconstruction system") from exc
    chi = _chi_from_transfer(transfer)
    if clamp_positive:
        vals, vecs = np.linalg.eigh((chi + chi.conj().T) / 2.0)
        vals = np.clip(vals, 0.0, None)
        chi = (vecs * vals) @ vecs.conj().T
        chi = chi / np.trace(chi)
        transfer = _transfer_from_chi_matrix(chi)
    round_trip = _transfer_from_chi_matrix(chi)
    if np.max(np.abs(round_trip - transfer)) > ROUND_TRIP_TOL:
        raise NumericalInvariantError("chi/transfer round trip failed")
    return ProcessMap(transfer, chi)


def entanglement_fidelity(process: ProcessMap) -> float:
    """chi[0][0], cross-checked against tr(R)/4.

    1 means the process preserves quantum information perfectly, 0.5 is the
    best any classical transmission can do, and 0.25 is total randomization.
    """
    fe_chi = float(process.chi_matrix[0, 0].real)
    fe_transfer = float(np.trace(process.transfer_matrix)) / 4.0
    if abs(fe_chi - fe_transfer) > FIDELITY_CONSISTENCY_TOL:
        raise NumericalInvariantError(
            f"fidelity mismatch: chi00={fe_chi} vs tr(R)/4={fe_transfer}"
        )
    return min(max(fe_chi, 0.0), 1.0)


def entanglement_fidelity_from_kraus(elements) -> float:
    """Independent fidelity route: Fe = sum_i |tr(A_i)|^2 / 4.

    Serves as the oracle against which the tomography pipeline is checked;
    it never goes through a reconstruction.
    """
    mats = KrausChannel((0,), tuple(elements)).elements  # checks trace preservation
    return float(sum(abs(np.trace(a)) ** 2 for a in mats)) / 4.0

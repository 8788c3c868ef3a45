"""Single-qubit quantum process tomography and entanglement fidelity.

A process is characterized by its outputs for the four fixed input states
|0>, |1>, |+> and |+i>, given as one stack (the circuit executor runs the
four inputs together): each output is reconstructed from its Pauli
expectation values, then the Pauli transfer matrix R[m][n] = tr(P_m E(P_n))/2
over the basis (I, X, Y, Z) follows from the exact dual of the inputs,
E(I) = E(|0>) + E(|1>), E(Z) = E(|0>) - E(|1>), E(X) = 2E(|+>) - E(I) and
E(Y) = 2E(|+i>) - E(I).  The chi matrix (E(rho) = sum chi_mn P_m rho P_n)
follows by the fixed basis change vec(R) = M vec(chi), inverted as
vec(chi) = M† vec(R)/4 because M M† = 4I for the Pauli basis, and the
entanglement fidelity with respect to the maximally mixed input is
chi[0][0] = tr(R)/4.  Neither step solves a linear system, and both identities
are checked exactly, once, where they are built.

The inputs are built once per process, as one read-only stack, and shared.
A reconstruction (:func:`reconstruct_process`) returns the transfer and chi
matrices as two read-only stacks, and checks each rule once over its whole
stack (the output states, then R[0][0] = 1 and the chi matrices).  The
states rebuilt from their Bloch vectors are not checked again: (I + r.sigma)/2
with |r| <= 1 is a density matrix by construction.  The fidelity rule is
stated once, in :func:`_fidelities`: chi[0][0] of every map of a stack,
checked against tr(R)/4 in one reduction and clipped into [0, 1].

Basis ordering and the R <-> chi conversion convention are defined here and
nowhere else; all tests reference this single definition.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericalInvariantError, UnphysicalBlochError
from .qstate import (
    DensityMatrix,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    _violation,
    real_expectations,
    validate_density,
)

PAULI_BASIS = ("I", "X", "Y", "Z")
_PAULI_OPS = np.stack([PAULIS[p] for p in PAULI_BASIS])

BLOCH_EXCESS_TOL = 1e-6
TRANSFER_TRACE_TOL = 1e-9
CHI_HERMITICITY_TOL = 1e-9
CHI_TRACE_TOL = 1e-9
CHI_PSD_SLACK = 1e-8
FIDELITY_CONSISTENCY_TOL = 1e-9


def state_tomography(x: float, y: float, z: float) -> DensityMatrix:
    """Reconstruct a qubit state from its Bloch components (<X>, <Y>, <Z>).

    A Bloch vector up to 1e-6 beyond unit length is renormalized onto the
    Bloch sphere; anything longer is unphysical data and raises.
    """
    return DensityMatrix(1, _bloch_matrices(np.array([x, y, z], dtype=float)))


def _bloch_matrices(bloch: np.ndarray) -> np.ndarray:
    """(I + xX + yY + zZ)/2 for every Bloch vector of a ``(..., 3)`` array, after the
    Bloch rule of :func:`state_tomography` (NaN fails it); unvalidated."""
    x, y, z = bloch[..., 0], bloch[..., 1], bloch[..., 2]
    length = np.sqrt(x * x + y * y + z * z)
    worst = float(np.max(length))
    if not worst <= 1.0 + BLOCH_EXCESS_TOL:
        raise UnphysicalBlochError(f"Bloch vector length {worst} exceeds 1")
    scale = np.where(length > 1.0, length, 1.0)
    x, y, z = (c[..., None, None] / scale[..., None, None] for c in (x, y, z))
    return (IDENTITY_2 + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / 2.0


def _transfer_matrices(w: np.ndarray) -> np.ndarray:
    """R from ``w[..., n, m]``, Pauli coordinate m of the output of input n, by the exact
    dual of the inputs: column P of R holds the coordinates of E(P)/2."""
    w0, w1, w2, w3 = np.moveaxis(w, -2, 0)
    e_i = (w0 + w1) / 2.0
    return np.stack([e_i, w2 - e_i, w3 - e_i, (w0 - w1) / 2.0], axis=-1)


@lru_cache(maxsize=1)
def _canonical_inputs() -> np.ndarray:
    """|0>, |1>, |+>, |+i> as one read-only ``(4, 2, 2)`` stack, built on the first call
    and shared; :func:`_transfer_matrices` must take their own Pauli coordinates
    exactly to the identity, so it is their exact dual."""
    blochs = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    stack = np.stack([state_tomography(*bloch).matrix for bloch in blochs])
    if not np.array_equal(_transfer_matrices(real_expectations(stack, _PAULI_OPS)), np.eye(4)):
        raise NumericalInvariantError("the transfer recipe is not the exact dual of the input states")
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=1)
def _transfer_from_chi() -> np.ndarray:
    """The read-only 16x16 map M with vec(R) = M vec(chi), fixed by the Pauli basis;
    M M† = 4I must hold exactly, so vec(chi) = M† vec(R)/4."""
    p = _PAULI_OPS  # M[4l+k, 4a+b] = tr(P_l P_a P_k P_b)/2
    m = (np.einsum("lij,ajm,kmn,bni->lkab", p, p, p, p) / 2.0).reshape(16, 16)
    if not np.array_equal(np.einsum("ij,kj->ik", m, m.conj()), 4.0 * np.eye(16)):
        raise NumericalInvariantError("the Pauli chi-to-transfer map is not twice a unitary")
    m.flags.writeable = False
    return m


def _check_process(transfer: np.ndarray, chi: np.ndarray) -> None:
    """The process rule on one map or on ``(..., 4, 4)`` stacks of them: R[0][0] = 1
    (trace preservation) and a density-matrix-like chi (complete positivity).  NaN
    fails both; a violation raises with the ``index`` of the worst map."""
    r00 = transfer[..., 0, 0]
    deviations = np.abs(r00 - 1.0)
    if not float(np.max(deviations)) <= TRANSFER_TRACE_TOL:
        worst = np.argmax(deviations)
        raise _violation(f"R[0][0] = {r00.flat[worst]} violates trace preservation", worst, r00.shape)
    try:
        validate_density(chi, CHI_HERMITICITY_TOL, CHI_TRACE_TOL, CHI_PSD_SLACK)
    except NumericalInvariantError as exc:
        error = NumericalInvariantError(f"chi matrix: {exc}")
        error.index = exc.index
        raise error from exc


def reconstruct_process(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transfer and chi matrices from a ``(..., 4, 2, 2)`` stack of outputs of
    the four canonical inputs (in their order): two checked, read-only ``(N, 4, 4)``
    stacks, one map per leading index in C order.

    Each output must be a density matrix, and is itself reconstructed by
    state tomography from its Bloch components before the transfer matrix
    is formed, mirroring how the data would be taken.  Every check runs
    once over the whole stack, and a violation raises with the ``index`` of the
    worst member: (..., input) for an output state, (...) for a map.  No step
    mixes members, so a map is the same bit for bit whatever stack it is in.
    """
    outputs = np.asarray(outputs, dtype=complex)
    if outputs.shape[-3:] != (4, 2, 2):
        raise ValueError(f"outputs of shape {outputs.shape} are not four single-qubit states")
    validate_density(outputs)
    # (I + r.sigma)/2 with |r| <= 1 is a density matrix by construction: not checked again.
    states = _bloch_matrices(real_expectations(outputs, _PAULI_OPS[1:]))
    transfer = _transfer_matrices(real_expectations(states, _PAULI_OPS))
    vec_r = transfer.reshape(transfer.shape[:-2] + (16,))
    chi = (np.einsum("ji,...j->...i", _transfer_from_chi().conj(), vec_r) / 4.0).reshape(transfer.shape)
    _check_process(transfer, chi)
    transfer, chi = np.array(transfer.reshape(-1, 4, 4)), np.array(chi.reshape(-1, 4, 4))
    transfer.flags.writeable = False
    chi.flags.writeable = False
    return transfer, chi


def _fidelities(transfer: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """The entanglement fidelity chi[0][0] of every map of ``(..., 4, 4)`` stacks,
    checked against tr(R)/4 in one reduction and clipped into [0, 1].  NaN fails
    the check; a mismatch raises with the ``index`` of the worst map.

    1 means the process preserves quantum information perfectly, 0.5 is the
    best any classical transmission can do, and 0.25 is total randomization.
    """
    fe_chi = chi[..., 0, 0].real
    fe_transfer = transfer.trace(axis1=-2, axis2=-1) / 4.0
    mismatch = np.abs(fe_chi - fe_transfer)
    if not float(mismatch.max()) <= FIDELITY_CONSISTENCY_TOL:
        worst = np.argmax(mismatch)
        message = f"fidelity mismatch: chi00={float(fe_chi.flat[worst])} vs tr(R)/4={float(fe_transfer.flat[worst])}"
        raise _violation(message, worst, fe_chi.shape)
    # min(max(x, 0), 1) as Python takes it, so a -0.0 stays -0.0.
    return np.where(fe_chi < 0.0, 0.0, np.where(fe_chi > 1.0, 1.0, fe_chi))

"""Single-qubit quantum process tomography and entanglement fidelity.

A process is characterized by its outputs for the four fixed input states
|0>, |1>, |+> and |+i>, given as one stack (the circuit executor runs the
four inputs together): each output's Bloch vector r is read once, and after
the Bloch rule (1, r) are its Pauli coordinates, those of the state that state
tomography rebuilds from r.  The Pauli transfer matrix R[m][n] =
tr(P_m E(P_n))/2 over the basis (I, X, Y, Z) follows from the exact dual of
the inputs, E(I) = E(|0>) + E(|1>), E(Z) = E(|0>) - E(|1>),
E(X) = 2E(|+>) - E(I) and E(Y) = 2E(|+i>) - E(I).  The chi matrix
(E(rho) = sum chi_mn P_m rho P_n) follows by the fixed basis change
vec(R) = M vec(chi), inverted as vec(chi) = M† vec(R)/4 because M M† = 4I for
the Pauli basis, and the entanglement fidelity with respect to the maximally
mixed input is chi[0][0] = tr(R)/4.  Neither step solves a linear system, and
both inverses are checked exactly, once, where they are built.

The inputs are built once per process, as one read-only stack, and shared.
A reconstruction (:func:`reconstruct_process`) returns the transfer and chi
matrices as two read-only stacks, and checks each rule once over its whole
stack: the output states, the Bloch rule, then complete positivity, the one
process check (chi a density matrix, its positivity slack widened).  The other
process identities hold by construction for outputs that pass the first two,
and ``test_reconstruction_identities_hold_by_construction`` pins them: R[0][0]
= (1 + 1)/2 = 1; chi = chi† bit for bit (the coefficients of chi_ab and chi_ba
are conjugates in {0, +-1, +-i}, summed in the same order); tr chi = R[0][0] up
to one rounding; and chi[0][0] = tr(R)/4 (column 0 of M is vec(I)), which
:func:`_fidelities` clips into [0, 1].

Basis ordering and the R <-> chi conversion convention are defined here and
nowhere else; all tests reference this single definition.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericalInvariantError
from .qstate import DensityMatrix, PAULIS, real_expectations, validate_density

PAULI_BASIS = ("I", "X", "Y", "Z")
_PAULI_OPS = np.stack([PAULIS[p] for p in PAULI_BASIS])

BLOCH_EXCESS_TOL = 1e-6
CHI_PSD_SLACK = 1e-8


def state_tomography(x: float, y: float, z: float) -> DensityMatrix:
    """Reconstruct a qubit state from its Bloch components (<X>, <Y>, <Z>).

    A Bloch vector up to 1e-6 beyond unit length is renormalized onto the
    Bloch sphere; anything longer is unphysical data and raises.
    """
    w = _coordinates(np.array([x, y, z], dtype=float))
    return DensityMatrix(1, sum(c * p for c, p in zip(w, _PAULI_OPS)) / 2.0)


def _coordinates(bloch: np.ndarray) -> np.ndarray:
    """The Pauli coordinates w = (1, r) of the state with Bloch vector r, for every r
    of a ``(..., 3)`` array, after the Bloch rule of :func:`state_tomography` (NaN
    fails it)."""
    x, y, z = bloch[..., 0], bloch[..., 1], bloch[..., 2]
    length = np.sqrt(x * x + y * y + z * z)
    worst = float(np.max(length))
    if not worst <= 1.0 + BLOCH_EXCESS_TOL:
        raise NumericalInvariantError(f"Bloch vector length {worst} exceeds 1")
    r = bloch / np.where(length > 1.0, length, 1.0)[..., None]
    return np.concatenate([np.ones(r.shape[:-1] + (1,)), r], axis=-1)


def _transfer_matrices(w: np.ndarray) -> np.ndarray:
    """R from ``w[..., n, m]``, Pauli coordinate m of the output of input n, by the exact
    dual of the inputs: column P of R holds the coordinates of E(P)/2."""
    w0, w1, w2, w3 = np.moveaxis(w, -2, 0)
    e_i = (w0 + w1) / 2.0
    return np.stack([e_i, w2 - e_i, w3 - e_i, (w0 - w1) / 2.0], axis=-1)


@lru_cache(maxsize=1)
def _canonical_inputs() -> np.ndarray:
    """|0>, |1>, |+>, |+i> as one read-only ``(4, 2, 2)`` stack, built on the first call
    and shared; the chain every reconstruction runs (Bloch vectors, :func:`_coordinates`,
    :func:`_transfer_matrices`) must take them exactly to the identity process."""
    blochs = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    stack = np.stack([state_tomography(*bloch).matrix for bloch in blochs])
    if not np.array_equal(_transfer_matrices(_coordinates(real_expectations(stack, _PAULI_OPS[1:]))), np.eye(4)):
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


def reconstruct_process(outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transfer and chi matrices from a ``(..., 4, 2, 2)`` stack of outputs of
    the four canonical inputs (in their order), a checked circuit's readout: two
    checked, read-only ``(N, 4, 4)`` stacks, one map per leading index in C order.

    Each output must be a density matrix, and its Bloch vector is read once, from
    its Hermitian part; each chi must be completely positive.  Every check runs
    once over the whole stack, and a violation raises with the ``index`` of the
    worst member: (..., input) for an output state, (...) for a map.  No step
    mixes members, so a map is the same bit for bit whatever stack it is in.
    """
    bloch = real_expectations(validate_density(outputs), _PAULI_OPS[1:])
    transfer = _transfer_matrices(_coordinates(bloch))
    vec_r = transfer.reshape(transfer.shape[:-2] + (16,))
    chi = (np.einsum("ji,...j->...i", _transfer_from_chi().conj(), vec_r) / 4.0).reshape(transfer.shape)
    try:
        validate_density(chi, psd_slack=CHI_PSD_SLACK)
    except NumericalInvariantError as exc:
        error = NumericalInvariantError(f"chi matrix: {exc}")
        error.index = exc.index
        raise error from exc
    transfer, chi = np.array(transfer.reshape(-1, 4, 4)), np.array(chi.reshape(-1, 4, 4))
    transfer.flags.writeable = False
    chi.flags.writeable = False
    return transfer, chi


def _fidelities(chi: np.ndarray) -> np.ndarray:
    """The entanglement fidelity chi[0][0] of every map of a ``(..., 4, 4)`` stack of
    reconstructed chi matrices, clipped into [0, 1]; it equals tr(R)/4 by construction.

    1 means the process preserves quantum information perfectly, 0.5 is the
    best any classical transmission can do, and 0.25 is total randomization.
    """
    fe = chi[..., 0, 0].real
    # min(max(x, 0), 1) as Python takes it, so a -0.0 stays -0.0.
    return np.where(fe < 0.0, 0.0, np.where(fe > 1.0, 1.0, fe))

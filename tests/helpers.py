"""Randomized-state generators and independent oracles shared by the tests.

The oracles here deliberately avoid the package's own code paths (plain
numpy sums, explicit index loops, closed-form exponentials) so that the
checks stay meaningful.
"""

import math

import numpy as np

from nmrteleport.qstate import DensityMatrix, PureState, pauli_expectation
from nmrteleport.tomography import state_tomography


def random_pure_state(rng, num_qubits: int = 1) -> PureState:
    size = 2**num_qubits
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps /= np.linalg.norm(amps)
    return PureState(num_qubits, amps)


def random_density(rng, num_qubits: int = 1, rank: int | None = None) -> DensityMatrix:
    dim = 2**num_qubits
    rank = rank or dim
    weights = rng.random(rank)
    weights /= weights.sum()
    matrix = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        psi = random_pure_state(rng, num_qubits)
        matrix += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(num_qubits, matrix)


def random_cptp_elements(rng, num_elements: int = 3) -> list[np.ndarray]:
    """Random single-qubit Kraus set: blocks of a random isometry C^2 -> C^(2m)."""
    g = rng.normal(size=(2 * num_elements, 2)) + 1j * rng.normal(size=(2 * num_elements, 2))
    q, _ = np.linalg.qr(g)
    return [q[2 * i : 2 * i + 2, :].copy() for i in range(num_elements)]


def apply_elements(matrix: np.ndarray, elements) -> np.ndarray:
    """Plain sum_i A rho A-dagger, no package machinery."""
    out = np.zeros_like(matrix, dtype=complex)
    for a in elements:
        out += a @ matrix @ a.conj().T
    return out


def brute_reduced(matrix: np.ndarray, num_qubits: int, keep) -> np.ndarray:
    """Partial trace by explicit index contraction over every entry."""
    keep = sorted(keep)
    traced = [q for q in range(num_qubits) if q not in keep]
    dim_out = 2 ** len(keep)
    out = np.zeros((dim_out, dim_out), dtype=complex)
    for i in range(2**num_qubits):
        for j in range(2**num_qubits):
            bits_i = [(i >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
            bits_j = [(j >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
            if any(bits_i[q] != bits_j[q] for q in traced):
                continue
            row = 0
            col = 0
            for q in keep:
                row = (row << 1) | bits_i[q]
                col = (col << 1) | bits_j[q]
            out[row, col] += matrix[i, j]
    return out


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over a global phase of max|a - e^{i phi} b|."""
    overlap = np.sum(np.conj(b) * a)
    phase = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return float(np.max(np.abs(a - phase * b)))


CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def rotation_z(angle: float) -> np.ndarray:
    """exp(-i*angle*Z/2)."""
    phase = np.exp(-0.5j * angle)
    return np.array([[phase, 0.0], [0.0, np.conj(phase)]], dtype=complex)


def relaxation_fe(duration: float, t1: float, t2: float) -> float:
    """Closed-form entanglement fidelity of T1/T2 relaxation.

    From Fe = sum_i |tr A_i|^2 / 4 for amplitude damping composed with pure
    dephasing: Fe(t) = (1 + e^{-t/T1} + 2 e^{-t/T2}) / 4.
    """

    def decay(tau: float) -> float:
        if math.isinf(tau):
            return 1.0
        if math.isinf(duration):
            return 0.0
        return math.exp(-duration / tau)

    return (1.0 + decay(t1) + 2.0 * decay(t2)) / 4.0


SPANNING_1Q = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
)


PAULI_LABELS = ("I", "X", "Y", "Z")


def per_output_reconstruction(outputs, inputs) -> tuple[np.ndarray, np.ndarray]:
    """Transfer and chi matrices of a process, one output at a time.

    Each output (a DensityMatrix) goes through Pauli expectations, state
    tomography of its Bloch vector and the coordinates of that state; one
    linear solve then gives R, and a second one chi from the 16x16 map
    vec(R) = M vec(chi), built here with M[4l+k, 4a+b] = tr(P_l P_a P_k P_b)/2.
    """
    coords = []
    for out in outputs:
        state = state_tomography(*(pauli_expectation(out, p) for p in PAULI_LABELS[1:]))
        coords.append([pauli_expectation(state, p) for p in PAULI_LABELS])
    w = np.array(coords).T
    transfer = np.linalg.solve(inputs.coordinate_matrix().T, w.T).T
    ops = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    m = np.zeros((16, 16), dtype=complex)
    for l, k, a, b in np.ndindex(4, 4, 4, 4):
        m[4 * l + k, 4 * a + b] = np.trace(ops[l] @ ops[a] @ ops[k] @ ops[b]) / 2.0
    chi = np.linalg.solve(m, transfer.astype(complex).reshape(16)).reshape(4, 4)
    return transfer, chi


def teleport_fe(duration: float, t1_data: float, t1_ancilla: float, t1_target: float, t2_target: float) -> float:
    """Closed-form entanglement fidelity of the teleport circuit after a delay.

    After the Bell rotation the data and ancilla spins hold computational
    basis states, each bit 1 with probability 1/2, so carbon dephasing does
    nothing and amplitude damping relabels a 1 as 0 with probability
    g = (1 - e^{-t/T1})/2.  A relabeled data bit applies the wrong Z
    correction, a relabeled ancilla bit the wrong X, both the wrong Y.  The
    target meanwhile relaxes with the Pauli-diagonal chi of T1/T2 relaxation,
    and a Pauli P after it leaves Fe = chi_PP:

        Fe = (1-g_D)(1-g_A) chi_II + g_D (1-g_A) chi_ZZ + (1-g_D) g_A chi_XX + g_D g_A chi_YY.
    """

    def decay(tau: float) -> float:
        if math.isinf(tau):
            return 1.0
        if math.isinf(duration):
            return 0.0
        return math.exp(-duration / tau)

    g_data, g_ancilla = (1.0 - decay(t1_data)) / 2.0, (1.0 - decay(t1_ancilla)) / 2.0
    chi_ii = (1.0 + decay(t1_target) + 2.0 * decay(t2_target)) / 4.0
    chi_xx = chi_yy = (1.0 - decay(t1_target)) / 4.0
    chi_zz = (1.0 + decay(t1_target) - 2.0 * decay(t2_target)) / 4.0
    return (
        (1.0 - g_data) * (1.0 - g_ancilla) * chi_ii
        + g_data * (1.0 - g_ancilla) * chi_zz
        + (1.0 - g_data) * g_ancilla * chi_xx
        + g_data * g_ancilla * chi_yy
    )

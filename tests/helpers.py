"""Randomized-state generators and independent oracles shared by the tests.

The oracles here deliberately avoid the package's own code paths (plain
numpy sums, explicit index loops, closed-form exponentials) so that the
checks stay meaningful.
"""

import math

import numpy as np

from nmrteleport.channels import KrausChannel
from nmrteleport.circuits import Circuit, prepare, run_events
from nmrteleport.experiment import tomograph
from nmrteleport.nmr import MoleculeModel, PulseSchedule, RfRotation, realize_pulses
from nmrteleport.qstate import PAULIS, DensityMatrix, lift_operator, real_expectations
from nmrteleport.tomography import ProcessMap, state_tomography


def random_pure_state(rng, num_qubits: int = 1) -> np.ndarray:
    """Normalized amplitudes of a random pure state."""
    size = 2**num_qubits
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return amps / np.linalg.norm(amps)


def projector(amplitudes) -> np.ndarray:
    """|psi><psi| of a state vector."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    return np.outer(amplitudes, amplitudes.conj())


def basis_state(bits: str) -> np.ndarray:
    """Amplitudes of a computational basis state, e.g. ``'01'`` for |01>."""
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[int(bits, 2)] = 1.0
    return amps


_R = 1.0 / np.sqrt(2.0)
# (|00>+|11>, |00>-|11>, |01>+|10>, |01>-|10>)/sqrt(2)
BELL_STATES = tuple(
    np.array(v, dtype=complex) for v in ([_R, 0, 0, _R], [_R, 0, 0, -_R], [0, _R, _R, 0], [0, _R, -_R, 0])
)


def random_density(rng, num_qubits: int = 1, rank: int | None = None) -> DensityMatrix:
    dim = 2**num_qubits
    rank = rank or dim
    weights = rng.random(rank)
    weights /= weights.sum()
    matrix = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        matrix += w * projector(random_pure_state(rng, num_qubits))
    return DensityMatrix(num_qubits, matrix)


def hermitian_with_least_eigenvalue(rng, least: float, dim: int = 8) -> np.ndarray:
    """A random Hermitian unit-trace matrix whose least eigenvalue is ``least``, up to
    rounding; the other eigenvalues are positive and well apart from it."""
    rest = rng.random(dim - 1) + 0.1
    spectrum = np.concatenate([[least], rest * (1.0 - least) / rest.sum()])
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    matrix = (q * spectrum) @ q.conj().T
    return (matrix + matrix.conj().T) / 2.0


def count_eigvalsh(monkeypatch) -> list:
    """One entry per ``np.linalg.eigvalsh`` call from now on."""
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args, **kwargs: calls.append(1) or eigvalsh(*args, **kwargs))
    return calls


def random_cptp_elements(rng, num_elements: int = 3) -> list[np.ndarray]:
    """Random single-qubit Kraus set: blocks of a random isometry C^2 -> C^(2m)."""
    g = rng.normal(size=(2 * num_elements, 2)) + 1j * rng.normal(size=(2 * num_elements, 2))
    q, _ = np.linalg.qr(g)
    return [q[2 * i : 2 * i + 2, :].copy() for i in range(num_elements)]


def run_inputs(circuit: Circuit, inputs, pulse_model: MoleculeModel | None = None) -> np.ndarray:
    """Final states of a one-delay circuit for data-qubit inputs (state vectors),
    every other qubit starting in |0>: a ``(len(inputs), 2^n, 2^n)`` stack.  With
    ``pulse_model``, the gates are those the pulse engine realizes on it."""
    stack = prepare(np.stack([projector(psi) for psi in inputs]), circuit.num_qubits)
    events = circuit.events if pulse_model is None else realize_pulses(circuit.events, pulse_model)
    return run_events(events, stack[None])[0]


def process_map(run) -> ProcessMap:
    """The process map of ``run`` on the one-qubit stack of the four canonical inputs."""
    (pm,) = tomograph(run, 1, 0)
    return pm


def channel_map(channel: KrausChannel) -> ProcessMap:
    """The process map of one channel step run by the executor."""
    return process_map(lambda stack: run_events((channel,), stack))


def apply_elements(matrix: np.ndarray, elements) -> np.ndarray:
    """Plain sum_i A rho A-dagger on a matrix or a stack, no package machinery."""
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
        state = state_tomography(*(pauli_expectation(out.matrix, p) for p in PAULI_LABELS[1:]))
        coords.append([pauli_expectation(state.matrix, p) for p in PAULI_LABELS])
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


def pauli_string(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis named by ``label``, e.g. ``'IXZ'``."""
    if not label or any(c not in PAULIS for c in label):
        raise ValueError(f"invalid Pauli label {label!r}")
    op = PAULIS[label[0]]
    for c in label[1:]:
        op = np.kron(op, PAULIS[c])
    return op


def pauli_expectation(matrix: np.ndarray, label: str) -> float:
    """tr(rho * P) of one density matrix for the Pauli string ``label``."""
    if 2 ** len(label) != len(matrix):
        raise ValueError(f"label {label!r} does not match a {len(matrix)}-dimensional state")
    return float(real_expectations(matrix, pauli_string(label)[None])[0])


def _clipped_eigenvalues(vals: np.ndarray) -> np.ndarray:
    # Square roots amplify spurious near-zero eigenvalues (eps -> sqrt(eps)),
    # so zero out anything far below the spectral radius before taking them.
    cutoff = 1e-12 * max(float(np.max(vals, initial=0.0)), 0.0)
    return np.where(vals > cutoff, vals, 0.0)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.sqrt(_clipped_eigenvalues(vals))) @ vecs.conj().T


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity F(a, b) = (tr sqrt(sqrt(a) b sqrt(a)))^2 in [0, 1] of two
    density matrices; symmetric, and |<psi|phi>|^2 for pure states."""
    if np.shape(a) != np.shape(b):
        raise ValueError(f"dimension mismatch: {np.shape(a)} vs {np.shape(b)}")
    sqrt_a = _psd_sqrt(a)
    inner = sqrt_a @ b @ sqrt_a
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    return min(max(float(np.sum(np.sqrt(_clipped_eigenvalues(vals))) ** 2), 0.0), 1.0)


def kraus_fe(elements) -> float:
    """Entanglement fidelity by the Kraus-trace formula Fe = sum_i |tr(A_i)|^2 / 4,
    with no reconstruction; the element set must be trace preserving."""
    mats = KrausChannel((0,), tuple(elements)).elements
    return float(sum(abs(np.trace(a)) ** 2 for a in mats)) / 4.0


def schedule_product(schedule: PulseSchedule, model: MoleculeModel, angle_error: float = 0.0) -> np.ndarray:
    """The full-register unitary of a pulse schedule, one event at a time with expm:
    each rf angle scaled by ``1 + angle_error``, each interval evolving under the
    active couplings it lists (pi*J/2 ZZ each)."""
    from scipy.linalg import expm  # a test-only dependency, needed by the pulse oracles only

    n = len(model.spins)
    u = np.eye(2**n, dtype=complex)
    for ev in schedule.events:
        if isinstance(ev, RfRotation):
            axis = PAULIS["X"] if ev.axis == "x" else PAULIS["Y"]
            local = expm(-0.5j * ev.angle * (1.0 + angle_error) * axis)
            u = lift_operator(local, (model.index(ev.spin),), n) @ u
        else:
            ham = np.zeros((2**n, 2**n), dtype=complex)
            for a, b in ev.couplings:
                j = model.coupling(a, b)
                if j is None or not model.is_active(a, b):
                    continue
                zz = lift_operator(np.kron(PAULIS["Z"], PAULIS["Z"]), (model.index(a), model.index(b)), n)
                ham += math.pi * j / 2.0 * zz
            u = expm(-1j * ham * ev.duration) @ u
    return u

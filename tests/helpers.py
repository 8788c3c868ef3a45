"""Randomized-state generators and independent oracles shared by the tests.

The oracles here deliberately avoid the package's own code paths (plain
numpy sums, explicit index loops, closed-form exponentials) so that the
checks stay meaningful.
"""

import math
import os
import warnings
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import nmrteleport
from nmrteleport import experiment
from nmrteleport.channels import KrausChannel, RelaxationParams, relaxation_channels
from nmrteleport.circuits import Circuit, prepare, run_events
from nmrteleport.experiment import SweepRecord, tomograph
from nmrteleport.nmr import FreeEvolution, MoleculeModel, RfRotation, realize_pulses
from nmrteleport.errors import NumericalInvariantError
from nmrteleport.qstate import (
    HERMITICITY_TOL,
    PAULIS,
    PSD_SLACK,
    TRACE_TOL,
    DensityMatrix,
    real_expectations,
)
from nmrteleport.tomography import _canonical_inputs, _fidelities, reconstruct_process, state_tomography


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


def reference_validate_density(
    matrices: np.ndarray,
    hermiticity_tol: float = HERMITICITY_TOL,
    trace_tol: float = TRACE_TOL,
    psd_slack: float = PSD_SLACK,
) -> np.ndarray:
    """The density-matrix rule as first written, kept verbatim as the oracle of
    ``qstate.validate_density``: per-matrix maxima before every global one, the
    Hermitian part divided out of place, and a Cholesky factorization of
    H + psd_slack * eye(d)."""
    m = np.asarray(matrices, dtype=complex)
    batch = m.shape[:-2]
    dagger = np.conj(np.swapaxes(m, -1, -2))
    asymmetry = np.max(np.abs(m - dagger), axis=(-2, -1))
    deviation = float(np.max(asymmetry))
    if not deviation <= hermiticity_tol:
        message = f"matrix deviates from Hermitian by {deviation:.3e} (tol {hermiticity_tol:.1e})"
        raise _violation(message, np.argmax(asymmetry), batch)
    trace_devs = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)
    trace_dev = float(np.max(trace_devs))
    if not trace_dev <= trace_tol:
        raise _violation(f"trace deviates from 1 by {trace_dev:.3e}", np.argmax(trace_devs), batch)
    hermitian = (m + dagger) / 2.0
    # The guards above have failed any NaN or inf entry: Cholesky factors NaN without raising.
    if math.isfinite(psd_slack):
        try:
            np.linalg.cholesky(hermitian + psd_slack * np.eye(m.shape[-1]))
        except np.linalg.LinAlgError:
            pass  # some member is not certified; eigvalsh decides and names the worst
        else:
            return hermitian
    eigmins = np.min(np.linalg.eigvalsh(hermitian), axis=-1)
    eigmin = float(np.min(eigmins))
    if not eigmin >= -psd_slack:
        raise _violation(f"eigenvalue {eigmin:.3e} < -{psd_slack:.1e}", np.argmin(eigmins), batch)
    return hermitian


def _violation(message: str, worst: np.intp, batch: tuple[int, ...]) -> NumericalInvariantError:
    error = NumericalInvariantError(message)
    error.index = tuple(int(i) for i in np.unravel_index(worst, batch))
    return error


def validation_outcome(validate, matrices, *tolerances):
    """What ``validate`` makes of ``matrices``: the returned bytes, or the class,
    message and ``index`` of the error it raised.  A warning is not caught here."""
    try:
        return validate(matrices, *tolerances).tobytes()
    except NumericalInvariantError as exc:
        return type(exc), str(exc), exc.index


def reference_outcome(matrices, *tolerances):
    """:func:`validation_outcome` of :func:`reference_validate_density`, which warns of an
    invalid value on an inf entry (from M - M†) before its guard fails it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return validation_outcome(reference_validate_density, matrices, *tolerances)


def record_linalg_calls(monkeypatch) -> list[str]:
    """The name of every ``np.linalg`` function called from now on, one entry per call."""
    calls = []

    def recorded(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in dir(np.linalg):
        real = getattr(np.linalg, name)
        if not name.startswith("_") and callable(real) and not isinstance(real, type):
            monkeypatch.setattr(np.linalg, name, recorded(name, real))
    return calls


def child_env() -> dict[str, str]:
    """The environment of a child Python that imports this package."""
    src = str(Path(nmrteleport.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def dephasing(duration: float, t2: float, target: int = 0) -> KrausChannel:
    """Pure phase damping over one duration: the relaxation channel with T1 = inf."""
    return relaxation_channels((duration,), RelaxationParams(math.inf, t2), target)


@st.composite
def relaxation_params(draw):
    """Valid (T1, T2): either may be inf, and T2 <= 2 T1."""
    t1 = draw(st.one_of(st.just(math.inf), st.floats(1e-3, 1e3)))
    t2 = draw(st.one_of(st.just(math.inf), st.floats(1e-3, 1e3)) if math.isinf(t1) else st.floats(1e-3, 2.0 * t1))
    return RelaxationParams(t1, t2)


delay_grids = st.lists(
    st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 1e3, allow_subnormal=False)), min_size=1, max_size=8
)


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


def process_map(run) -> SweepRecord:
    """The process of ``run`` on the ``(4, 2, 2)`` stack of the four canonical
    inputs, as a record at delay 0 with its checked fidelity; ``run`` may add one
    leading axis of length one."""
    (transfer,), (chi,) = reconstruct_process(run(_canonical_inputs()))
    return SweepRecord(0.0, float(_fidelities(transfer, chi)), transfer, chi)


def channel_map(channel: KrausChannel) -> SweepRecord:
    """The process of one channel step, tomographed as a one-qubit circuit on a
    grid of one delay."""
    return tomograph(Circuit(1, (channel,)))[0]


def lstsq_profile(times: np.ndarray, values: np.ndarray, tau: float) -> np.ndarray:
    """Fitted values A*exp(-t/tau) + C of the least-squares (A, C) at a fixed
    tau, from LAPACK's SVD solver at its default cutoff: the minimum-norm
    solution when the design is rank-deficient."""
    design = np.ones((times.size, 2))
    design[:, 0] = np.exp(-times / tau)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return design @ coef


def profile_fit(times: np.ndarray, values: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fit's profile at one tau, scored on its own: the reference for the rows
    of ``experiment._profiles``.  Best (amplitude, offset) for a fixed tau, the
    residual, and exp(-t/tau).

    With e = exp(-t/tau) centered to d and the values centered to v, the
    least-squares amplitude is A = (d.v)/(d.d), the offset C = mean(values) -
    A*mean(e), and the residual A*d - v.  The fit is flat (A = 0) when the
    design [e, 1] is rank-deficient by the rule of a least-squares solver's
    default cutoff, sigma_min <= max(N, 2)*eps*sigma_max, sigma_max^2 being
    the larger eigenvalue of the Gram matrix [[e.e, N*mean(e)], [N*mean(e), N]]
    and sigma_min*sigma_max the square root of its determinant N*(d.d)."""
    n, eps = times.size, float(np.finfo(float).eps)
    with np.errstate(over="ignore"):  # a huge delay's -t/tau overflows to -inf: the decay of an inf delay, 0
        decay = np.exp(-times / tau)
    mean_decay, mean_value = decay.sum() / n, values.sum() / n
    centered, centered_values = decay - mean_decay, values - mean_value
    spread = np.einsum("i,i->", centered, centered)
    decay_sq = spread + n * mean_decay * mean_decay  # e.e
    sigma_max_sq = (decay_sq + n) / 2.0 + math.hypot((decay_sq - n) / 2.0, n * mean_decay)
    amplitude = 0.0
    if math.sqrt(n * spread) > max(n, 2) * eps * sigma_max_sq:
        amplitude = np.einsum("i,i->", centered, centered_values) / spread
    return np.array((amplitude, mean_value - amplitude * mean_decay)), amplitude * centered - centered_values, decay


def per_seed_scores(times: np.ndarray, values: np.ndarray) -> list[float]:
    """The sum of squares that :func:`profile_fit` leaves at each seed of the fit's
    grid, one seed at a time."""
    residuals = (profile_fit(times, values, tau)[1] for tau in experiment._TAU_GRID)
    return [float(np.einsum("i,i->", r, r)) for r in residuals]


def per_seed_index(times: np.ndarray, values: np.ndarray) -> int:
    """The grid seed of least :func:`per_seed_scores`, the first of equal ones."""
    return int(np.argmin(per_seed_scores(times, values)))


def lift_operator(op: np.ndarray, targets: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Embed a k-qubit operator into an n-qubit register.

    ``targets`` gives the register indices the operator acts on, in the
    operator's own qubit order (``targets[0]`` is the operator's leftmost
    factor); all other qubits get identity.
    """
    op = np.asarray(op, dtype=complex)
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError(f"duplicate targets {targets}")
    if any(t < 0 or t >= num_qubits for t in targets):
        raise ValueError(f"targets {targets} out of range for {num_qubits} qubits")
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} targets")
    if k == num_qubits and targets == tuple(range(num_qubits)):
        return op.copy()
    rest = [q for q in range(num_qubits) if q not in targets]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # Tensor axes currently follow [targets..., rest...]; permute back to
    # ascending register order for both row and column indices.
    order = list(targets) + rest
    perm = [order.index(q) for q in range(num_qubits)]
    tens = full.reshape([2] * (2 * num_qubits))
    tens = tens.transpose(perm + [num_qubits + p for p in perm])
    return tens.reshape(2**num_qubits, 2**num_qubits)


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


def closed_form_decay(duration: float, timescale: float) -> float:
    """exp(-duration/timescale): 1 for an infinite timescale, else 0 for an infinite duration."""
    if math.isinf(timescale):
        return 1.0
    if math.isinf(duration):
        return 0.0
    return math.exp(-duration / timescale)


def relaxation_fe(duration: float, t1: float, t2: float) -> float:
    """Closed-form entanglement fidelity of T1/T2 relaxation.

    From Fe = sum_i |tr A_i|^2 / 4 for amplitude damping composed with pure
    dephasing: Fe(t) = (1 + e^{-t/T1} + 2 e^{-t/T2}) / 4.
    """
    return (1.0 + closed_form_decay(duration, t1) + 2.0 * closed_form_decay(duration, t2)) / 4.0


SPANNING_1Q = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
)


PAULI_LABELS = ("I", "X", "Y", "Z")
# Column n: the (I, X, Y, Z) coordinates of canonical input n, |0>, |1>, |+>, |+i>.
CANONICAL_COORDINATES = np.array(
    [[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, -1.0, 0.0, 0.0]]
)


def per_output_reconstruction(outputs) -> tuple[np.ndarray, np.ndarray]:
    """Transfer and chi matrices of a process, one output at a time, from its
    outputs (DensityMatrix) for the four canonical inputs.

    Each output goes through Pauli expectations, state tomography of its
    Bloch vector and the coordinates w_n of that state.  The exact inverse of
    :data:`CANONICAL_COORDINATES` then gives R column by column, E(I) =
    (w_0 + w_1)/2, E(X) = w_2 - E(I), E(Y) = w_3 - E(I), E(Z) = (w_0 - w_1)/2;
    and chi = M† vec(R)/4, summed term by term, inverts the 16x16 map
    vec(R) = M vec(chi), built here with M[4l+k, 4a+b] = tr(P_l P_a P_k P_b)/2.
    """
    w = []
    for out in outputs:
        state = state_tomography(*(pauli_expectation(out.matrix, p) for p in PAULI_LABELS[1:]))
        w.append(np.array([pauli_expectation(state.matrix, p) for p in PAULI_LABELS]))
    e_i = (w[0] + w[1]) / 2.0
    transfer = np.stack([e_i, w[2] - e_i, w[3] - e_i, (w[0] - w[1]) / 2.0], axis=1)
    ops = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    m = np.zeros((16, 16), dtype=complex)
    for l, k, a, b in np.ndindex(4, 4, 4, 4):
        m[4 * l + k, 4 * a + b] = np.trace(ops[l] @ ops[a] @ ops[k] @ ops[b]) / 2.0
    vec_chi = np.zeros(16, dtype=complex)
    for i, j in np.ndindex(16, 16):
        vec_chi[i] += m[j, i].conjugate() * transfer.reshape(16)[j]
    return transfer, (vec_chi / 4.0).reshape(4, 4)


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
        return closed_form_decay(duration, tau)

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


def schedule_product(
    events: tuple[RfRotation | FreeEvolution, ...], model: MoleculeModel, angle_error: float = 0.0
) -> np.ndarray:
    """The full-register unitary of a pulse schedule's events, one at a time with expm:
    each rf angle scaled by ``1 + angle_error``, each interval evolving under the
    active couplings it lists (pi*J/2 ZZ each)."""
    from scipy.linalg import expm  # a test-only dependency, needed by the pulse oracles only

    n = len(model.spins)
    u = np.eye(2**n, dtype=complex)
    for ev in events:
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

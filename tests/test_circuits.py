import math

import numpy as np
import pytest

from nmrteleport import circuits
from nmrteleport.circuits import (
    ANCILLA,
    DATA,
    TARGET,
    Circuit,
    _BELL_ROTATION,
    _ENTANGLE,
    control_circuit,
    correction_table,
    prepare,
    run_events,
    teleport_circuit,
)
from nmrteleport.channels import KrausChannel, RelaxationParams, relaxation_channels
from nmrteleport.errors import NumericalInvariantError
from nmrteleport.nmr import MoleculeModel, SpinParams, tce_model
from nmrteleport.qstate import (
    CNOT,
    HADAMARD,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    reduce_stack,
    rotation_x,
)
from tests.helpers import (
    BELL_STATES,
    basis_state,
    dephasing,
    lift_operator,
    phase_distance,
    projector,
    random_pure_state,
    run_inputs,
    state_fidelity,
)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)

# Residual operator on the target for each (data, ancilla) outcome, written
# down independently of the package's derived table.
BRANCH_RESIDUALS = {
    "00": IDENTITY_2,
    "10": PAULI_Z,
    "01": PAULI_X,
    "11": -1j * PAULI_Y,
}


def dephasing_only_model(c1_t2=0.4, c2_t2=0.3, h_t2=math.inf):
    spins = (
        SpinParams("C2", 1e6, math.inf, c2_t2),
        SpinParams("C1", 2e6, math.inf, c1_t2),
        SpinParams("H", 3e6, math.inf, h_t2),
    )
    couplings = {("C1", "H"): 201.0, ("C1", "C2"): 103.0}
    return MoleculeModel(spins, couplings, frozenset(couplings))


def events_unitary(events, num_qubits):
    """Compose gate steps into one matrix (time order = list order)."""
    u = np.eye(2**num_qubits, dtype=complex)
    for ev in events:
        (unitary,) = ev.elements
        u = lift_operator(unitary, ev.targets, num_qubits) @ u
    return u


def noiseless_tce():
    return tce_model().with_relaxation(t1_enabled=False, t2_enabled=False)


def test_entangle_gate_creates_bell_pair():
    out = run_events(_ENTANGLE, prepare(projector(basis_state("0")), 3))
    assert np.allclose(out, projector(np.kron(basis_state("0"), BELL_STATES[0])), atol=1e-12)


def test_entangle_gate_inverse_returns_input():
    events = _ENTANGLE
    # H and CNOT are self-inverse, so the inverse sequence is just reversed.
    u = events_unitary(list(events) + list(reversed(events)), 3)
    assert np.max(np.abs(u - np.eye(8))) < 1e-12


def test_entangle_gate_on_excited_ancilla():
    # Direct matrix product: CNOT . (H ⊗ I) applied to |10> gives the
    # orthogonal Bell state (|00> - |11>)/sqrt(2).
    u = CNOT @ np.kron(HADAMARD, IDENTITY_2)
    ket = np.zeros(4, dtype=complex)
    ket[2] = 1.0
    expected = u @ ket
    assert np.allclose(expected, BELL_STATES[1], atol=1e-12)
    # The data qubit 0 stays in |0>; the gate acts on (ancilla, target).
    via_events = events_unitary(_ENTANGLE, 3) @ np.kron(basis_state("0"), ket)
    assert np.allclose(via_events, np.kron(basis_state("0"), expected), atol=1e-12)


def test_bell_rotation_maps_bell_basis_to_computational():
    # The target qubit 2 stays in |0>; the rotation acts on (data, ancilla).
    u = events_unitary(_BELL_ROTATION, 3)
    expected_bits = ("00", "10", "01", "11")
    outputs = []
    for bell, bits in zip(BELL_STATES, expected_bits):
        out = u @ np.kron(bell, basis_state("0"))
        assert phase_distance(out.reshape(4, 2), basis_state(bits + "0").reshape(4, 2)) < 1e-12
        outputs.append(bits)
    assert len(set(outputs)) == 4


def test_bell_rotation_singlet_lands_on_11_exactly():
    u = events_unitary(_BELL_ROTATION, 3)
    assert np.allclose(u @ np.kron(BELL_STATES[3], basis_state("0")), basis_state("110"), atol=1e-12)


def test_bell_rotation_composes_with_inverse_to_identity():
    u = events_unitary(_BELL_ROTATION, 3)
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-12


def test_correction_table_entries_are_paulis_up_to_phase():
    table = correction_table()
    expected = {"00": IDENTITY_2, "10": PAULI_Z, "01": PAULI_X, "11": 1j * PAULI_Y}
    for outcome, unitary in table.items():
        assert phase_distance(unitary, expected[outcome]) < 1e-12


def test_a_prefix_that_leaves_a_non_pauli_residual_trips_the_correction_check(monkeypatch):
    # The teleport prefix is Clifford, so only an injected rotation can trip the check.
    monkeypatch.setattr(circuits, "_BELL_ROTATION", (*_BELL_ROTATION, KrausChannel((TARGET,), (rotation_x(0.3),))))
    caches = (correction_table, circuits._controlled_correction)
    for cache in caches:
        cache.cache_clear()
    try:
        with pytest.raises(NumericalInvariantError, match="^correction for outcome 00 is not a Pauli up to global phase$"):
            teleport_circuit((0.1,), tce_model())
    finally:  # the next caller builds the table from the real prefix
        for cache in caches:
            cache.cache_clear()


def test_corrections_restore_every_branch():
    # Exhaustive branch simulation: project the rotated state on each
    # outcome, apply the correction, and demand the input state back.
    rng = np.random.default_rng(42)
    pre = events_unitary(list(_ENTANGLE) + list(_BELL_ROTATION), 3)
    for outcome in ("00", "01", "10", "11"):
        b = int(outcome, 2)
        correction = correction_table()[outcome]
        for _ in range(20):
            psi = random_pure_state(rng, 1)
            full = np.kron(psi, basis_state("00"))
            rotated = pre @ full
            branch = 2.0 * rotated[2 * b : 2 * b + 2]  # weight 1/2 per branch
            recovered = correction @ branch
            fidelity = abs(np.vdot(psi, recovered)) ** 2
            assert fidelity == pytest.approx(1.0, abs=1e-10)


def test_pre_measurement_state_expands_into_four_branches():
    # Regrouping the entangled state in the Bell basis of (data, ancilla)
    # exposes the residual I, Z, X, -iY on the target, amplitude 1/2 each.
    rng = np.random.default_rng(6)
    psi = random_pure_state(rng, 1)
    state = np.kron(psi, BELL_STATES[0])
    bell_order = ("00", "10", "01", "11")  # computational label of each Bell state
    for bell, label in zip(BELL_STATES, bell_order):
        residual = BRANCH_RESIDUALS[label]
        expected = 0.5 * (residual @ psi)
        for t in (0, 1):
            basis = np.kron(bell, np.eye(2)[t])
            amplitude = np.vdot(basis, state)
            assert amplitude == pytest.approx(expected[t], abs=1e-12)


def test_noiseless_teleportation_identity():
    rng = np.random.default_rng(8)
    inputs = [random_pure_state(rng, 1) for _ in range(10)]
    reduced = reduce_stack(run_inputs(teleport_circuit((0.5,), noiseless_tce()), inputs), [TARGET])
    for psi, rho in zip(inputs, reduced):
        assert state_fidelity(rho, projector(psi)) >= 1.0 - 1e-9


def test_teleportation_survives_complete_carbon_dephasing():
    circuit = teleport_circuit((math.inf,), dephasing_only_model())
    rng = np.random.default_rng(12)
    inputs = [random_pure_state(rng, 1) for _ in range(10)]
    for psi, rho in zip(inputs, reduce_stack(run_inputs(circuit, inputs), [TARGET])):
        assert state_fidelity(rho, projector(psi)) >= 1.0 - 1e-9
    # After an infinite delay the carbons really are diagonal.
    reduced = reduce_stack(run_inputs(circuit, [PLUS])[0], [DATA, ANCILLA])
    off_diag = reduced - np.diag(np.diag(reduced))
    assert np.max(np.abs(off_diag)) < 1e-12


def test_teleport_circuit_validation():
    model = tce_model()
    with pytest.raises(ValueError):
        teleport_circuit((-0.1,), model)
    with pytest.raises(ValueError):
        control_circuit((-0.1,), model)
    two_spins = MoleculeModel(model.spins[:2], {("C1", "C2"): 103.0}, frozenset())
    for build in (teleport_circuit, control_circuit):
        with pytest.raises(ValueError, match="three-spin"):
            build((0.1,), two_spins)


def test_control_circuit_zero_delay_keeps_data_state():
    rng = np.random.default_rng(13)
    psi = random_pure_state(rng, 1)
    out = run_inputs(control_circuit((0.0,), tce_model()), [psi])[0]
    assert state_fidelity(reduce_stack(out, [DATA]), projector(psi)) >= 1.0 - 1e-10


def test_control_circuit_infinite_delay_kills_data_coherence():
    out = run_inputs(control_circuit((math.inf,), dephasing_only_model()), [PLUS])[0]
    assert np.allclose(reduce_stack(out, [DATA]), np.eye(2) / 2.0, atol=1e-12)


def test_run_circuit_empty_pads_with_ground_states():
    rng = np.random.default_rng(19)
    psi = random_pure_state(rng, 1)
    out = run_inputs(Circuit(3, ()), [psi])[0]
    expected = np.kron(projector(psi), projector(basis_state("00")))
    assert np.allclose(out, expected, atol=1e-12)


def test_run_circuit_single_x_flips_data():
    out = run_inputs(Circuit(3, (KrausChannel((DATA,), (PAULI_X,)),)), [basis_state("0")])[0]
    assert np.allclose(reduce_stack(out, [DATA]), np.diag([0.0, 1.0]), atol=1e-12)


def test_run_circuit_teleports_plus_state_matches_hand_simulation():
    # Independent oracle: compose the known gate matrices and the known
    # correction table by hand and compare full output states.
    out = run_inputs(teleport_circuit((0.0,), noiseless_tce()), [PLUS])[0]

    pre = (
        lift_operator(HADAMARD, (DATA,), 3)
        @ lift_operator(CNOT, (DATA, ANCILLA), 3)
        @ lift_operator(CNOT, (ANCILLA, TARGET), 3)
        @ lift_operator(HADAMARD, (ANCILLA,), 3)
    )
    correction = np.zeros((8, 8), dtype=complex)
    for label, residual in BRANCH_RESIDUALS.items():
        b = int(label, 2)
        proj = np.zeros((4, 4), dtype=complex)
        proj[b, b] = 1.0
        correction += np.kron(proj, residual.conj().T)
    rho0 = np.kron(projector(PLUS), projector(basis_state("00")))
    expected = correction @ pre @ rho0 @ pre.conj().T @ correction.conj().T
    assert np.max(np.abs(out - expected)) < 1e-12
    assert np.max(np.abs(reduce_stack(out, [TARGET]) - projector(PLUS))) < 1e-10


def test_gate_event_validation():
    # A gate is a one-element step, so the trace-preservation rule is its unitarity check.
    with pytest.raises(ValueError, match="not trace preserving"):
        KrausChannel((0,), (np.array([[1.0, 0.0], [1.0, 0.0]]),))  # not unitary
    with pytest.raises(ValueError, match="not trace preserving"):
        KrausChannel((0,), (0.5 * IDENTITY_2,))  # unitary up to a scale only
    with pytest.raises(ValueError):
        KrausChannel((0, 1), (PAULI_X,))  # 2x2 matrix on two targets
    with pytest.raises(ValueError):
        Circuit(2, (KrausChannel((5,), (PAULI_X,)),))
    with pytest.raises(ValueError):
        Circuit(1, (dephasing(0.1, 0.3, target=4),))
    with pytest.raises(ValueError, match="negative channel targets"):
        Circuit(3, (KrausChannel((-1,), (HADAMARD,)),))  # not the last qubit
    with pytest.raises(ValueError, match="negative channel targets"):
        dephasing(0.1, 0.3, target=-2)


def test_a_circuit_reads_out_a_qubit_of_its_register():
    model = tce_model()
    assert teleport_circuit((0.1,), model).readout == TARGET
    assert control_circuit((0.1,), model).readout == DATA
    assert Circuit(1, ()).readout == DATA
    for readout in (-1, 3):
        with pytest.raises(ValueError, match="readout qubit"):
            Circuit(3, (), readout)


def test_a_circuit_refuses_a_target_or_readout_past_its_register():
    # The circuit is the one place these register rules are stated: the kernels it drives trust it.
    with pytest.raises(ValueError, match=r"^event targets \[3\] exceed register size 3$"):
        Circuit(3, (KrausChannel((DATA,), (PAULI_X,)), KrausChannel((3,), (PAULI_X,))))
    with pytest.raises(ValueError, match="^readout qubit 3 outside register size 3$"):
        Circuit(3, (KrausChannel((TARGET,), (PAULI_X,)),), 3)


def test_a_circuit_covers_the_grid_its_delay_steps_cover():
    two = relaxation_channels((0.1, 0.2), RelaxationParams(25.0, 0.3))
    three = relaxation_channels((0.1, 0.2, 0.3), RelaxationParams(25.0, 0.3))
    assert Circuit(1, (two,), delays=(0.1, 0.2)).delays == (0.1, 0.2)
    for delays in ((0.1,), (0.1, 0.2, 0.3)):
        with pytest.raises(ValueError, match=rf"batch axes \(2,\), not one axis of the grid's {len(delays)} delays"):
            Circuit(1, (two,), delays=delays)
    for delays in ((0.1, 0.2), (0.1, 0.2, 0.3)):  # a mix of grids fits neither
        with pytest.raises(ValueError, match="batch axes"):
            Circuit(1, (two, three), delays=delays)
    nested = KrausChannel((0,), tuple(a[:, None] for a in two.elements))  # two leading axes, (2, 1)
    with pytest.raises(ValueError, match=r"batch axes \(2, 1\), not one axis of the grid's 2 delays"):
        Circuit(1, (nested,), delays=(0.1, 0.2))


@pytest.mark.parametrize(
    "delays, message",
    [((), "need at least one delay"), ((math.nan,), "nonnegative seconds or inf"), ((0.2, 0.1), "strictly increasing")],
    ids=["empty", "nan", "decreasing"],
)
def test_a_circuit_checks_its_grid(delays, message):
    with pytest.raises(ValueError, match=message):
        Circuit(1, (), delays=delays)


def test_a_built_circuit_carries_the_grid_it_was_built_for():
    model = tce_model()
    assert Circuit(1, ()).delays == (0.0,)
    for delays in ((0.1,), (0.0, 0.4, math.inf)):
        assert teleport_circuit(delays, model).delays == delays
        assert control_circuit(delays, model).delays == delays


def test_teleport_output_satisfies_state_invariants():
    out = run_inputs(teleport_circuit((0.4,), tce_model()), [PLUS])[0]
    # The executor validates every step; spot-check trace and positivity.
    assert abs(np.trace(out) - 1.0) < 1e-10
    assert np.min(np.linalg.eigvalsh(out)) >= -1e-9


def test_gate_event_rejects_nan_unitary():
    with pytest.raises(ValueError, match="not trace preserving"):
        KrausChannel((0,), (np.full((2, 2), np.nan, dtype=complex),))


def test_shared_correction_table_is_read_only():
    table = correction_table()
    assert correction_table() is table and sorted(table) == ["00", "01", "10", "11"]
    with pytest.raises(TypeError):
        table["00"] = PAULI_X
    with pytest.raises(TypeError):
        del table["11"]
    for unitary in table.values():
        assert unitary.base is None  # nothing writable behind it
        with pytest.raises(ValueError):
            unitary[0, 0] = 2.0
    assert phase_distance(correction_table()["00"], IDENTITY_2) < 1e-12


def test_constant_events_are_shared_by_every_delay():
    model = tce_model()
    short, long = teleport_circuit((0.1,), model), teleport_circuit((0.3, 0.9), model)
    for i in (*range(4), -1):  # the four prefix gates and the correction
        assert short.events[i] is long.events[i]
    assert control_circuit((0.1,), model).events[0] is short.events[0]

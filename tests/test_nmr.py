import math

import numpy as np
import pytest
from scipy.linalg import expm

from nmrteleport import nmr
from nmrteleport.circuits import Circuit, control_circuit, teleport_circuit, unitary_event
from nmrteleport.errors import UnsupportedGateError
from nmrteleport.experiment import SweepConfig, run_sweep
from nmrteleport.nmr import (
    FreeEvolution,
    MoleculeModel,
    PulseSchedule,
    RfRotation,
    SpinParams,
    compile_gate,
    realized_unitary,
    run_circuit_pulse,
    simulate_schedule,
    tce_model,
)
from nmrteleport.qstate import (
    CNOT,
    HADAMARD,
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    bell_states,
    evolve,
    lift_operator,
    partial_trace,
    rotation_x,
    state_fidelity,
)
from tests.helpers import CZ, phase_distance, random_density, random_pure_state, rotation_z


def schedule_unitary(schedule: PulseSchedule, model: MoleculeModel) -> np.ndarray:
    """Independent oracle: compose the schedule into a matrix with expm."""
    n = len(model.spins)
    u = np.eye(2**n, dtype=complex)
    for ev in schedule.events:
        if isinstance(ev, RfRotation):
            axis = PAULI_X if ev.axis == "x" else np.array([[0, -1j], [1j, 0]])
            local = expm(-0.5j * ev.angle * axis)
            u = lift_operator(local, (model.index(ev.spin),), n) @ u
        else:
            ham = np.zeros((2**n, 2**n), dtype=complex)
            for a, b in ev.couplings:
                j = model.coupling(a, b)
                if j is None or not model.is_active(a, b):
                    continue
                zz = lift_operator(PAULI_Z, (model.index(a),), n) @ lift_operator(
                    PAULI_Z, (model.index(b),), n
                )
                ham += math.pi * j / 2.0 * zz
            u = expm(-1j * ham * ev.duration) @ u
    return u


def two_spin_model(j=103.0):
    spins = (SpinParams("A", 1e6, math.inf, math.inf), SpinParams("B", 2e6, math.inf, math.inf))
    return MoleculeModel(spins, {("A", "B"): j}, frozenset({("A", "B")}))


def test_tce_parameters():
    model = tce_model()
    assert [s.name for s in model.spins] == ["C2", "C1", "H"]
    assert model.coupling("H", "C1") == pytest.approx(201.0)
    assert model.coupling("C1", "C2") == pytest.approx(103.0)
    assert model.coupling("H", "C2") is None
    assert model.spin("H").t2 == pytest.approx(3.0)
    assert model.spin("C1").t2 == pytest.approx(0.4)
    assert model.spin("C2").t2 == pytest.approx(0.3)
    assert model.spin("H").t1 == pytest.approx(5.0)
    assert model.spin("C1").t1 == pytest.approx(25.0)
    assert model.spin("H").larmor_hz == pytest.approx(500_133_491.0)
    assert model.spin("C1").larmor_hz == pytest.approx(125_772_580.0)
    assert model.spin("C1").larmor_hz - model.spin("C2").larmor_hz == pytest.approx(911.0)


def test_tce_carbon_t1_configurable():
    model = tce_model(carbon_t1=20.0)
    assert model.spin("C1").t1 == pytest.approx(20.0)
    assert model.spin("C2").t1 == pytest.approx(20.0)
    assert model.spin("H").t1 == pytest.approx(5.0)


def test_model_validation():
    good = SpinParams("A", 1e6, 1.0, 1.0)
    with pytest.raises(ValueError):
        MoleculeModel((good, good), {}, frozenset())
    with pytest.raises(ValueError):
        MoleculeModel((good,), {("A", "A"): 1.0}, frozenset())
    with pytest.raises(ValueError):
        MoleculeModel((good,), {("A", "B"): 1.0}, frozenset())
    with pytest.raises(ValueError):
        MoleculeModel((good,), {}, frozenset({("A", "B")}))


def test_with_relaxation_toggles():
    model = tce_model()
    no_t1 = model.with_relaxation(t1_enabled=False)
    assert math.isinf(no_t1.spin("C2").t1)
    assert no_t1.spin("C2").t2 == pytest.approx(0.3)
    no_t2 = model.with_relaxation(t2_enabled=False)
    assert no_t2.spin("C2").t2 == pytest.approx(2.0 * 25.0)
    quiet = model.noiseless()
    assert all(math.isinf(s.t1) and math.isinf(s.t2) for s in quiet.spins)
    # Couplings survive the copies.
    assert quiet.coupling("C1", "C2") == pytest.approx(103.0)


def test_compiled_cnot_interval_is_half_inverse_j():
    model = tce_model()
    sched = compile_gate(unitary_event(CNOT, (0, 1)), model)  # C2 -> C1
    frees = [ev for ev in sched.events if isinstance(ev, FreeEvolution)]
    assert len(frees) == 1
    assert frees[0].duration == pytest.approx(1.0 / (2.0 * 103.0), abs=1e-15)
    assert sched.total_free_evolution() == pytest.approx(frees[0].duration, abs=1e-18)
    sched_h = compile_gate(unitary_event(CNOT, (1, 2)), model)  # C1 -> H
    frees_h = [ev for ev in sched_h.events if isinstance(ev, FreeEvolution)]
    assert frees_h[0].duration == pytest.approx(1.0 / (2.0 * 201.0), abs=1e-15)


def test_identity_gate_compiles_to_empty_schedule():
    model = tce_model()
    assert compile_gate(unitary_event(np.eye(2), (0,)), model).events == ()
    assert compile_gate(unitary_event(np.eye(4), (0, 1)), model).events == ()


def test_compiled_cnot_matches_ideal_unitary():
    model = tce_model()
    for targets in ((0, 1), (1, 0), (1, 2), (2, 1)):
        sched = compile_gate(unitary_event(CNOT, targets), model)
        u = schedule_unitary(sched, model)
        ideal = lift_operator(CNOT, targets, 3)
        assert phase_distance(u, ideal) < 1e-8


def test_compiled_single_spin_gates_match_ideal():
    model = tce_model()
    rng = np.random.default_rng(33)
    gates = [HADAMARD, PAULI_X, PAULI_Z, rotation_z(0.7), rotation_x(-2.1)]
    for _ in range(5):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(g)
        gates.append(q)
    for q_idx in (0, 1, 2):
        for gate in gates:
            sched = compile_gate(unitary_event(gate, (q_idx,)), model)
            u = schedule_unitary(sched, model)
            assert phase_distance(u, lift_operator(gate, (q_idx,), 3)) < 1e-8


def test_compiled_cz_and_controlled_phase_match_ideal():
    model = tce_model()
    for phi in (math.pi, math.pi / 2.0, -2.0 * math.pi / 3.0):
        gate = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])
        sched = compile_gate(unitary_event(gate, (0, 1)), model)
        u = schedule_unitary(sched, model)
        assert phase_distance(u, lift_operator(gate, (0, 1), 3)) < 1e-8
    sched_cz = compile_gate(unitary_event(CZ, (1, 2)), model)
    assert phase_distance(schedule_unitary(sched_cz, model), lift_operator(CZ, (1, 2), 3)) < 1e-8


def test_uncoupled_spins_are_rejected():
    model = tce_model()
    with pytest.raises(UnsupportedGateError):
        compile_gate(unitary_event(CNOT, (0, 2)), model)  # C2 and H, refocused apart


def test_unsupported_two_spin_gate_rejected():
    model = tce_model()
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    with pytest.raises(UnsupportedGateError):
        compile_gate(unitary_event(swap, (0, 1)), model)
    with pytest.raises(UnsupportedGateError):
        compile_gate(
            unitary_event(np.eye(8), (0, 1, 2)), model
        )


def test_simulate_empty_schedule_is_identity():
    model = tce_model()
    rng = np.random.default_rng(40)
    rho = random_density(rng, 3)
    out = simulate_schedule(PulseSchedule(()), model, rho)
    assert np.allclose(out.matrix, rho.matrix, atol=1e-15)


def test_coupling_interval_plus_local_rotations_make_bell_state():
    # Maximally entangling 1/(2J) interval, checked against the expm oracle.
    model = two_spin_model()
    sched = PulseSchedule(
        (
            RfRotation("A", "y", math.pi / 2.0),
            RfRotation("B", "y", math.pi / 2.0),
            FreeEvolution(1.0 / 206.0, frozenset({("A", "B")})),
            RfRotation("B", "x", math.pi / 2.0),
        )
    )
    out = simulate_schedule(sched, model, DensityMatrix.ground(2))
    bell = bell_states()[0].density()
    assert state_fidelity(out, bell) >= 1.0 - 1e-9
    oracle = schedule_unitary(sched, model)
    expected = oracle @ np.array([1, 0, 0, 0], dtype=complex)
    assert phase_distance(np.outer(expected, expected.conj()), bell.matrix) < 1e-9


def test_compiled_teleport_at_zero_delay_reaches_unit_fidelity():
    model = tce_model().noiseless()
    circuit = teleport_circuit(0.0, model)
    rng = np.random.default_rng(44)
    for _ in range(5):
        psi = random_pure_state(rng, 1)
        out = run_circuit_pulse(circuit, model, psi.density())
        assert state_fidelity(partial_trace(out, [2]), psi.density()) >= 1.0 - 1e-8


def test_free_evolution_semigroup():
    model = two_spin_model()
    rng = np.random.default_rng(47)
    rho = random_density(rng, 2)
    pair = frozenset({("A", "B")})
    split = simulate_schedule(
        PulseSchedule((FreeEvolution(0.003, pair), FreeEvolution(0.011, pair))), model, rho
    )
    joined = simulate_schedule(PulseSchedule((FreeEvolution(0.014, pair),)), model, rho)
    assert np.max(np.abs(split.matrix - joined.matrix)) < 1e-10


def test_refocused_coupling_matches_model_without_coupling():
    spins = (SpinParams("A", 1e6, math.inf, math.inf), SpinParams("B", 2e6, math.inf, math.inf))
    coupled_inactive = MoleculeModel(spins, {("A", "B"): 103.0}, frozenset())
    uncoupled = MoleculeModel(spins, {}, frozenset())
    active = two_spin_model()
    rng = np.random.default_rng(50)
    rho = random_density(rng, 2)
    sched = PulseSchedule((FreeEvolution(0.004, frozenset({("A", "B")})),))
    out_inactive = simulate_schedule(sched, coupled_inactive, rho)
    out_uncoupled = simulate_schedule(sched, uncoupled, rho)
    out_active = simulate_schedule(sched, active, rho)
    assert np.allclose(out_inactive.matrix, out_uncoupled.matrix, atol=1e-15)
    assert np.allclose(out_inactive.matrix, rho.matrix, atol=1e-15)
    assert not np.allclose(out_active.matrix, rho.matrix, atol=1e-6)


def test_schedule_preserves_purity_without_relaxation():
    model = tce_model().noiseless()
    rng = np.random.default_rng(52)
    psi = random_pure_state(rng, 3)
    sched = PulseSchedule(
        (
            RfRotation("C2", "x", 0.7),
            FreeEvolution(0.002, frozenset({("C1", "C2")})),
            RfRotation("H", "y", -1.2),
            FreeEvolution(0.001, frozenset({("C1", "H")})),
        )
    )
    out = simulate_schedule(sched, model, psi.density())
    purity = float(np.trace(out.matrix @ out.matrix).real)
    assert purity == pytest.approx(1.0, abs=1e-9)


def test_relaxation_applies_during_free_evolution():
    model = tce_model()
    plus = DensityMatrix(1, np.array([[0.5, 0.5], [0.5, 0.5]]))
    rho = DensityMatrix(3, np.kron(plus.matrix, np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))).astype(complex))
    out = simulate_schedule(PulseSchedule((FreeEvolution(0.3, frozenset()),)), model, rho)
    reduced = partial_trace(out, [0])
    assert reduced.matrix[0, 1] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)


def test_angle_error_knob_perturbs_gates():
    model = tce_model().noiseless()
    circuit = Circuit(3, (unitary_event(HADAMARD, (0,)), unitary_event(HADAMARD, (0,))))
    rng = np.random.default_rng(55)
    psi = random_pure_state(rng, 1)
    exact = run_circuit_pulse(circuit, model, psi.density())
    assert state_fidelity(partial_trace(exact, [0]), psi.density()) >= 1.0 - 1e-9
    skewed = run_circuit_pulse(circuit, model, psi.density(), angle_error=0.2)
    assert state_fidelity(partial_trace(skewed, [0]), psi.density()) < 1.0 - 1e-3


def test_schedule_validation():
    with pytest.raises(ValueError):
        RfRotation("A", "z", 1.0)
    with pytest.raises(ValueError):
        RfRotation("A", "x", math.nan)
    with pytest.raises(ValueError):
        FreeEvolution(-0.1)
    with pytest.raises(ValueError):
        FreeEvolution(math.inf, frozenset({("A", "B")}))
    with pytest.raises(ValueError):
        PulseSchedule(("not an event",))


def test_nan_free_evolution_is_rejected():
    with pytest.raises(ValueError):
        FreeEvolution(math.nan, frozenset({("C1", "C2")}))


def test_simulate_unknown_spin_rejected():
    model = two_spin_model()
    sched = PulseSchedule((RfRotation("Q", "x", 1.0),))
    with pytest.raises(ValueError):
        simulate_schedule(sched, model, DensityMatrix.ground(2))


def test_gate_and_pulse_actions_agree_per_gate():
    model = tce_model()
    quiet = model.noiseless()
    rng = np.random.default_rng(60)
    events = [
        unitary_event(HADAMARD, (1,)),
        unitary_event(CNOT, (0, 1)),
        unitary_event(CNOT, (1, 2)),
        unitary_event(CZ, (0, 1)),
    ]
    for ev in events:
        rho = random_density(rng, 3)
        sched = compile_gate(ev, model)
        via_pulse = simulate_schedule(sched, quiet, rho)
        lifted = lift_operator(ev.unitary, ev.targets, 3)
        ideal = lifted @ rho.matrix @ lifted.conj().T
        assert np.max(np.abs(via_pulse.matrix - ideal)) < 1e-8


def test_realized_unitary_matches_step_by_step_schedule_simulation():
    # Substitution oracle: for every pulse-compiled gate of both circuits,
    # the kernel applying the realized unitary equals the schedule replayed
    # pulse by pulse under the noiseless model.
    model = tce_model()
    rng = np.random.default_rng(61)
    gates = [
        ev
        for circuit in (teleport_circuit(0.3, model), control_circuit(0.3, model))
        for ev in circuit.events
        if ev.kind == "unitary" and len(ev.targets) <= 2
    ]
    assert len(gates) == 6
    for angle_error in (0.0, 0.05, 0.2):
        for ev in gates:
            rho = random_density(rng, 3)
            realized = realized_unitary(ev, model, angle_error)
            substituted = evolve(rho.matrix, (realized,), ev.targets)
            stepped = simulate_schedule(compile_gate(ev, model), model.noiseless(), rho, angle_error)
            assert np.max(np.abs(substituted - stepped.matrix)) < 1e-12


def test_pulse_gates_are_realized_once_per_gate_model_and_error(monkeypatch):
    compiled = []
    real = nmr.compile_gate
    monkeypatch.setattr(nmr, "compile_gate", lambda gate, model: compiled.append(gate) or real(gate, model))
    model = tce_model()  # models compare by identity, so nothing is cached for this one
    for kind in ("teleport", "control"):
        run_sweep(SweepConfig((0.0, 0.5), kind, model, "pulse"))
    assert len(compiled) == 4  # H and CNOT shared by both prefixes, then CNOT and H
    run_sweep(SweepConfig((0.0, 0.5), "teleport", model, "pulse", 0.05))
    assert len(compiled) == 8
    assert not realized_unitary(compiled[0], model).flags.writeable
    assert realized_unitary.cache_info().maxsize == 32

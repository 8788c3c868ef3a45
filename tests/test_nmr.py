import math

import numpy as np
import pytest

from nmrteleport import nmr
from nmrteleport.channels import KrausChannel
from nmrteleport.circuits import Circuit, control_circuit, prepare, run_events, teleport_circuit
from nmrteleport.errors import UnsupportedGateError
from nmrteleport.experiment import SweepConfig, run_sweep
from nmrteleport.nmr import (
    FreeEvolution,
    MoleculeModel,
    RfRotation,
    SpinParams,
    compile_gate,
    realize_pulses,
    tce_model,
)
from nmrteleport.qstate import CNOT, HADAMARD, PAULI_X, PAULI_Z, evolve, lift_operator, reduce_stack, rotation_x
from tests.helpers import (
    BELL_STATES,
    basis_state,
    phase_distance,
    projector,
    random_density,
    random_pure_state,
    rotation_z,
    run_inputs,
    schedule_product,
    state_fidelity,
)


def schedule_events(schedule: tuple, model: MoleculeModel, angle_error: float = 0.0):
    """The rf rotations and zz evolutions of a schedule's events, in order, as circuit steps."""
    return [KrausChannel(targets, (u,)) for ev in schedule for u, targets in nmr._unitaries(ev, model, angle_error)]


def spin(model: MoleculeModel, name: str) -> SpinParams:
    return model.spins[model.index(name)]


def two_spin_model(j=103.0):
    spins = (SpinParams("A", 1e6, math.inf, math.inf), SpinParams("B", 2e6, math.inf, math.inf))
    return MoleculeModel(spins, {("A", "B"): j}, frozenset({("A", "B")}))


def test_tce_parameters():
    model = tce_model()
    assert [s.name for s in model.spins] == ["C2", "C1", "H"]
    assert model.coupling("H", "C1") == pytest.approx(201.0)
    assert model.coupling("C1", "C2") == pytest.approx(103.0)
    assert model.coupling("H", "C2") is None
    assert spin(model, "H").t2 == pytest.approx(3.0)
    assert spin(model, "C1").t2 == pytest.approx(0.4)
    assert spin(model, "C2").t2 == pytest.approx(0.3)
    assert spin(model, "H").t1 == pytest.approx(5.0)
    assert spin(model, "C1").t1 == pytest.approx(25.0)
    assert spin(model, "H").larmor_hz == pytest.approx(500_133_491.0)
    assert spin(model, "C1").larmor_hz == pytest.approx(125_772_580.0)
    assert spin(model, "C1").larmor_hz - spin(model, "C2").larmor_hz == pytest.approx(911.0)


def test_tce_carbon_t1_configurable():
    model = tce_model(carbon_t1=20.0)
    assert spin(model, "C1").t1 == pytest.approx(20.0)
    assert spin(model, "C2").t1 == pytest.approx(20.0)
    assert spin(model, "H").t1 == pytest.approx(5.0)


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
    other = SpinParams("B", 2e6, 1.0, 1.0)
    for j in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            MoleculeModel((good, other), {("A", "B"): j}, frozenset())
    for larmor in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SpinParams("A", larmor, 1.0, 1.0)


def test_with_relaxation_toggles():
    model = tce_model()
    no_t1 = model.with_relaxation(t1_enabled=False)
    assert math.isinf(spin(no_t1, "C2").t1)
    assert spin(no_t1, "C2").t2 == pytest.approx(0.3)
    no_t2 = model.with_relaxation(t2_enabled=False)
    assert spin(no_t2, "C2").t2 == pytest.approx(2.0 * 25.0)
    quiet = model.with_relaxation(t1_enabled=False, t2_enabled=False)
    assert all(math.isinf(s.t1) and math.isinf(s.t2) for s in quiet.spins)
    # Couplings survive the copies.
    assert quiet.coupling("C1", "C2") == pytest.approx(103.0)


def test_compiled_cnot_interval_is_half_inverse_j():
    model = tce_model()
    sched = compile_gate(KrausChannel((0, 1), (CNOT,)), model)  # C2 -> C1
    frees = [ev for ev in sched if isinstance(ev, FreeEvolution)]
    assert len(frees) == 1
    assert frees[0].duration == pytest.approx(1.0 / (2.0 * 103.0), abs=1e-15)
    sched_h = compile_gate(KrausChannel((1, 2), (CNOT,)), model)  # C1 -> H
    frees_h = [ev for ev in sched_h if isinstance(ev, FreeEvolution)]
    assert frees_h[0].duration == pytest.approx(1.0 / (2.0 * 201.0), abs=1e-15)


def test_identity_gate_compiles_to_empty_schedule():
    model = tce_model()
    assert compile_gate(KrausChannel((0,), (np.eye(2),)), model) == ()
    assert compile_gate(KrausChannel((0, 1), (np.eye(4),)), model) == ()


def test_compiled_cnot_matches_ideal_unitary():
    model = tce_model()
    for targets in ((0, 1), (1, 0), (1, 2), (2, 1)):
        sched = compile_gate(KrausChannel(targets, (CNOT,)), model)
        u = schedule_product(sched, model)
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
            sched = compile_gate(KrausChannel((q_idx,), (gate,)), model)
            u = schedule_product(sched, model)
            assert phase_distance(u, lift_operator(gate, (q_idx,), 3)) < 1e-8


def test_uncoupled_spins_are_rejected():
    model = tce_model()
    with pytest.raises(UnsupportedGateError):
        compile_gate(KrausChannel((0, 2), (CNOT,)), model)  # C2 and H, refocused apart


def test_unsupported_two_spin_gate_rejected():
    model = tce_model()
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    cz = np.diag([1.0, 1.0, 1.0, -1.0])
    reversed_cnot = lift_operator(CNOT, (1, 0), 2)  # a CNOT is compiled only with its control first
    for gate in (swap, cz, reversed_cnot):
        with pytest.raises(UnsupportedGateError):
            compile_gate(KrausChannel((0, 1), (gate,)), model)
    with pytest.raises(UnsupportedGateError):
        compile_gate(KrausChannel((0, 1, 2), (np.eye(8),)), model)
    # A target beyond the molecule's three spins is named, not indexed.
    for gate in (KrausChannel((5,), (HADAMARD,)), KrausChannel((1, 3), (CNOT,))):
        with pytest.raises(UnsupportedGateError, match=r"gate targets \[\d\] are not spins of the 3-spin molecule"):
            compile_gate(gate, model)


def test_simulate_empty_schedule_is_identity():
    model = tce_model()
    assert schedule_events((), model) == []
    for gate in (KrausChannel((2,), (np.eye(2),)), KrausChannel((1, 2), (np.eye(4),))):
        (realized,) = realize_pulses((gate,), model)
        assert np.array_equal(realized.elements[0], gate.elements[0])


def test_coupling_interval_plus_local_rotations_make_bell_state():
    # Maximally entangling 1/(2J) interval, checked against the expm oracle.
    model = two_spin_model()
    sched = (
        RfRotation("A", "y", math.pi / 2.0),
        RfRotation("B", "y", math.pi / 2.0),
        FreeEvolution(1.0 / 206.0, frozenset({("A", "B")})),
        RfRotation("B", "x", math.pi / 2.0),
    )
    out = run_events(schedule_events(sched, model), prepare(projector(basis_state("0")), 2))
    bell = projector(BELL_STATES[0])
    assert state_fidelity(out, bell) >= 1.0 - 1e-9
    expected = schedule_product(sched, model) @ basis_state("00")
    assert phase_distance(projector(expected), bell) < 1e-9


def test_compiled_teleport_at_zero_delay_reaches_unit_fidelity():
    model = tce_model().with_relaxation(t1_enabled=False, t2_enabled=False)
    circuit = teleport_circuit((0.0,), model)
    rng = np.random.default_rng(44)
    inputs = [random_pure_state(rng, 1) for _ in range(5)]
    reduced = reduce_stack(run_inputs(circuit, inputs, model), [2])
    for psi, rho in zip(inputs, reduced):
        assert state_fidelity(rho, projector(psi)) >= 1.0 - 1e-8


def test_free_evolution_semigroup():
    model = two_spin_model()
    rng = np.random.default_rng(47)
    rho = random_density(rng, 2).matrix
    pair = frozenset({("A", "B")})
    split = run_events(schedule_events((FreeEvolution(0.003, pair), FreeEvolution(0.011, pair)), model), rho)
    joined = run_events(schedule_events((FreeEvolution(0.014, pair),), model), rho)
    assert np.max(np.abs(split - joined)) < 1e-10


def test_refocused_coupling_matches_model_without_coupling():
    spins = (SpinParams("A", 1e6, math.inf, math.inf), SpinParams("B", 2e6, math.inf, math.inf))
    coupled_inactive = MoleculeModel(spins, {("A", "B"): 103.0}, frozenset())
    uncoupled = MoleculeModel(spins, {}, frozenset())
    active = two_spin_model()
    rng = np.random.default_rng(50)
    rho = random_density(rng, 2).matrix
    sched = (FreeEvolution(0.004, frozenset({("A", "B")})),)
    assert schedule_events(sched, coupled_inactive) == schedule_events(sched, uncoupled) == []
    out_active = run_events(schedule_events(sched, active), rho)
    assert not np.allclose(out_active, rho, atol=1e-6)


def test_schedule_preserves_purity_without_relaxation():
    model = tce_model()
    rng = np.random.default_rng(52)
    rho = projector(random_pure_state(rng, 3))
    sched = (
        RfRotation("C2", "x", 0.7),
        FreeEvolution(0.002, frozenset({("C1", "C2")})),
        RfRotation("H", "y", -1.2),
        FreeEvolution(0.001, frozenset({("C1", "H")})),
    )
    out = run_events(schedule_events(sched, model), rho)
    purity = float(np.trace(out @ out).real)
    assert purity == pytest.approx(1.0, abs=1e-9)


def test_angle_error_knob_perturbs_gates():
    model = tce_model()
    circuit = Circuit(3, (KrausChannel((0,), (HADAMARD,)), KrausChannel((0,), (HADAMARD,))))
    rng = np.random.default_rng(55)
    psi = random_pure_state(rng, 1)
    stack = prepare(projector(psi), 3)
    exact = run_events(realize_pulses(circuit.events, model), stack)
    assert state_fidelity(reduce_stack(exact, [0]), projector(psi)) >= 1.0 - 1e-9
    skewed = run_events(realize_pulses(circuit.events, model, angle_error=0.2), stack)
    assert state_fidelity(reduce_stack(skewed, [0]), projector(psi)) < 1.0 - 1e-3


def test_schedule_validation():
    with pytest.raises(ValueError):
        RfRotation("A", "z", 1.0)
    with pytest.raises(ValueError):
        RfRotation("A", "x", math.nan)
    with pytest.raises(ValueError):
        FreeEvolution(-0.1)
    with pytest.raises(ValueError):
        FreeEvolution(math.inf, frozenset({("A", "B")}))


def test_nan_free_evolution_is_rejected():
    with pytest.raises(ValueError):
        FreeEvolution(math.nan, frozenset({("C1", "C2")}))


def test_simulate_unknown_spin_rejected():
    with pytest.raises(ValueError):
        schedule_events((RfRotation("Q", "x", 1.0),), two_spin_model())


def test_gate_and_pulse_actions_agree_per_gate():
    model = tce_model()
    rng = np.random.default_rng(60)
    events = [
        KrausChannel((1,), (HADAMARD,)),
        KrausChannel((0, 1), (CNOT,)),
        KrausChannel((1, 2), (CNOT,)),
        KrausChannel((2, 1), (CNOT,)),
    ]
    for ev in events:
        rho = random_density(rng, 3).matrix
        via_pulse = run_events(schedule_events(compile_gate(ev, model), model), rho)
        lifted = lift_operator(ev.elements[0], ev.targets, 3)
        ideal = lifted @ rho @ lifted.conj().T
        assert np.max(np.abs(via_pulse - ideal)) < 1e-8


def test_realized_unitary_matches_step_by_step_schedule_simulation():
    # Substitution oracle: for every pulse-compiled gate of both circuits,
    # the realized unitary equals the schedule multiplied out event by event
    # with expm, and the kernel applying it equals the schedule replayed
    # pulse by pulse through the executor.
    model = tce_model()
    rng = np.random.default_rng(61)
    gates = [
        ev
        for circuit in (teleport_circuit((0.3,), model), control_circuit((0.3,), model))
        for ev in circuit.events
        if len(ev.elements) == 1 and len(ev.targets) <= 2
    ]
    assert len(gates) == 6
    for angle_error in (0.0, 0.05, 0.2):
        for ev in gates:
            (step,) = realize_pulses((ev,), model, angle_error)
            assert step.targets == ev.targets
            (realized,) = step.elements
            product = schedule_product(compile_gate(ev, model), model, angle_error)
            assert np.max(np.abs(lift_operator(realized, ev.targets, 3) - product)) < 1e-12
            rho = random_density(rng, 3).matrix
            substituted = evolve(rho, (realized,), ev.targets)
            stepped = run_events(schedule_events(compile_gate(ev, model), model, angle_error), rho)
            assert np.max(np.abs(substituted - stepped)) < 1e-12


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
    assert not nmr._realized(compiled[0], model, 0.0).elements[0].flags.writeable
    assert nmr._realized.cache_info().maxsize == 32


def test_pulse_engine_rewrites_only_one_and_two_spin_gates():
    model = tce_model()
    circuit = teleport_circuit((0.0, 0.3), model)
    start = 4  # entangle, then the Bell rotation
    steps = realize_pulses(circuit.events, model)
    assert len(steps) == len(circuit.events)
    assert all(new is not old and new.targets == old.targets for new, old in zip(steps[:start], circuit.events[:start]))
    # The three relaxation channels and the three-spin correction pass unchanged.
    assert all(new is old for new, old in zip(steps[start:], circuit.events[start:]))
    assert all(new is old for new, old in zip(realize_pulses(circuit.events, model), steps))
    with pytest.raises(UnsupportedGateError, match="4 elements"):
        compile_gate(circuit.events[start], model)


@pytest.mark.parametrize("angle_error", [0.0, 0.05])
def test_realized_unitary_matches_the_lifted_matrix_product(angle_error):
    # Oracle: the schedule's steps lifted to the gate's targets and multiplied by
    # matmul, the form the contraction replaced.
    model = tce_model()
    gates = [ev for ev in teleport_circuit((0.3,), model).events if len(ev.elements) == 1 and len(ev.targets) <= 2]
    assert len(gates) == 4
    for gate in gates:
        local = {t: i for i, t in enumerate(gate.targets)}
        u = np.eye(2 ** len(local), dtype=complex)
        for ev in compile_gate(gate, model):
            for step, targets in nmr._unitaries(ev, model, angle_error):
                u = lift_operator(step, tuple(local[t] for t in targets), len(local)) @ u
        assert np.max(np.abs(nmr._realized(gate, model, angle_error).elements[0] - u)) <= 1e-15

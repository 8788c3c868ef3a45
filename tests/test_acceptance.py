"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Expected values come from independent oracles computed here: closed-form
channel fidelities, the Kraus-trace fidelity formula, and brute-force
randomized checks.  The measured decay times of the physical experiment are
deliberately not targets; they include apparatus effects (rf inhomogeneity,
strong coupling) that the model intentionally omits.  The model-consistent
oracles plus the qualitative orderings below are the contract.
"""

import math
import time

import numpy as np

from nmrteleport.channels import (
    KrausChannel,
    RelaxationParams,
    depolarizing_channel,
    relaxation_channels,
)
from nmrteleport.circuits import TARGET, run_events, teleport_circuit
from nmrteleport.experiment import (
    DEFAULT_DELAYS,
    SweepConfig,
    compare_curves,
    fit_exponential,
    run_sweep,
)
from nmrteleport.nmr import FreeEvolution, MoleculeModel, SpinParams, compile_gate, tce_model
from nmrteleport.qstate import CNOT, reduce_stack
from tests.helpers import (
    BELL_STATES,
    apply_elements,
    channel_map,
    dephasing,
    kraus_fe,
    process_map,
    projector,
    random_cptp_elements,
    random_density,
    random_pure_state,
    relaxation_fe,
    run_inputs,
    state_fidelity,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    line = f"criterion {number} [{name}]: {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


def test_criterion_1_noiseless_teleportation_identity():
    start = time.perf_counter()
    model = tce_model().with_relaxation(False, False)
    circuit = teleport_circuit((0.0,), model)
    rng = np.random.default_rng(101)
    inputs = [random_pure_state(rng, 1) for _ in range(50)]
    reduced = reduce_stack(run_inputs(circuit, inputs), [TARGET])
    worst = min(state_fidelity(rho, projector(psi)) for psi, rho in zip(inputs, reduced))
    elapsed = time.perf_counter() - start
    report(
        1,
        "noiseless teleportation identity",
        worst >= 1.0 - 1e-9 and elapsed < 1.0,
        f"min fidelity {worst:.12f}, {elapsed:.2f}s",
    )


def test_criterion_2_decoherence_immunity():
    start = time.perf_counter()
    spins = (
        SpinParams("C2", 125_771_669.0, math.inf, 0.3),
        SpinParams("C1", 125_772_580.0, math.inf, 0.4),
        SpinParams("H", 500_133_491.0, math.inf, math.inf),
    )
    couplings = {("C1", "H"): 201.0, ("C1", "C2"): 103.0}
    model = MoleculeModel(spins, couplings, frozenset(couplings))
    circuit = teleport_circuit((math.inf,), model)  # carbons fully dephased
    rng = np.random.default_rng(102)
    inputs = [random_pure_state(rng, 1) for _ in range(20)]
    reduced = reduce_stack(run_inputs(circuit, inputs), [TARGET])
    worst = min(state_fidelity(rho, projector(psi)) for psi, rho in zip(inputs, reduced))
    elapsed = time.perf_counter() - start
    report(
        2,
        "teleportation survives full carbon dephasing",
        worst >= 1.0 - 1e-9 and elapsed < 1.0,
        f"min fidelity {worst:.12f}, {elapsed:.2f}s",
    )


def test_criterion_3_fidelity_calibration_triple():
    fe_identity = process_map(lambda stack: stack).fe
    fe_classical = channel_map(dephasing(math.inf, 0.3)).fe
    fe_random = channel_map(depolarizing_channel(1.0)).fe
    ok = (
        abs(fe_identity - 1.0) <= 1e-9
        and abs(fe_classical - 0.5) <= 1e-9
        and abs(fe_random - 0.25) <= 1e-9
    )
    report(
        3,
        "fidelity anchors 1 / 0.5 / 0.25",
        ok,
        f"{fe_identity:.12f} / {fe_classical:.12f} / {fe_random:.12f}",
    )


def test_criterion_4_tomography_matches_kraus_formula():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        elements = random_cptp_elements(rng, int(rng.integers(1, 5)))
        direct = kraus_fe(elements)
        pm = process_map(lambda stack, elements=elements: apply_elements(stack, elements))
        worst = max(worst, abs(pm.fe - direct))
    elapsed = time.perf_counter() - start
    report(
        4,
        "tomography vs Kraus fidelity oracle, 100 channels",
        worst <= 1e-8 and elapsed < 5.0,
        f"max |diff| {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_control_curve_matches_closed_form():
    model = tce_model()
    records = run_sweep(SweepConfig(DEFAULT_DELAYS, "control", model))
    c2 = model.spins[model.index("C2")]
    worst = max(
        abs(r.fe - relaxation_fe(r.delay, c2.t1, c2.t2)) for r in records
    )
    fit = fit_exponential([r.delay for r in records], [r.fe for r in records])
    tau_error = abs(fit.time_constant - c2.t2) / c2.t2
    report(
        5,
        "control curve equals dephasing+damping oracle",
        worst <= 1e-8 and tau_error <= 0.15,
        f"max |diff| {worst:.2e}, tau {fit.time_constant:.4f}s vs T2 {c2.t2}s",
    )


def test_criterion_6_qualitative_decay_reproduction():
    start = time.perf_counter()
    model = tce_model()
    teleport_records = run_sweep(SweepConfig(DEFAULT_DELAYS, "teleport", model))
    control_records = run_sweep(SweepConfig(DEFAULT_DELAYS, "control", model))
    comparison = compare_curves(teleport_records, control_records)

    smallest_nonzero = [r for r in teleport_records if r.delay > 0.0][0]
    a_ok = smallest_nonzero.fe > 0.5
    control_tau = comparison.control_fit.time_constant
    b_ok = abs(control_tau - 0.3) / 0.3 <= 0.15 and abs(control_records[-1].fe - 0.5) <= 0.02
    c_ok = comparison.tau_ratio > 3.0
    elapsed = time.perf_counter() - start
    report(
        6,
        "qualitative fidelity-decay reproduction",
        a_ok and b_ok and c_ok and elapsed < 30.0,
        f"fe({smallest_nonzero.delay:.3f}s)={smallest_nonzero.fe:.3f}, "
        f"tau_ctrl={control_tau:.3f}s, ratio={comparison.tau_ratio:.1f}, {elapsed:.1f}s",
    )


def test_criterion_7_engine_cross_validation():
    start = time.perf_counter()
    model = tce_model()
    gate = run_sweep(SweepConfig(DEFAULT_DELAYS, "teleport", model, engine="gate"))
    pulse = run_sweep(SweepConfig(DEFAULT_DELAYS, "teleport", model, engine="pulse"))
    worst = max(abs(g.fe - p.fe) for g, p in zip(gate, pulse))

    schedule = compile_gate(KrausChannel((0, 1), (CNOT,)), model)
    intervals = [ev.duration for ev in schedule if isinstance(ev, FreeEvolution)]
    interval_ok = len(intervals) == 1 and abs(intervals[0] - 1.0 / 206.0) < 1e-15
    elapsed = time.perf_counter() - start
    report(
        7,
        "gate vs pulse engines and 1/(2J) coupling interval",
        worst <= 1e-6 and interval_ok and elapsed < 60.0,
        f"max |dFe| {worst:.2e}, interval {intervals[0]*1e3:.4f}ms, {elapsed:.1f}s",
    )


def test_criterion_8_randomized_invariant_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(108)
    violations = 0

    total = sum(projector(b) for b in BELL_STATES)
    if np.max(np.abs(total - np.eye(4))) > 1e-12:
        violations += 1

    for case in range(1000):
        try:
            if case % 5 == 4:
                # Channel semigroup laws on a random split.
                t_total = float(rng.random()) + 0.05
                split = float(rng.random()) * t_total
                rho = random_density(rng, 1)
                if case % 10 == 4:
                    first = dephasing(split, 0.4)
                    second = dephasing(t_total - split, 0.4)
                    joined = dephasing(t_total, 0.4)
                else:
                    params = RelaxationParams(2.0, 0.5)
                    first = relaxation_channels((split,), params)
                    second = relaxation_channels((t_total - split,), params)
                    joined = relaxation_channels((t_total,), params)
                stepped = run_events((first, second), rho.matrix[None])
                direct = run_events((joined,), rho.matrix[None])
                if np.max(np.abs(stepped - direct)) > 1e-10:
                    violations += 1
            else:
                # Random CPTP channel on a random state: construction checks
                # CPTP, the output state checks Hermiticity/trace/PSD.
                channel = KrausChannel((int(rng.integers(0, 2)),), tuple(random_cptp_elements(rng, int(rng.integers(1, 4)))))
                rho = random_density(rng, 2)
                out = run_events((channel,), rho.matrix)
                if abs(np.trace(out) - 1.0) > 1e-10:
                    violations += 1
        except Exception:
            violations += 1
    elapsed = time.perf_counter() - start
    report(
        8,
        "1000 randomized CPTP/state invariant cases",
        violations == 0 and elapsed < 30.0,
        f"{violations} violations, {elapsed:.1f}s",
    )

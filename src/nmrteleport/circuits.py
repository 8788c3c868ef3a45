"""Gate-level teleportation and control circuits.

The register order is fixed: qubit 0 carries the unknown input state (the
data spin, C2), qubit 1 is the ancilla (C1), and qubit 2 is the target (H)
that should end up holding the input.

The measurement of the data/ancilla pair is never sampled.  Dephasing during
the decoherence delay diagonalizes those qubits in the computational basis,
and the final correction is applied as a single unitary controlled on that
basis, which is mathematically identical to reading the environment's
outcome and acting conditionally.  Global phases are ignored throughout; the
correction table is derived from the circuit's own Bell-basis labeling
rather than hand-entered, so the two cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from .channels import KrausChannel, relaxation_channels
from .errors import NumericalInvariantError
from .qstate import (
    CNOT,
    HADAMARD,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    UNITARY_TOL,
    evolve,
    lift_operator,
    tensor_product,
    validate_density,
)

if TYPE_CHECKING:
    from .nmr import MoleculeModel

DATA, ANCILLA, TARGET = 0, 1, 2
OUTCOMES = ("00", "01", "10", "11")


@dataclass(frozen=True, eq=False)
class GateEvent:
    """One step of a circuit: a unitary or a noise channel.

    Exactly the fields for the event's kind are populated; the circuit
    builders express a wait as the channel events of its decoherence.
    """

    kind: str
    unitary: np.ndarray | None = None
    targets: tuple[int, ...] | None = None
    channel: KrausChannel | None = None

    def __post_init__(self):
        if self.kind == "unitary":
            if self.unitary is None or self.targets is None or self.channel is not None:
                raise ValueError("unitary event must carry exactly a matrix and targets")
            u = np.asarray(self.unitary, dtype=complex)
            targets = tuple(int(t) for t in self.targets)
            if len(set(targets)) != len(targets):
                raise ValueError(f"duplicate targets {targets}")
            dim = 2 ** len(targets)
            if u.shape != (dim, dim):
                raise ValueError(f"unitary shape {u.shape} does not fit targets {targets}")
            dev = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
            if not dev <= UNITARY_TOL:
                raise ValueError(f"matrix is not unitary: U†U deviates from I by {dev:.3e}")
            u = u.copy()
            u.flags.writeable = False
            object.__setattr__(self, "unitary", u)
            object.__setattr__(self, "targets", targets)
        elif self.kind == "channel":
            if not isinstance(self.channel, KrausChannel) or self.unitary is not None or self.targets is not None:
                raise ValueError("channel event must carry exactly a KrausChannel")
        else:
            raise ValueError(f"unknown event kind {self.kind!r}")


def unitary_event(matrix: np.ndarray, targets: tuple[int, ...]) -> GateEvent:
    return GateEvent("unitary", unitary=matrix, targets=targets)


def channel_event(channel: KrausChannel) -> GateEvent:
    return GateEvent("channel", channel=channel)


@dataclass(frozen=True, eq=False)
class Circuit:
    """Ordered event sequence on a fixed-size register, with spin roles; the
    first ``delay_start`` events do not depend on the delay (sweeps run them once)."""

    num_qubits: int
    events: tuple[GateEvent, ...]
    roles: Mapping[str, str] = field(default_factory=dict)
    delay_start: int = 0

    def __post_init__(self):
        for ev in self.events:
            targets = ev.targets if ev.kind == "unitary" else ev.channel.targets
            bad = [t for t in targets if t >= self.num_qubits]
            if bad:
                raise ValueError(f"event targets {bad} exceed register size {self.num_qubits}")
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "roles", dict(self.roles))


@lru_cache(maxsize=None)
def entangle_gate(ancilla: int = 0, target: int = 1) -> tuple[GateEvent, GateEvent]:
    """Hadamard on the ancilla, then CNOT onto the target; built once per qubit pair.

    Maps |0>|0> on (ancilla, target) to the Bell pair (|00>+|11>)/sqrt(2).
    """
    return (
        unitary_event(HADAMARD, (ancilla,)),
        unitary_event(CNOT, (ancilla, target)),
    )


@lru_cache(maxsize=None)
def bell_to_computational(data: int = 0, ancilla: int = 1) -> tuple[GateEvent, GateEvent]:
    """Rotate the Bell basis of (data, ancilla) into the computational basis;
    built once per qubit pair.

    CNOT from data to ancilla followed by a Hadamard on data; sends the four
    Bell states (|00>±|11>, |01>±|10>)/sqrt(2) to |00>, |10>, |01>, |11>.
    """
    return (
        unitary_event(CNOT, (data, ancilla)),
        unitary_event(HADAMARD, (data,)),
    )


_PAULI_LIKE = {"I": IDENTITY_2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


@dataclass(frozen=True, eq=False)
class CorrectionTable:
    """Outcome (two bits on data, ancilla) -> single-qubit recovery unitary."""

    corrections: Mapping[str, np.ndarray]

    def __post_init__(self):
        if set(self.corrections) != set(OUTCOMES):
            raise ValueError(f"correction table must cover outcomes {OUTCOMES}")
        frozen = {}
        for outcome, u in self.corrections.items():
            u = np.asarray(u, dtype=complex)
            overlaps = [abs(np.trace(p.conj().T @ u)) / 2.0 for p in _PAULI_LIKE.values()]
            if max(overlaps) < 1.0 - 1e-9:
                raise ValueError(
                    f"correction for outcome {outcome} is not a Pauli up to global phase"
                )
            u = u.copy()
            u.flags.writeable = False
            frozen[outcome] = u
        object.__setattr__(self, "corrections", frozen)


@lru_cache(maxsize=1)
def correction_table() -> CorrectionTable:
    """Derive the recovery unitaries from the circuit's own conventions.

    Runs the pre-measurement unitary (entangle, then Bell rotation) on basis
    inputs and extracts, for each computational outcome of (data, ancilla),
    the residual operator left on the target; the correction is its inverse.
    """
    pre = (
        lift_operator(HADAMARD, (DATA,), 3)
        @ lift_operator(CNOT, (DATA, ANCILLA), 3)
        @ lift_operator(CNOT, (ANCILLA, TARGET), 3)
        @ lift_operator(HADAMARD, (ANCILLA,), 3)
    )
    table = {}
    for b0 in (0, 1):
        for b1 in (0, 1):
            residual = np.empty((2, 2), dtype=complex)
            for t in (0, 1):
                for s in (0, 1):
                    # Branch amplitude of |b0 b1 t> for input |s 0 0>; each
                    # branch carries weight 1/2, so the block is half the
                    # residual unitary.
                    residual[t, s] = 2.0 * pre[(b0 << 2) | (b1 << 1) | t, s << 2]
            table[f"{b0}{b1}"] = residual.conj().T
    return CorrectionTable(table)


@lru_cache(maxsize=1)
def _controlled_correction() -> GateEvent:
    """All four corrections as one unitary controlled on (data, ancilla), built once."""
    table = correction_table().corrections
    full = np.zeros((8, 8), dtype=complex)
    for b0 in (0, 1):
        for b1 in (0, 1):
            proj = np.zeros((4, 4), dtype=complex)
            proj[2 * b0 + b1, 2 * b0 + b1] = 1.0
            full += tensor_product(proj, table[f"{b0}{b1}"])
    return unitary_event(full, (DATA, ANCILLA, TARGET))


def _roles(model: MoleculeModel) -> dict[str, str]:
    """The spin in each role; the register is exactly these three spins."""
    if len(model.spins) != 3:
        raise ValueError("teleportation needs a three-spin model")
    return {
        "data": model.spins[DATA].name,
        "ancilla": model.spins[ANCILLA].name,
        "target": model.spins[TARGET].name,
    }


def _delay_noise(delays: Sequence[float], model: MoleculeModel) -> list[GateEvent]:
    """Relaxation of every spin over each delay of the grid, one batched channel per spin.

    Couplings are refocused during the delay, so each spin decoheres
    independently with its own T1/T2.
    """
    return [channel_event(relaxation_channels(delays, spin.relaxation(), target=q)) for q, spin in enumerate(model.spins)]


def teleport_circuit(delays: Sequence[float], model: MoleculeModel) -> Circuit:
    """Full teleportation: entangle, Bell rotation, decoherence delay, recovery.

    The delay doubles as the measurement: carbon dephasing diagonalizes the
    data/ancilla pair in the computational basis, after which the controlled
    correction restores the input on the target.  At a delay of ``inf`` the
    dephasing equals the exact computational-basis projection.  The circuit
    covers every delay of the grid at once, for a stack whose leading axis
    runs over the grid.
    """
    roles = _roles(model)
    prefix = (*entangle_gate(ANCILLA, TARGET), *bell_to_computational(DATA, ANCILLA))
    return Circuit(3, (*prefix, *_delay_noise(delays, model), _controlled_correction()), roles, len(prefix))


def control_circuit(delays: Sequence[float], model: MoleculeModel) -> Circuit:
    """Control experiment: entangle ancilla and target, then only decohere.

    No Bell rotation and no conditional correction; the input state simply
    rides out the delay on the data spin, which is where readout happens.
    The delay grid is handled as in :func:`teleport_circuit`.
    """
    roles = _roles(model)
    prefix = entangle_gate(ANCILLA, TARGET)
    return Circuit(3, (*prefix, *_delay_noise(delays, model)), roles, len(prefix))


Realize = Callable[[GateEvent], np.ndarray]


def prepare(inputs: np.ndarray, num_qubits: int) -> np.ndarray:
    """Data-qubit inputs (a 2x2 matrix or a stack) with every other qubit in |0>, validated."""
    padding = np.zeros((2 ** (num_qubits - 1),) * 2, dtype=complex)
    padding[0, 0] = 1.0
    stack = tensor_product(inputs, padding)
    validate_density(stack)
    return stack


def run_events(events: Sequence[GateEvent], stack: np.ndarray, realize: Realize | None = None) -> np.ndarray:
    """The one circuit executor, on a ``(..., 2^n, 2^n)`` stack, validating
    every step in one batched check.  ``realize`` maps a unitary event to the
    matrix applied instead (the pulse engine's substitution).  A failed check
    raises with ``step`` and ``event`` set to the failing step's position in
    ``events`` and its event."""
    for step, ev in enumerate(events):
        if ev.kind == "unitary":
            elements, targets = (ev.unitary if realize is None else realize(ev),), ev.targets
        else:
            elements, targets = ev.channel.elements, ev.channel.targets
        try:
            stack = validate_density(evolve(stack, elements, targets))
        except NumericalInvariantError as exc:
            exc.step, exc.event = step, ev
            raise
    return stack

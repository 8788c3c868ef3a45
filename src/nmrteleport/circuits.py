"""Gate-level teleportation and control circuits.

The register order is fixed: qubit 0 carries the unknown input state (the
data spin, C2), qubit 1 is the ancilla (C1), and qubit 2 is the target (H)
that should end up holding the input.  The gates on them are fixed steps,
built once at import, which both circuits and the correction table read.

Every step of a circuit is a :class:`~nmrteleport.channels.KrausChannel`: a
gate is the one-element channel of its unitary, ``KrausChannel(targets,
(U,))``, so one trace-preservation rule checks gates and noise alike, and
one executor, :func:`run_events`, runs them.  A circuit also names its
readout qubit: the target for teleportation, the data qubit for the control,
and the delay grid its delay steps cover.  Its delay-independent prefix is
not stored: it is the steps before the first whose elements carry a leading
delay axis.

The measurement of the data/ancilla pair is never sampled.  Dephasing during
the decoherence delay diagonalizes those qubits in the computational basis,
and the final correction is applied as a single unitary controlled on that
basis, which is mathematically identical to reading the environment's
outcome and acting conditionally.  Global phases are ignored throughout; the
correction table is derived from the circuit's own Bell-basis labeling
rather than hand-entered, so the two cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .channels import KrausChannel, RelaxationParams, relaxation_channels
from .errors import NumericalInvariantError
from .qstate import CNOT, HADAMARD, PAULIS, _apply_on, evolve, validate_density

if TYPE_CHECKING:
    from .nmr import MoleculeModel

DATA, ANCILLA, TARGET = 0, 1, 2


def validate_delays(delays: Iterable[float]) -> tuple[float, ...]:
    """The delay grid as a tuple of floats, checked: nonempty, strictly increasing and
    nonnegative (``inf`` is allowed, NaN is not).  Raises ``ValueError``."""
    delays = tuple(float(d) for d in delays)
    if not delays:
        raise ValueError("need at least one delay")
    if any(not d >= 0.0 for d in delays):
        raise ValueError(f"delays must be nonnegative seconds or inf, got {delays}")
    if any(not b > a for a, b in zip(delays, delays[1:])):
        raise ValueError(f"delays must be strictly increasing, got {delays}")
    return delays


def _has_delay_axis(step: KrausChannel) -> bool:
    """Whether the step's elements carry a leading axis over the delay grid."""
    return step.elements[0].ndim > 2


@dataclass(frozen=True, eq=False)
class Circuit:
    """Ordered steps on a fixed-size register, read out on qubit ``readout``, covering
    every delay of the grid ``delays`` at once, for a stack whose leading axis runs over
    the grid: a step whose elements carry leading axes has exactly one, the grid's length."""

    num_qubits: int
    events: tuple[KrausChannel, ...]
    readout: int = DATA
    delays: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        delays = validate_delays(self.delays)
        for ev in self.events:
            bad = [t for t in ev.targets if t >= self.num_qubits]
            if bad:
                raise ValueError(f"event targets {bad} exceed register size {self.num_qubits}")
            axes = ev.elements[0].shape[:-2]
            if _has_delay_axis(ev) and axes != (len(delays),):
                raise ValueError(f"event elements have batch axes {axes}, not one axis of the grid's {len(delays)} delays")
        if not 0 <= self.readout < self.num_qubits:
            raise ValueError(f"readout qubit {self.readout} outside register size {self.num_qubits}")
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "delays", delays)


# Hadamard on the ancilla, then CNOT onto the target: maps |0>|0> on (ancilla,
# target) to the Bell pair (|00>+|11>)/sqrt(2).
_ENTANGLE = (KrausChannel((ANCILLA,), (HADAMARD,)), KrausChannel((ANCILLA, TARGET), (CNOT,)))
# CNOT from data to ancilla, then a Hadamard on data: rotates the Bell basis of
# (data, ancilla), (|00>±|11>, |01>±|10>)/sqrt(2), to |00>, |10>, |01>, |11>.
_BELL_ROTATION = (KrausChannel((DATA, ANCILLA), (CNOT,)), KrausChannel((DATA,), (HADAMARD,)))


@lru_cache(maxsize=1)
def correction_table() -> Mapping[str, np.ndarray]:
    """Derive the recovery unitaries from the circuit's own conventions.

    Composes the pre-measurement unitary from the teleport circuit's own
    prefix steps (entangle, then Bell rotation), runs it on basis inputs and
    extracts, for each computational outcome of (data, ancilla), the residual
    operator left on the target; the correction is its inverse, checked to be
    a Pauli up to global phase.  Built once and shared, so the table is
    read-only: outcome ("00" to "11") -> read-only 2x2 unitary.
    """
    pre = np.eye(8, dtype=complex).reshape((2,) * 6)
    for step in (*_ENTANGLE, *_BELL_ROTATION):
        pre = _apply_on(step.elements[0], pre, step.targets, 6)
    table = {}
    for b0 in (0, 1):
        for b1 in (0, 1):
            # Branch amplitudes of |b0 b1 t> for inputs |s 0 0>; each branch
            # carries weight 1/2, so the block is half the residual unitary.
            correction = (2.0 * pre[b0, b1, :, :, 0, 0]).conj().T.copy()
            if not max(abs(np.einsum("ij,ij->", p.conj(), correction)) / 2.0 for p in PAULIS.values()) >= 1.0 - 1e-9:
                raise NumericalInvariantError(f"correction for outcome {b0}{b1} is not a Pauli up to global phase")
            correction.flags.writeable = False
            table[f"{b0}{b1}"] = correction
    return MappingProxyType(table)


@lru_cache(maxsize=1)
def _controlled_correction() -> KrausChannel:
    """All four corrections as one unitary controlled on (data, ancilla), built once."""
    table = correction_table()
    full = np.zeros((2,) * 6, dtype=complex)
    for b0 in (0, 1):
        for b1 in (0, 1):
            full[b0, b1, :, b0, b1, :] = table[f"{b0}{b1}"]
    return KrausChannel((DATA, ANCILLA, TARGET), (full.reshape(8, 8),))


def _delay_noise(delays: Sequence[float], model: MoleculeModel) -> tuple[KrausChannel, ...]:
    """Relaxation of every spin over each delay of the grid, one batched channel per spin.

    Couplings are refocused during the delay, so each spin decoheres
    independently with its own T1/T2.  The register is exactly the model's
    spins, in the roles (data, ancilla, target), so the model needs three.
    The channels are cached by value (see :func:`_spin_relaxation`).
    """
    if len(model.spins) != 3:
        raise ValueError("teleportation needs a three-spin model")
    return _spin_relaxation(tuple(delays), tuple(spin.relaxation() for spin in model.spins))


@lru_cache(maxsize=1)
def _spin_relaxation(delays: tuple[float, ...], relaxations: tuple[RelaxationParams, ...]) -> tuple[KrausChannel, ...]:
    """One :func:`relaxation_channels` channel per spin, spin q on qubit q.  The key is
    the delay grid and every spin's T1/T2, which fix the channels' bits, so the
    control sweep of a ``compare`` reuses what its teleport sweep built; the
    channels' elements are read-only."""
    return tuple(relaxation_channels(delays, params, target=q) for q, params in enumerate(relaxations))


def teleport_circuit(delays: Sequence[float], model: MoleculeModel) -> Circuit:
    """Full teleportation: entangle, Bell rotation, decoherence delay, recovery.

    The delay doubles as the measurement: carbon dephasing diagonalizes the
    data/ancilla pair in the computational basis, after which the controlled
    correction restores the input on the target.  At a delay of ``inf`` the
    dephasing equals the exact computational-basis projection.
    """
    return Circuit(3, (*_ENTANGLE, *_BELL_ROTATION, *_delay_noise(delays, model), _controlled_correction()), TARGET, delays)


def control_circuit(delays: Sequence[float], model: MoleculeModel) -> Circuit:
    """Control experiment: entangle ancilla and target, then only decohere.

    No Bell rotation and no conditional correction; the input state simply
    rides out the delay on the data spin, which is where readout happens.
    """
    return Circuit(3, (*_ENTANGLE, *_delay_noise(delays, model)), DATA, delays)


def prepare(inputs: np.ndarray, num_qubits: int) -> np.ndarray:
    """Data-qubit inputs (a 2x2 matrix or a stack) with every other qubit in |0>, validated."""
    padding = np.zeros((2 ** (num_qubits - 1),) * 2, dtype=complex)
    padding[0, 0] = 1.0
    stack = np.kron(inputs, padding)
    validate_density(stack)
    return stack


def run_events(events: Sequence[KrausChannel], stack: np.ndarray, delays: slice = slice(None)) -> np.ndarray:
    """The one circuit executor, on a ``(..., 2^n, 2^n)`` stack, validating
    every step in one batched check.  A step whose elements carry a leading
    delay axis applies its ``delays`` slice (a sweep runs its grid in blocks
    this way).  A failed check raises with ``step`` and ``event`` set to the
    failing step's position in ``events`` and its step."""
    for step, ev in enumerate(events):
        try:
            elements = [a[delays] for a in ev.elements] if _has_delay_axis(ev) else ev.elements
            stack = validate_density(evolve(stack, elements, ev.targets))
        except NumericalInvariantError as exc:
            exc.step, exc.event = step, ev
            raise
    return stack

"""Spin-level model of the three-spin molecule and the pulse engine's gate compiler.

The built-in parameter set describes trichloroethylene (TCE): one hydrogen
and two carbon-13 nuclei, with measured Larmor frequencies, J couplings and
relaxation times.  The gates the circuits hold, Hadamards and CNOTs, are
compiled to rotating-frame schedules: tuples of x/y rf rotations
(:class:`RfRotation`) and intervals of free evolution under the
weak-coupling (sigma_z.sigma_z) Hamiltonian (:class:`FreeEvolution`).  A
Hadamard is one sequence, Ry(pi/2) then Rx(pi), alone or inside a CNOT.  z
rotations never appear explicitly because in the rotating frame they are
realized by x/y conjugation.  Refocusing is modeled declaratively: a
free-evolution interval lists the couplings that are active, and
everything else contributes nothing.  The pulse engine,
:func:`realize_pulses`, does not replay a schedule pulse by pulse: it
rewrites a circuit's steps, replacing each one- and two-spin gate by the
one-element channel of the unitary the gate's schedule realizes.

The order of ``MoleculeModel.spins`` defines the qubit register: spin i is
qubit i.  For TCE that order is (C2, C1, H), matching the circuit roles
(data, ancilla, target).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channels import KrausChannel, RelaxationParams
from .errors import RfAngleError, UnsupportedGateError
from .qstate import CNOT, HADAMARD, _apply_on, rotation_x, rotation_y

_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class SpinParams:
    """One nuclear spin: Larmor frequency (Hz) and relaxation times (s)."""

    name: str
    larmor_hz: float
    t1: float
    t2: float

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"spin name must be a string, got {self.name!r}")
        if not self.name:
            raise ValueError("spin needs a name")
        if not 0.0 < self.larmor_hz < math.inf:
            raise ValueError(f"Larmor frequency must be positive and finite, got {self.larmor_hz}")
        self.relaxation()  # validates t1/t2

    def relaxation(self) -> RelaxationParams:
        return RelaxationParams(self.t1, self.t2)


def _pair(a: str, b: str) -> tuple[str, str]:
    if a == b:
        raise ValueError(f"spin {a!r} cannot couple to itself")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True, eq=False)
class MoleculeModel:
    """Named spins, pairwise J couplings, and which couplings are active.

    Couplings absent from ``active_couplings`` are treated as refocused
    away; they never contribute to free evolution.
    """

    spins: tuple[SpinParams, ...]
    j_couplings: Mapping[tuple[str, str], float]
    active_couplings: frozenset[tuple[str, str]]

    def __post_init__(self):
        names = [s.name for s in self.spins]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate spin names in {names}")
        couplings = {}
        for (a, b), j in dict(self.j_couplings).items():
            if a not in names or b not in names:
                raise ValueError(f"coupling ({a}, {b}) references unknown spin")
            if not 0.0 < j < math.inf:
                raise ValueError(f"J coupling must be positive and finite, got {j} for ({a}, {b})")
            couplings[_pair(a, b)] = float(j)
        active = frozenset(_pair(a, b) for a, b in self.active_couplings)
        if not active <= set(couplings):
            raise ValueError("active couplings must be a subset of the J couplings")
        object.__setattr__(self, "spins", tuple(self.spins))
        object.__setattr__(self, "j_couplings", couplings)
        object.__setattr__(self, "active_couplings", active)

    def index(self, name: str) -> int:
        for i, s in enumerate(self.spins):
            if s.name == name:
                return i
        raise ValueError(f"unknown spin {name!r}")

    def coupling(self, a: str, b: str) -> float | None:
        return self.j_couplings.get(_pair(a, b))

    def is_active(self, a: str, b: str) -> bool:
        return _pair(a, b) in self.active_couplings

    def with_relaxation(self, t1_enabled: bool = True, t2_enabled: bool = True) -> MoleculeModel:
        """Copy with relaxation processes switched on or off per spin.

        Disabling T2 removes only the dephasing in excess of the T1-induced
        coherence decay (t2 -> 2*t1), which is the physical no-extra-dephasing
        limit; disabling T1 sets it to infinity.
        """
        spins = []
        for s in self.spins:
            t1 = s.t1 if t1_enabled else math.inf
            t2 = s.t2 if t2_enabled else 2.0 * t1
            spins.append(SpinParams(s.name, s.larmor_hz, t1, t2))
        return MoleculeModel(tuple(spins), self.j_couplings, self.active_couplings)


def tce_model(carbon_t1: float = 25.0) -> MoleculeModel:
    """Measured TCE parameters; spin order (C2, C1, H) matches the register.

    The carbon T1 defaults to the middle of the measured 20-30 s range; its
    exact value barely matters because the carbon T2 times are two orders of
    magnitude shorter.  The H-C2 and chlorine couplings are suppressed by
    refocusing and are not part of the model.
    """
    spins = (
        SpinParams("C2", 125_772_580.0 - 911.0, carbon_t1, 0.3),
        SpinParams("C1", 125_772_580.0, carbon_t1, 0.4),
        SpinParams("H", 500_133_491.0, 5.0, 3.0),
    )
    couplings = {("C1", "H"): 201.0, ("C1", "C2"): 103.0}
    return MoleculeModel(spins, couplings, frozenset(couplings))


@dataclass(frozen=True)
class RfRotation:
    """Instantaneous rotating-frame rf rotation about x or y."""

    spin: str
    axis: str
    angle: float

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {self.axis!r}")
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle}")


@dataclass(frozen=True)
class FreeEvolution:
    """Evolution under the listed J couplings for ``duration`` seconds."""

    duration: float
    couplings: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self):
        if not self.duration >= 0.0:
            raise ValueError(f"duration must be nonnegative, got {self.duration}")
        couplings = frozenset(_pair(a, b) for a, b in self.couplings)
        if math.isinf(self.duration) and couplings:
            raise ValueError("infinite evolution is only meaningful with all couplings refocused")
        object.__setattr__(self, "couplings", couplings)


def _rz_pulses(spin: str, angle: float) -> tuple[RfRotation, ...]:
    """z rotation by x/y conjugation: Rz(a) = Rx(pi/2) Ry(a) Rx(-pi/2)."""
    return (RfRotation(spin, "x", -math.pi / 2.0), RfRotation(spin, "y", angle), RfRotation(spin, "x", math.pi / 2.0))


def _hadamard_pulses(spin: str) -> tuple[RfRotation, ...]:
    # H = X Ry(pi/2) up to global phase.
    return (RfRotation(spin, "y", math.pi / 2.0), RfRotation(spin, "x", math.pi))


def _matches(u: np.ndarray, ref: np.ndarray) -> bool:
    overlap = np.sum(ref.conj() * u)
    if abs(overlap) < _MATCH_TOL:
        return False
    phase = overlap / abs(overlap)
    return bool(np.max(np.abs(u - phase * ref)) < _MATCH_TOL)


def compile_gate(gate: KrausChannel, model: MoleculeModel) -> tuple[RfRotation | FreeEvolution, ...]:
    """Translate one gate, a one-element circuit step, into an rf/J-coupling schedule:
    its rf rotations and free-evolution intervals, in order.

    Supported, each up to a global phase: the identity (an empty schedule),
    a one-spin Hadamard (Ry(pi/2) then Rx(pi)), and a CNOT, controlled by the
    first of its targets, between spins with an active J coupling.  Any other
    gate raises :class:`UnsupportedGateError`, as does a target that is not a
    spin of the molecule.
    """
    if len(gate.elements) != 1:
        raise UnsupportedGateError(f"cannot compile a channel of {len(gate.elements)} elements")
    bad = [t for t in gate.targets if t >= len(model.spins)]
    if bad:
        raise UnsupportedGateError(f"gate targets {bad} are not spins of the {len(model.spins)}-spin molecule")
    u = gate.elements[0]
    if len(gate.targets) == 1:
        if _matches(u, np.eye(2, dtype=complex)):
            return ()
        if not _matches(u, HADAMARD):
            raise UnsupportedGateError("one-spin gate is not a Hadamard")
        return _hadamard_pulses(model.spins[gate.targets[0]].name)
    if len(gate.targets) == 2:
        control, target = (model.spins[t].name for t in gate.targets)
        if not model.is_active(control, target):
            raise UnsupportedGateError(f"no active J coupling between {control} and {target}; two-spin gates need one")
        if _matches(u, np.eye(4, dtype=complex)):
            return ()
        if not _matches(u, CNOT):
            raise UnsupportedGateError("two-spin gate is not a CNOT")
        # CNOT = H_t CZ H_t, CZ from one 1/(2J) interval: exact up to a global phase, so it composes freely.
        j = model.coupling(control, target)
        if math.isinf(0.5 / j):
            raise UnsupportedGateError(f"the J coupling of {j} Hz between {control} and {target} is too weak: 1/(2J) overflows")
        cz = (*_rz_pulses(control, -math.pi / 2.0), *_rz_pulses(target, -math.pi / 2.0))
        return (*_hadamard_pulses(target), *cz, FreeEvolution(0.5 / j, frozenset({_pair(control, target)})), *_hadamard_pulses(target))
    raise UnsupportedGateError(f"gates on {len(gate.targets)} spins have no pulse realization")


def _unitaries(ev: RfRotation | FreeEvolution, model: MoleculeModel, angle_error: float) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """(matrix, targets) of the unitaries that carry out one schedule event, in
    order; rf angles are scaled by ``1 + angle_error``."""
    if isinstance(ev, RfRotation):
        angle = ev.angle * (1.0 + angle_error)
        if not math.isfinite(angle):
            raise RfAngleError(f"rf angle {ev.angle} scaled by 1 + {angle_error} is not finite")
        return [(rotation_x(angle) if ev.axis == "x" else rotation_y(angle), (model.index(ev.spin),))]
    steps = []
    for a, b in sorted(ev.couplings):
        if model.is_active(a, b):
            # pi/2 * J * t from pi/4 * J, which no finite J overflows (same bits for J > 3e-308)
            phase = np.exp(-2j * (0.25 * math.pi * model.coupling(a, b) * ev.duration))
            zz = np.diag([phase, phase.conjugate(), phase.conjugate(), phase])
            steps.append((zz, (model.index(a), model.index(b))))
    return steps


def _realized(gate: KrausChannel, model: MoleculeModel, angle_error: float) -> KrausChannel:
    """The step that the gate's compiled schedule realizes, on ``gate.targets``:
    its rf rotations, each angle scaled by ``1 + angle_error``, and the zz phases
    of its active couplings, in schedule order; relaxation during gates is
    idealized away."""
    k = len(gate.targets)
    local = {t: i for i, t in enumerate(gate.targets)}
    u = np.eye(2**k, dtype=complex).reshape((2,) * (2 * k))
    for ev in compile_gate(gate, model):
        for step, targets in _unitaries(ev, model, angle_error):
            u = _apply_on(step, u, tuple(local[t] for t in targets), 2 * k)
    return KrausChannel(gate.targets, (u.reshape(2**k, 2**k),))


def realize_pulses(steps: Sequence[KrausChannel], model: MoleculeModel, angle_error: float = 0.0) -> tuple[KrausChannel, ...]:
    """The pulse engine: ``steps`` with each gate on one or two spins (a one-element
    step) replaced by the step its compiled pulses realize.  The three-spin
    correction has no pulses and stays exact; noise steps pass unchanged."""
    return tuple(
        _realized(step, model, angle_error) if len(step.elements) == 1 and len(step.targets) <= 2 else step
        for step in steps
    )

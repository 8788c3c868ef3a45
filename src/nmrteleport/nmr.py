"""Spin-level model of the three-spin molecule and the pulse engine's gate compiler.

The built-in parameter set describes trichloroethylene (TCE): one hydrogen
and two carbon-13 nuclei, with measured Larmor frequencies, J couplings and
relaxation times.  Gates are compiled to rotating-frame schedules: tuples
of x/y rf rotations (:class:`RfRotation`) and intervals of free evolution
under the weak-coupling (sigma_z.sigma_z) Hamiltonian
(:class:`FreeEvolution`).  z rotations never appear explicitly because in
the rotating frame they are realized by x/y conjugation.  Refocusing is
modeled declaratively: a free-evolution interval lists the couplings that
are active, and everything else contributes nothing.  The pulse engine,
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
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .channels import KrausChannel, RelaxationParams
from .errors import RfAngleError, UnsupportedGateError
from .qstate import CNOT, lift_operator, rotation_x, rotation_y

_ANGLE_EPS = 1e-12
_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class SpinParams:
    """One nuclear spin: Larmor frequency (Hz) and relaxation times (s)."""

    name: str
    larmor_hz: float
    t1: float
    t2: float

    def __post_init__(self):
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
    if not carbon_t1 > 0.0:
        raise ValueError(f"carbon T1 must be positive, got {carbon_t1}")
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


def _wrap_angle(angle: float) -> float:
    wrapped = math.remainder(angle, 2.0 * math.pi)
    return wrapped if abs(wrapped) > _ANGLE_EPS else 0.0


def _rz_pulses(spin: str, angle: float) -> list[RfRotation]:
    """z rotation by x/y conjugation: Rz(a) = Rx(pi/2) Ry(a) Rx(-pi/2)."""
    angle = _wrap_angle(angle)
    if angle == 0.0:
        return []
    return [
        RfRotation(spin, "x", -math.pi / 2.0),
        RfRotation(spin, "y", angle),
        RfRotation(spin, "x", math.pi / 2.0),
    ]


def _zyz_angles(u: np.ndarray) -> tuple[float, float, float]:
    """Euler angles (phi, theta, lam) with U ~ Rz(phi) Ry(theta) Rz(lam)."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    v = u * np.exp(-0.5j * np.angle(det))
    a, b = v[0, 0], v[1, 0]
    theta = 2.0 * math.atan2(abs(b), abs(a))
    if abs(b) < _ANGLE_EPS:
        return -2.0 * float(np.angle(a)), theta, 0.0
    if abs(a) < _ANGLE_EPS:
        return 2.0 * float(np.angle(b)), theta, 0.0
    return (
        float(np.angle(b) - np.angle(a)),
        theta,
        float(-np.angle(b) - np.angle(a)),
    )


def _single_spin_schedule(u: np.ndarray, spin: str) -> list[RfRotation]:
    phi, theta, lam = _zyz_angles(u)
    pulses = _rz_pulses(spin, lam)
    theta = _wrap_angle(theta)
    if theta != 0.0:
        pulses.append(RfRotation(spin, "y", theta))
    pulses.extend(_rz_pulses(spin, phi))
    return pulses


def _hadamard_pulses(spin: str) -> list[RfRotation]:
    # H = X Ry(pi/2) up to global phase.
    return [RfRotation(spin, "y", math.pi / 2.0), RfRotation(spin, "x", math.pi)]


def _matches(u: np.ndarray, ref: np.ndarray) -> bool:
    overlap = np.sum(ref.conj() * u)
    if abs(overlap) < _MATCH_TOL:
        return False
    phase = overlap / abs(overlap)
    return bool(np.max(np.abs(u - phase * ref)) < _MATCH_TOL)


def _coupling_for(model: MoleculeModel, a: str, b: str) -> float:
    j = model.coupling(a, b)
    if j is None or not model.is_active(a, b):
        raise UnsupportedGateError(
            f"no active J coupling between {a} and {b}; two-spin gates need one"
        )
    return j


def _cnot_schedule(control: str, target: str, j: float) -> list[RfRotation | FreeEvolution]:
    """CNOT = H_t CZ H_t with CZ from one 1/(2J) coupling interval.

    Exact up to a global phase, so the compiled gate composes freely with
    the rest of a schedule.
    """
    duration = 1.0 / (2.0 * j)
    if math.isinf(duration):
        raise UnsupportedGateError(f"the J coupling of {j} Hz between {control} and {target} is too weak: 1/(2J) overflows")
    events: list[RfRotation | FreeEvolution] = []
    events += _hadamard_pulses(target)
    events += _rz_pulses(control, -math.pi / 2.0)
    events += _rz_pulses(target, -math.pi / 2.0)
    events.append(FreeEvolution(duration, frozenset({_pair(control, target)})))
    events += _hadamard_pulses(target)
    return events


def compile_gate(gate: KrausChannel, model: MoleculeModel) -> tuple[RfRotation | FreeEvolution, ...]:
    """Translate one gate, a one-element circuit step, into an rf/J-coupling schedule:
    its rf rotations and free-evolution intervals, in order.

    Supported: any single-qubit unitary (ZYZ decomposition), and a CNOT,
    controlled by the first of its targets, between spins with an active J
    coupling.  Everything else raises :class:`UnsupportedGateError`, as does a
    target that is not a spin of the molecule.
    """
    if len(gate.elements) != 1:
        raise UnsupportedGateError(f"cannot compile a channel of {len(gate.elements)} elements")
    bad = [t for t in gate.targets if t >= len(model.spins)]
    if bad:
        raise UnsupportedGateError(f"gate targets {bad} are not spins of the {len(model.spins)}-spin molecule")
    u = gate.elements[0]
    if len(gate.targets) == 1:
        spin = model.spins[gate.targets[0]].name
        if _matches(u, np.eye(2, dtype=complex)):
            return ()
        return tuple(_single_spin_schedule(u, spin))
    if len(gate.targets) == 2:
        name_a = model.spins[gate.targets[0]].name
        name_b = model.spins[gate.targets[1]].name
        j = _coupling_for(model, name_a, name_b)
        if _matches(u, np.eye(4, dtype=complex)):
            return ()
        if _matches(u, CNOT):
            return tuple(_cnot_schedule(name_a, name_b, j))
        raise UnsupportedGateError("two-spin gate is not a CNOT")
    raise UnsupportedGateError(f"gates on {len(gate.targets)} spins have no pulse realization")


def _unitaries(ev: RfRotation | FreeEvolution, model: MoleculeModel, angle_error: float) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """(matrix, targets) of the unitaries that carry out one schedule event, in
    order; rf angles are scaled by ``1 + angle_error``."""
    if isinstance(ev, RfRotation):
        angle = ev.angle * (1.0 + angle_error)
        if not math.isfinite(angle):
            raise RfAngleError(f"rf angle {ev.angle} scaled by 1 + {angle_error} is not finite")
        return [(rotation_x(angle) if ev.axis == "x" else rotation_y(angle), (model.index(ev.spin),))]
    if not ev.duration > 0.0:
        return []
    steps = []
    for a, b in sorted(ev.couplings):
        if model.is_active(a, b):
            phase = np.exp(-0.5j * math.pi * model.coupling(a, b) * ev.duration)
            zz = np.diag([phase, phase.conjugate(), phase.conjugate(), phase])
            steps.append((zz, (model.index(a), model.index(b))))
    return steps


@lru_cache(maxsize=32)
def _realized(gate: KrausChannel, model: MoleculeModel, angle_error: float) -> KrausChannel:
    """The step that the gate's compiled schedule realizes, on ``gate.targets``:
    its rf rotations, each angle scaled by ``1 + angle_error``, and the zz phases
    of its active couplings, in schedule order; relaxation during gates is
    idealized away.

    Computed once per (gate, model, angle error) while it stays among the 32
    most recent (steps and models compare by identity).
    """
    local = {t: i for i, t in enumerate(gate.targets)}
    u = np.eye(2 ** len(local), dtype=complex)
    for ev in compile_gate(gate, model):
        for step, targets in _unitaries(ev, model, angle_error):
            u = np.einsum("ij,jk->ik", lift_operator(step, tuple(local[t] for t in targets), len(local)), u)
    return KrausChannel(gate.targets, (u,))


def realize_pulses(steps: Sequence[KrausChannel], model: MoleculeModel, angle_error: float = 0.0) -> tuple[KrausChannel, ...]:
    """The pulse engine: ``steps`` with each gate on one or two spins (a one-element
    step) replaced by the step its compiled pulses realize.  The three-spin
    correction has no pulses and stays exact; noise steps pass unchanged."""
    return tuple(
        _realized(step, model, angle_error) if len(step.elements) == 1 and len(step.targets) <= 2 else step
        for step in steps
    )

"""Completely positive trace-preserving noise maps as Kraus operation elements.

Provides T1/T2 relaxation (amplitude damping combined with phase damping)
over a whole delay grid at once, pure dephasing being the case T1 = inf, and
depolarizing noise.

Durations may be ``math.inf``: an infinite dephasing interval is exactly the
projection onto the computational basis, so the idealized measurement limit
is reachable without large-number hacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z

CPTP_TOL = 1e-10


def _decay(duration: float, timescale: float) -> float:
    """exp(-duration/timescale) with the 0 and inf corner cases pinned; the
    timescale is a checked :class:`RelaxationParams` time."""
    if math.isinf(timescale):
        return 1.0
    if math.isinf(duration):
        return 0.0
    return math.exp(-duration / timescale)


@dataclass(frozen=True)
class RelaxationParams:
    """Per-spin relaxation times in seconds; ``inf`` disables a process."""

    t1: float
    t2: float

    def __post_init__(self):
        if not self.t1 > 0.0:
            raise ValueError(f"t1 must be positive, got {self.t1}")
        if not self.t2 > 0.0:
            raise ValueError(f"t2 must be positive, got {self.t2}")
        if self.t2 > 2.0 * self.t1:
            raise ValueError(
                f"unphysical relaxation: t2={self.t2} exceeds 2*t1={2.0 * self.t1}"
            )


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map defined by operation elements acting on ``targets``.

    Construction rejects non-trace-preserving sets, so every instance in
    circulation satisfies sum_i A_i† A_i = I within 1e-10.  The elements may
    share leading batch axes, ``(..., d, d)`` each: then the channel is one
    map per batch index (a sweep's delays), each checked by the same rule.
    """

    targets: tuple[int, ...]
    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        targets = tuple(int(t) for t in self.targets)
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate channel targets {targets}")
        if any(t < 0 for t in targets):
            raise ValueError(f"negative channel targets in {targets}")
        if len(self.elements) == 0:
            raise ValueError("channel needs at least one operation element")
        dim = 2 ** len(targets)
        shapes = {np.shape(a) for a in self.elements}
        if len(shapes) != 1 or next(iter(shapes))[-2:] != (dim, dim):
            raise ValueError(f"element shapes {sorted(shapes)} do not fit targets {targets}")
        elements = np.array(self.elements, dtype=complex)
        total = np.einsum("k...ji,k...jl->...il", elements.conj(), elements)
        deviation = float(np.max(np.abs(total - np.eye(dim))))
        if not deviation <= CPTP_TOL:
            raise ValueError(
                f"channel is not trace preserving: sum A†A deviates from I by {deviation:.3e}"
            )
        elements.flags.writeable = False
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "elements", tuple(elements))


def relaxation_channels(
    durations: Sequence[float], params: RelaxationParams, target: int = 0
) -> KrausChannel:
    """Combined T1/T2 relaxation over every duration of a grid (seconds), as one
    channel of four ``(D, 2, 2)`` elements: ``elements[i][d]`` is element i of
    the channel for ``durations[d]``.  One trace-preservation check covers the grid.

    Amplitude damping toward |0> with gamma = 1 - exp(-duration/t1), composed
    with just enough extra dephasing that the total off-diagonal decay factor
    is exp(-duration/t2).  The channel is specified by this action, not by a
    canonical factorization: element i is dephasing element i // 2 times
    damping element i % 2, and a zero element stays in place (it adds exact
    zeros).  ``t1=inf`` leaves pure dephasing.

    The factors are formed over the whole grid at once; each exponential is
    ``math.exp`` of its own duration, since ``np.exp`` may differ from it in
    the last bit.
    """
    for duration in durations:
        if not duration >= 0.0:
            raise ValueError(f"duration must be nonnegative, got {duration}")
    if not len(durations):
        raise ValueError("need at least one duration")
    # Per duration: the population of |1> retained, and the total off-diagonal decay.
    survival, coherence = np.array([(_decay(d, params.t1), _decay(d, params.t2)) for d in durations]).T
    amp = np.sqrt(survival)  # off-diagonal factor from T1 alone
    extra = np.minimum(1.0, np.divide(coherence, amp, out=np.ones_like(amp), where=amp > 0.0))
    sqrt_gamma = np.sqrt(1.0 - survival)
    damping = np.zeros((len(amp), 2, 2, 2), dtype=complex)
    damping[:, 0, 0, 0], damping[:, 0, 1, 1], damping[:, 1, 0, 1] = 1.0, amp, sqrt_gamma
    k0 = np.sqrt((1.0 + extra) / 2.0)[:, None, None]
    k1 = np.sqrt((1.0 - extra) / 2.0)[:, None, None]
    dephasing = np.stack((k0 * IDENTITY_2, k1 * PAULI_Z), axis=1)  # scales off-diagonals by extra
    products = np.einsum("dzij,dajk->dzaik", dephasing, damping)
    return KrausChannel((target,), np.swapaxes(products.reshape(-1, 4, 2, 2), 0, 1))


def depolarizing_channel(p: float) -> KrausChannel:
    """rho -> (1-p) rho + p I/2 on qubit 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    k_id = math.sqrt(1.0 - 3.0 * p / 4.0)
    k_pauli = math.sqrt(p / 4.0)
    elements = [k_id * IDENTITY_2]
    if k_pauli > 0.0:
        elements += [k_pauli * PAULI_X, k_pauli * PAULI_Y, k_pauli * PAULI_Z]
    return KrausChannel((0,), tuple(elements))

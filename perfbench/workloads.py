"""Seeded inputs and closed-form oracles for the benchmark workloads.

Everything here is plain Python (no numpy, no nmrteleport), so the
benchmark driver can generate inputs and check outputs without importing
the program it measures.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import math
import random

# Default TCE values the CLI uses when no config file is given.
TCE_CARBON_T1 = 25.0
TCE_C2_T2 = 0.3
TCE_H_T1 = 5.0
TCE_H_T2 = 3.0

# pulse-long: one compare invocation on this many delays.  At 30 delays the
# pulse engine's physics is well over half of the invocation's wall time.
PULSE_LONG_DELAYS = 30
# gate-scan: delays per scan item (delay 0 plus five seeded ones).
GATE_SCAN_DELAYS = 6


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _grid(rng: random.Random, count: int, low: float, high: float) -> tuple[float, ...]:
    """Delay 0 followed by ``count - 1`` distinct sorted delays in (low, high]."""
    picks: set[float] = set()
    while len(picks) < count - 1:
        picks.add(round(rng.uniform(low, high), 6))
    return (0.0, *sorted(picks))


def pulse_long_delays(seed: int) -> tuple[float, ...]:
    return _grid(_rng("pulse-long", seed), PULSE_LONG_DELAYS, 0.01, 1.2)


def gate_scan_item(seed: int, index: int) -> dict:
    """Molecule and delay grid of scan item ``index``; every item differs."""
    rng = _rng("gate-scan", seed, index)
    return {
        "carbon_t1": round(rng.uniform(15.0, 35.0), 6),
        "c2_t2": round(rng.uniform(0.2, 0.45), 6),
        "c1_t2": round(rng.uniform(0.25, 0.5), 6),
        "delays": _grid(rng, GATE_SCAN_DELAYS, 0.05, 1.2),
    }


def control_fidelity(t: float, t1: float, t2: float) -> float:
    """Entanglement fidelity of C2 relaxation: (1 + e^{-t/T1} + 2 e^{-t/T2}) / 4."""
    return (1.0 + math.exp(-t / t1) + 2.0 * math.exp(-t / t2)) / 4.0

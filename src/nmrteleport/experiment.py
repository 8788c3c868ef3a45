"""Fidelity-vs-delay sweeps, exponential decay fits, and curve comparison.

A sweep wraps the teleportation (readout on the target spin) or control
(readout on the data spin) circuit as a single-qubit process for each
decoherence delay, tomographs it, and records the entanglement fidelity.
A sweep runs the delay-independent circuit prefix once, then every delay
and all four tomography inputs as one ``(delays, 4, 8, 8)`` stack, and
tomographs every delay in one vectorized reconstruction.  Sweeps are
deterministic: the same configuration always produces bit-identical records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .circuits import DATA, TARGET, Circuit, control_circuit, prepare, run_events, teleport_circuit
from .errors import FitConvergenceError, NumericalInvariantError
from .nmr import MoleculeModel, realize_pulses
from .qstate import reduce_stack
from .tomography import ProcessMap, TomographyInputSet, entanglement_fidelity, reconstruct_process

EXPERIMENT_KINDS = ("teleport", "control")
ENGINES = ("gate", "pulse")

# 12 uniform delays straddling the fast carbon dephasing (0.3-0.4 s) and a
# visible fraction of the much slower hydrogen decay.
DEFAULT_DELAYS: tuple[float, ...] = tuple(np.linspace(0.0, 1.2, 12))

_TAU_GRID = np.geomspace(0.05, 10.0, 40)
_AMPLITUDE_FLOOR = 1e-8
_SQRT_EPS = math.sqrt(2.2e-16)


def validate_delays(delays: Iterable[float]) -> tuple[float, ...]:
    """The delay grid as a tuple of floats, checked.

    The grid must be nonempty and strictly increasing, and every delay
    nonnegative: ``inf`` is allowed, NaN is not.  Raises ``ValueError``.
    """
    delays = tuple(float(d) for d in delays)
    if not delays:
        raise ValueError("need at least one delay")
    if any(not d >= 0.0 for d in delays):
        raise ValueError(f"delays must be nonnegative seconds or inf, got {delays}")
    if any(not b > a for a, b in zip(delays, delays[1:])):
        raise ValueError(f"delays must be strictly increasing, got {delays}")
    return delays


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep: delays, experiment kind, molecule, and engine."""

    delays: tuple[float, ...]
    experiment: str
    model: MoleculeModel
    engine: str = "gate"
    rotation_error: float = 0.0

    def __post_init__(self):
        delays = validate_delays(self.delays)
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(f"experiment must be one of {EXPERIMENT_KINDS}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if not math.isfinite(self.rotation_error):
            raise ValueError(f"rotation error must be finite, got {self.rotation_error}")
        object.__setattr__(self, "delays", delays)

    def circuit(self) -> tuple[Circuit, int]:
        """The experiment's circuit for the whole delay grid, and its readout qubit;
        built on the first call, which later calls share."""
        if "_circuit" not in vars(self):
            build, readout = (teleport_circuit, TARGET) if self.experiment == "teleport" else (control_circuit, DATA)
            object.__setattr__(self, "_circuit", (build(self.delays, self.model), readout))
        return self._circuit


@dataclass(frozen=True, eq=False)
class SweepRecord:
    """One sweep point: delay, entanglement fidelity, and the full process map."""

    delay: float
    fe: float
    process_map: ProcessMap

    def __post_init__(self):
        if not 0.0 <= self.fe <= 1.0:
            raise ValueError(f"entanglement fidelity {self.fe} outside [0, 1]")


@dataclass(frozen=True)
class DecayFit:
    """Parameters of fe(t) = amplitude * exp(-t/time_constant) + offset."""

    amplitude: float
    time_constant: float
    offset: float
    residual_norm: float
    tau_identifiable: bool = True

    def __post_init__(self):
        if not self.time_constant > 0.0:
            raise ValueError(f"time constant must be positive, got {self.time_constant}")
        if not self.residual_norm >= 0.0:
            raise ValueError(f"residual norm must be nonnegative, got {self.residual_norm}")

    def value(self, t: float) -> float:
        return self.amplitude * math.exp(-t / self.time_constant) + self.offset


def tomograph(run: Callable[[np.ndarray], np.ndarray], num_qubits: int, readout: int) -> list[ProcessMap]:
    """Process tomography through the circuit executor.

    ``run`` takes the four canonical tomography inputs on qubit 0 of a
    ``num_qubits``-qubit register, every other qubit in |0>, as one ``(4, d, d)``
    stack, and returns the final stack with any leading axes it adds in
    front.  The readout qubit's outputs give one process map per leading index.
    """
    inputs = TomographyInputSet.canonical()
    final = run(prepare(np.stack([s.matrix for s in inputs.states]), num_qubits))
    return reconstruct_process(reduce_stack(final, [readout]), inputs)


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Tomograph the configured process at every delay, in delay order.

    One circuit covers the whole grid: its prefix runs once on the four
    tomography inputs, then every delay and all four inputs run as one
    ``(delays, 4, 8, 8)`` stack, one step at a time.  A violated invariant
    is reported with the experiment, the engine, and the delay, tomography
    input and circuit step (or reconstruction) where it happened.
    """
    circuit, readout = config.circuit()
    events, start = circuit.events, circuit.delay_start
    if config.engine == "pulse":
        events = realize_pulses(events, config.model, config.rotation_error)

    def run(stack: np.ndarray) -> np.ndarray:
        prefix = run_events(events[:start], stack)
        return run_events(events[start:], np.broadcast_to(prefix, (len(config.delays),) + prefix.shape))

    try:
        maps = tomograph(run, circuit.num_qubits, readout)
    except NumericalInvariantError as exc:
        where = _where(exc, config.delays, start)
        raise NumericalInvariantError(f"{config.experiment} sweep, {config.engine} engine, {where}: {exc}") from exc
    return [SweepRecord(d, entanglement_fidelity(m), m) for d, m in zip(config.delays, maps)]


def _where(exc: NumericalInvariantError, delays: Sequence[float], start: int) -> str:
    """Where in a sweep ``exc`` happened.  In the circuit (``exc.event`` set) the
    prefix stack is indexed by input, the stack after it by (delay, input), with
    steps counted from ``start``; a one-element step is a gate, any other a noise
    channel.  In the reconstruction an output state is indexed by (delay, input),
    a process map by delay."""
    if exc.event is None:
        where = [f"delay {delays[exc.index[0]]!r} s"] if exc.index else []
        where += [f"tomography input {i}" for i in exc.index[1:]]
        return ", ".join(where + ["process reconstruction"])
    if len(exc.index) == 1:
        where, step = f"every delay, tomography input {exc.index[0]}", exc.step
    else:
        where, step = f"delay {delays[exc.index[0]]!r} s, tomography input {exc.index[1]}", start + exc.step
    kind = "unitary" if len(exc.event.elements) == 1 else "channel"
    return f"{where}, circuit step {step} ({kind} on qubits {exc.event.targets})"


def _profile_fit(times: np.ndarray, values: np.ndarray, tau: float) -> tuple[np.ndarray, float]:
    """Best (amplitude, offset) for a fixed tau, plus the sum of squares."""
    design = np.ones((times.size, 2))
    design[:, 0] = np.exp(-times / tau)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    residual = design @ coef - values
    return coef, float(residual @ residual)


def _bounded_brent(
    func: Callable[[float], float], lower: float, upper: float, xatol: float, maxfun: int
) -> tuple[float, bool]:
    """Minimize ``func`` on [lower, upper] by Brent's bounded search.

    Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 5:
    golden-section steps, replaced by parabolic interpolation wherever the
    parabola is acceptable.  A line-for-line port of
    ``_minimize_scalar_bounded`` from SciPy's optimize package
    (BSD-3-Clause; Copyright (c) 2001-2002 Enthought, Inc. and 2003 onward
    SciPy Developers), with the same floating-point operations in the same
    order, so ``x`` is bit-identical to SciPy's
    ``minimize_scalar(method="bounded")``.  Returns ``(x, converged)``;
    ``converged`` is false when ``maxfun`` evaluations ran out or a NaN
    appeared.
    """
    sqrt_eps = _SQRT_EPS
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lower, upper
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = func(x)
    num = 1
    fu = math.inf

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    converged = True

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _unit_sign(xm - xf)
            else:
                golden = True

        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        x = xf + _unit_sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            converged = False
            break

    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        converged = False
    return xf, converged


def _unit_sign(value: float) -> float:
    """numpy's ``sign(value) + (value == 0)``: -1.0 below zero, else 1.0."""
    return -1.0 if value < 0.0 else 1.0


def fit_exponential(times: Sequence[float], values: Sequence[float]) -> DecayFit:
    """Deterministic least-squares fit of A*exp(-t/tau) + C.

    tau is seeded from a fixed logarithmic grid (0.05 s to 10 s, 40 seeds)
    and the best seed is refined by Brent's bounded search over
    [seed/1.5, seed*1.5] (:func:`_bounded_brent`; tolerance 1e-12 of the
    seed, at most 500 evaluations); amplitude and offset come from an exact
    linear solve at each tau.  No randomness anywhere, so refits are
    reproducible bit for bit.

    tau is not identifiable when the amplitude vanishes, or when the refined
    tau lies within the search's final tolerance of an end of its bracket:
    then the best tau lies at or beyond that end, and the value is the
    bracket's, not the data's.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError("times and values must be matching 1-d sequences")
    if times.size < 4:
        raise ValueError("need at least four points to fit a three-parameter decay")
    sses = [_profile_fit(times, values, tau)[1] for tau in _TAU_GRID]
    seed = float(_TAU_GRID[int(np.argmin(sses))])
    lower, upper, xatol = seed / 1.5, seed * 1.5, seed * 1e-12
    tau, converged = _bounded_brent(lambda tau: _profile_fit(times, values, tau)[1], lower, upper, xatol, 500)
    if not converged:
        coef, sse = _profile_fit(times, values, seed)
        best = DecayFit(float(coef[0]), seed, float(coef[1]), math.sqrt(sse / times.size))
        raise FitConvergenceError("decay fit did not converge", best=best)
    coef, sse = _profile_fit(times, values, tau)
    amplitude, offset = float(coef[0]), float(coef[1])
    resolution = 2.0 * (_SQRT_EPS * abs(tau) + xatol / 3.0)  # the search's final tolerance at tau
    clipped = not min(tau - lower, upper - tau) > resolution
    identifiable = abs(amplitude) > _AMPLITUDE_FLOOR * max(1.0, abs(offset)) and not clipped
    return DecayFit(amplitude, tau, offset, math.sqrt(sse / times.size), identifiable)


def fit_decay(records: Iterable[SweepRecord]) -> DecayFit:
    """Fit the fidelity decay of a sweep; see :func:`fit_exponential`."""
    records = list(records)
    return fit_exponential([r.delay for r in records], [r.fe for r in records])


@dataclass(frozen=True)
class CurveComparison:
    """Teleport and control sweeps side by side, with fits and verdicts.

    ``teleport_beats_classical`` is an absolute statement about the teleport
    curve; the other two verdicts compare the fitted decay times, so feeding
    the same records twice makes both of them false, and they are ``None``
    (undetermined) when either fit's tau is not identifiable, e.g. on a flat
    noiseless curve where tau is fitted to rounding noise.
    """

    delays: tuple[float, ...]
    fe_teleport: tuple[float, ...]
    fe_control: tuple[float, ...]
    teleport_fit: DecayFit
    control_fit: DecayFit
    tau_ratio: float
    teleport_beats_classical: bool
    control_decays_faster: bool | None
    teleport_outlasts_control: bool | None


def compare_curves(
    teleport: Sequence[SweepRecord],
    control: Sequence[SweepRecord],
    min_tau_ratio: float = 3.0,
) -> CurveComparison:
    """Compare the two experiment families on a shared delay grid."""
    tel = list(teleport)
    ctl = list(control)
    if [r.delay for r in tel] != [r.delay for r in ctl]:
        raise ValueError("teleport and control sweeps use different delay grids")
    teleport_fit = fit_decay(tel)
    control_fit = fit_decay(ctl)
    ratio = teleport_fit.time_constant / control_fit.time_constant
    nonzero = [r for r in tel if r.delay > 0.0]
    beats_classical = bool(nonzero and nonzero[0].fe > 0.5)
    determined = teleport_fit.tau_identifiable and control_fit.tau_identifiable
    return CurveComparison(
        delays=tuple(r.delay for r in tel),
        fe_teleport=tuple(r.fe for r in tel),
        fe_control=tuple(r.fe for r in ctl),
        teleport_fit=teleport_fit,
        control_fit=control_fit,
        tau_ratio=ratio,
        teleport_beats_classical=beats_classical,
        control_decays_faster=control_fit.time_constant < teleport_fit.time_constant if determined else None,
        teleport_outlasts_control=ratio > min_tau_ratio if determined else None,
    )

"""Process tomography over a delay grid, sweeps, decay fits, and curve comparison.

:func:`tomograph`, the one tomography driver, records the single-qubit process
from the data qubit to a circuit's readout qubit, and its entanglement
fidelity, at each delay.  It runs the delay-independent circuit prefix once,
then the delays in blocks of at most 256, each block and all four tomography
inputs as one stack, tomographed in one vectorized reconstruction whose
fidelities are checked in one pass, so working memory does not grow with the
grid.  No step mixes delays, so the blocks change no result: the same circuit
always produces bit-identical records.  A sweep tomographs the teleportation
(readout on the target spin) or control (readout on the data spin) circuit.

What a sweep does not vary is built once and shared read-only: the four
tomography inputs on the register, per register size, and the relaxation
channels of the last delay grid and spin relaxation times asked for, so the
control sweep of a ``compare`` reuses those of its teleport sweep.

The decay fit states its least-squares profile once, in :func:`_profiles`, for
the 40-seed grid, every slope and the final fit alike, and never calls BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .circuits import Circuit, _has_delay_axis, control_circuit, prepare, run_events, teleport_circuit, validate_delays
from .errors import FitConvergenceError, NumericalInvariantError
from .nmr import MoleculeModel, realize_pulses
from .qstate import reduce_stack
from .tomography import _canonical_inputs, _fidelities, reconstruct_process

EXPERIMENT_KINDS = ("teleport", "control")
ENGINES = ("gate", "pulse")

# 12 uniform delays straddling the fast carbon dephasing (0.3-0.4 s) and a
# visible fraction of the much slower hydrogen decay.
DEFAULT_DELAYS: tuple[float, ...] = tuple(np.linspace(0.0, 1.2, 12))

_TAU_GRID = np.geomspace(0.05, 10.0, 40)
_AMPLITUDE_FLOOR = 1e-8
MIN_TAU_RATIO = 3.0  # teleport outlasts control when its tau is more than this many times longer
_EPS = float(np.finfo(float).eps)
_DELAY_BLOCK = 256


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

    def circuit(self) -> Circuit:
        """The circuit the engine runs for the whole delay grid: on the pulse
        engine, each gate is the step its compiled pulses realize."""
        circuit = (teleport_circuit if self.experiment == "teleport" else control_circuit)(self.delays, self.model)
        if self.engine == "pulse":
            circuit = replace(circuit, events=realize_pulses(circuit.events, self.model, self.rotation_error))
        return circuit


@dataclass(frozen=True, eq=False)
class SweepRecord:
    """One sweep point: the delay, the entanglement fidelity chi[0][0], and the process's
    Pauli transfer and chi matrices, read-only 4x4 arrays that a reconstruction has checked."""

    delay: float
    fe: float
    transfer_matrix: np.ndarray
    chi_matrix: np.ndarray

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


def tomograph(circuit: Circuit) -> list[SweepRecord]:
    """The process from qubit 0 (the four canonical inputs, every other qubit in |0>)
    to ``circuit.readout`` at every delay of ``circuit.delays``, one
    :class:`SweepRecord` per delay: the prefix once, then blocks of at most 256
    delays, each one ``(block, 4, d, d)`` stack with one reconstruction and one check
    of chi[0][0] against tr(R)/4.  A violated invariant is reported with the delay,
    tomography input and circuit step (or reconstruction) where it happened; a
    circuit with no delay step names no delay."""
    events, delays = circuit.events, circuit.delays
    start = next((i for i, ev in enumerate(events) if _has_delay_axis(ev)), len(events))
    records, lo = [], 0
    try:
        prefix = run_events(events[:start], _register_inputs(circuit.num_qubits))
        for lo in range(0, len(delays), _DELAY_BLOCK):
            block = slice(lo, lo + _DELAY_BLOCK)
            final = run_events(events[start:], np.broadcast_to(prefix, (len(delays[block]),) + prefix.shape), block)
            transfer, chi = reconstruct_process(reduce_stack(final, [circuit.readout]))
            records += map(SweepRecord, delays[block], _fidelities(transfer, chi).tolist(), transfer, chi)
    except NumericalInvariantError as exc:
        where = _where(exc, delays[lo:] if start < len(events) else None, start)  # indices count from the block
        raise NumericalInvariantError(f"{where}: {exc}") from exc
    return records


@lru_cache(maxsize=None)
def _register_inputs(num_qubits: int) -> np.ndarray:
    """The four canonical tomography inputs on qubit 0 of a ``num_qubits``-qubit
    register, every other qubit in |0>: one read-only ``(4, d, d)`` stack, built
    and validated once per register size."""
    stack = prepare(_canonical_inputs(), num_qubits)
    stack.flags.writeable = False
    return stack


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """:func:`tomograph` of the configured circuit over its delay grid; a violated
    invariant is reported with the experiment and the engine in front."""
    try:
        return tomograph(config.circuit())
    except NumericalInvariantError as exc:
        raise NumericalInvariantError(f"{config.experiment} sweep, {config.engine} engine, {exc}") from exc


def _where(exc: NumericalInvariantError, delays: Sequence[float] | None, start: int) -> str:
    """Where in :func:`tomograph` ``exc`` happened.  In the circuit (``exc.event`` set) the
    prefix stack is indexed by input, the stack after it by (delay, input), with
    steps counted from ``start``; a one-element step is a gate, any other a noise
    channel.  In the reconstruction an output state is indexed by (delay, input),
    a process map by delay.  ``delays`` is None when the circuit has no delay step:
    then the whole circuit is the prefix, and no location names a delay."""
    if exc.event is None:
        where = [f"delay {delays[exc.index[0]]!r} s"] if exc.index and delays is not None else []
        where += [f"tomography input {i}" for i in exc.index[1:]]
        return ", ".join(where + ["process reconstruction"])
    if len(exc.index) == 1:
        where, step = f"tomography input {exc.index[0]}", exc.step
        where = where if delays is None else f"every delay, {where}"
    else:
        where, step = f"delay {delays[exc.index[0]]!r} s, tomography input {exc.index[1]}", start + exc.step
    kind = "unitary" if len(exc.event.elements) == 1 else "channel"
    return f"{where}, circuit step {step} ({kind} on qubits {exc.event.targets})"


def _profiles(times: np.ndarray, centered_values: np.ndarray, taus: float | np.ndarray) -> tuple[np.ndarray, ...]:
    """The least-squares profile at each tau of ``taus``, a float or an array: the
    amplitude A, the mean decay, the residual A*d - v and the decay e = exp(-t/tau),
    with the shape of ``taus`` in front (d is e centered, v the centered values).

    A = (d.v)/(d.d), and the offset is mean(values) - A*mean(e).  A = 0 (flat)
    where the design [e, 1] is rank-deficient by a least-squares solver's default
    cutoff, sigma_min <= max(N, 2)*eps*sigma_max, e.g. when every decay underflows
    or rounds to 1: sigma_max^2 is the larger eigenvalue of the Gram matrix
    [[e.e, N*mean(e)], [N*mean(e), N]], and sigma_min*sigma_max the root of its
    determinant N*(d.d).  The dot products are ``einsum`` reductions, so none reaches
    BLAS, and a tau scored alone gives its grid row's bits.  The caller ignores the
    overflow of a huge delay's -t/tau to -inf (the decay of ``inf``, 0)."""
    n = times.size
    decay = np.exp(-times / np.asarray(taus)[..., None])
    mean_decay = decay.sum(axis=-1) / n
    centered = decay - mean_decay[..., None]
    spread = np.einsum("...j,...j->...", centered, centered)
    decay_sq = spread + n * mean_decay * mean_decay  # e.e
    sigma_max_sq = (decay_sq + n) / 2.0 + np.hypot((decay_sq - n) / 2.0, n * mean_decay)
    full_rank = np.sqrt(n * spread) > max(n, 2) * _EPS * sigma_max_sq
    products = np.einsum("...j,j->...", centered, centered_values)
    amplitude = np.divide(products, spread, out=np.zeros_like(spread), where=full_rank)
    return amplitude, mean_decay, amplitude[..., None] * centered - centered_values, decay


def _slope_root(
    slope: Callable[[float], float], lower: float, upper: float, xatol: float, maxfun: int
) -> tuple[float, bool | None]:
    """Where ``slope`` crosses from - to + in [lower, upper], by Illinois false position
    (Dowell & Jarratt, *BIT* 11, 168 (1971)): regula falsi that halves the slope
    kept at an end each time that end is kept again, so both ends close in.
    Returns ``(x, True)`` once the bracket is at most ``xatol`` wide;
    ``(end, False)`` when the slope is not negative at ``lower`` or not
    positive at ``upper``, since the minimum lies at or beyond that end; and a
    flag of ``None`` when a slope is NaN or ``maxfun`` evaluations ran out."""
    a, fa, b, fb = lower, slope(lower), upper, slope(upper)
    if math.isnan(fa) or math.isnan(fb):
        return lower, None
    if not fa < 0.0 or not fb > 0.0:
        return (upper if fa < 0.0 else lower), False
    kept = None
    for _ in range(maxfun - 2):
        x = b - fb * (b - a) / (fb - fa)
        fx = slope(x)
        if math.isnan(fx):
            return x, None
        if fx < 0.0:
            a, fa = x, fx
            fb *= 0.5 if kept == "b" else 1.0
            kept = "b"
        else:
            b, fb = x, fx
            fa *= 0.5 if kept == "a" else 1.0
            kept = "a"
        if fx == 0.0 or b - a <= xatol:
            return x, True
    return b, None


def fit_exponential(times: Sequence[float], values: Sequence[float]) -> DecayFit:
    """Deterministic least-squares fit of A*exp(-t/tau) + C to finite values at
    four or more times, each nonnegative or ``inf``; raises ``ValueError`` otherwise,
    and when a fitted amplitude, offset or RMS residual overflows a float.

    tau is seeded from a fixed logarithmic grid (0.05 s to 10 s, 40 seeds),
    all 40 scored in one call of the profile kernel (:func:`_profiles`), whose
    rows are bit for bit the seeds scored one at a time.  tau is refined to the
    root of the profile's slope dS/dtau in [seed/1.5, seed*1.5]
    (:func:`_slope_root`; tolerance 1e-12 of the seed, at most 500
    evaluations); amplitude and offset come in closed form at each tau, flat
    when the design is rank-deficient.  The grid, every slope and the final
    fit are the same kernel, whose dot products never reach BLAS.  No
    randomness anywhere, so refits are reproducible bit for bit.

    tau is not identifiable when the amplitude vanishes against the values
    (|A| at most 1e-8 of the larger of |C| and the values' scale, the least
    power of two above the largest |value|, so no unit matters), or when the slope
    does not go from negative at the bracket's lower end to positive at its
    upper end: then the best tau lies at or beyond that end, and the value
    reported is the end's, not the data's.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape:
        raise ValueError("times and values must be matching 1-d sequences")
    if not ((times >= 0.0).all() and np.isfinite(values).all()):
        bad = [(t, v) for t, v in zip(times.tolist(), values.tolist()) if not (t >= 0.0 and math.isfinite(v))]
        raise ValueError(f"times must be nonnegative or inf and values finite, got (time, value) pairs {bad}")
    if times.size < 4:
        raise ValueError("need at least four points to fit a three-parameter decay")
    # The fit runs on the values scaled by 2^-exponent, largest magnitude in [0.5, 1), so no
    # sum of squares overflows; scaling and unscaling A, C and the RMS are exact (barring
    # subnormals), so the fitted bits are those of the unscaled fit wherever it does not overflow.
    exponent = math.frexp(float(np.abs(values).max()))[1]
    scaled = np.ldexp(values, -exponent)
    mean_value = scaled.sum() / times.size
    centered_values = scaled - mean_value
    # dS/dtau, S the sum of squares at the best (A, C) for each tau: there dS/dA = dS/dC = 0,
    # so dS/dtau = 2A * sum(r t exp(-t/tau)) / tau**2 (variable projection; Golub & Pereyra,
    # SIAM J. Numer. Anal. 10, 413 (1973)).  An inf delay's multiplier is 0: it adds 0, not inf * 0.
    multiplier = np.where(times < math.inf, times, 0.0)

    def slope(tau: float) -> float:
        amplitude, _, residual, decay = _profiles(times, centered_values, tau)
        return 2.0 * float(amplitude) * float(np.einsum("j,j->", residual, multiplier * decay)) / tau**2

    with np.errstate(over="ignore"):  # a huge delay's -t/tau overflows to -inf: the decay of an inf delay, 0
        _, _, residuals, _ = _profiles(times, centered_values, _TAU_GRID)
        seed = float(_TAU_GRID[np.argmin(np.einsum("ij,ij->i", residuals, residuals))])
        tau, inside = _slope_root(slope, seed / 1.5, seed * 1.5, seed * 1e-12, 500)
        amplitude, mean_decay, residual, _ = _profiles(times, centered_values, seed if inside is None else tau)
    coef = float(amplitude), float(mean_value - amplitude * mean_decay)
    try:
        amplitude, offset = math.ldexp(coef[0], exponent), math.ldexp(coef[1], exponent)
        rms = math.ldexp(math.sqrt(np.einsum("j,j->", residual, residual) / times.size), exponent)
    except OverflowError:
        raise ValueError(f"values {values.tolist()} are too large: their fitted decay overflows a float") from None
    if inside is None:
        raise FitConvergenceError("decay fit did not converge", best=DecayFit(amplitude, seed, offset, rms))
    identifiable = abs(coef[0]) > _AMPLITUDE_FLOOR * max(1.0, abs(coef[1])) and inside
    return DecayFit(amplitude, tau, offset, rms, identifiable)


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


def compare_curves(teleport: Sequence[SweepRecord], control: Sequence[SweepRecord]) -> CurveComparison:
    """Compare the two experiment families on a shared delay grid."""
    delays = tuple(r.delay for r in teleport)
    if delays != tuple(r.delay for r in control):
        raise ValueError("teleport and control sweeps use different delay grids")
    fe_teleport, fe_control = tuple(r.fe for r in teleport), tuple(r.fe for r in control)
    teleport_fit = fit_exponential(delays, fe_teleport)
    control_fit = fit_exponential(delays, fe_control)
    ratio = teleport_fit.time_constant / control_fit.time_constant
    beats_classical = next((fe > 0.5 for delay, fe in zip(delays, fe_teleport) if delay > 0.0), False)
    determined = teleport_fit.tau_identifiable and control_fit.tau_identifiable
    return CurveComparison(
        delays=delays,
        fe_teleport=fe_teleport,
        fe_control=fe_control,
        teleport_fit=teleport_fit,
        control_fit=control_fit,
        tau_ratio=ratio,
        teleport_beats_classical=beats_classical,
        control_decays_faster=control_fit.time_constant < teleport_fit.time_constant if determined else None,
        teleport_outlasts_control=ratio > MIN_TAU_RATIO if determined else None,
    )

import decimal
import math
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmrteleport import circuits, cli, experiment, tomography
from nmrteleport.channels import RelaxationParams, relaxation_channels
from nmrteleport.circuits import ANCILLA, DATA, prepare, run_events
from nmrteleport.errors import FitConvergenceError, NumericalInvariantError
from nmrteleport.experiment import (
    DEFAULT_DELAYS,
    DecayFit,
    SweepConfig,
    SweepRecord,
    compare_curves,
    fit_exponential,
    run_sweep,
    tomograph,
)
from nmrteleport.nmr import MoleculeModel, SpinParams, tce_model
from nmrteleport.qstate import DensityMatrix, evolve, reduce_stack, validate_density
from nmrteleport.tomography import _canonical_inputs, _fidelities, reconstruct_process
from tests.helpers import (
    child_env,
    delay_grids,
    kraus_fe,
    lstsq_profile,
    per_output_reconstruction,
    per_seed_index,
    per_seed_scores,
    process_map,
    relaxation_fe,
    relaxation_params,
    teleport_fe,
)

IDENTITY_MAP = process_map(lambda stack: stack)


def per_input_outputs(config: SweepConfig) -> list[list[DensityMatrix]]:
    """Readout states of each delay and tomography input, every input run alone
    through the whole circuit of its one delay: no shared prefix, no stacking."""
    outputs = []
    for delay in config.delays:
        circuit = SweepConfig((delay,), config.experiment, config.model, config.engine, config.rotation_error).circuit()
        outputs.append([])
        for state in _canonical_inputs():
            final = run_events(circuit.events, prepare(state, 3)[None])
            outputs[-1].append(DensityMatrix(1, reduce_stack(final, [circuit.readout])[0]))
    return outputs


def records_from_curve(times, values):
    return [SweepRecord(t, v, IDENTITY_MAP.transfer_matrix, IDENTITY_MAP.chi_matrix) for t, v in zip(times, values)]


def test_noiseless_teleport_sweep_is_flat_at_one():
    config = SweepConfig((0.0, 0.3, 0.6, 0.9), "teleport", tce_model().with_relaxation(False, False))
    records = run_sweep(config)
    for record in records:
        assert record.fe == pytest.approx(1.0, abs=1e-9)


def test_control_sweep_at_zero_delay_is_perfect():
    config = SweepConfig((0.0,), "control", tce_model())
    (record,) = run_sweep(config)
    assert record.fe == pytest.approx(1.0, abs=1e-9)


def relaxed_tce(relaxations) -> MoleculeModel:
    """TCE with each spin's (C2, C1, H) T1 and T2 taken from ``relaxations``."""
    base = tce_model()
    spins = tuple(SpinParams(s.name, s.larmor_hz, r.t1, r.t2) for s, r in zip(base.spins, relaxations))
    return MoleculeModel(spins, base.j_couplings, base.active_couplings)


def tce_relaxations(c2=(25.0, 0.3), c1=(25.0, 0.4), h=(5.0, 3.0)) -> tuple[RelaxationParams, ...]:
    """Per-spin (T1, T2) of TCE, with the ones given replaced."""
    return tuple(RelaxationParams(*times) for times in (c2, c1, h))


spin_relaxations = st.tuples(relaxation_params(), relaxation_params(), relaxation_params())
sweep_grids = delay_grids.map(lambda delays: tuple(sorted(set(delays))))


@settings(max_examples=100, deadline=None)
@given(spin_relaxations, sweep_grids)
@example(tce_relaxations(), tuple(np.linspace(0.1, 1.2, 12)))
def test_control_sweep_matches_closed_form_oracle(relaxations, delays):
    # The data spin rides out the delay alone: its process is its own T1/T2 relaxation.
    model = relaxed_tce(relaxations)
    expected = [relaxation_fe(d, relaxations[DATA].t1, relaxations[DATA].t2) for d in delays]
    for engine in ("gate", "pulse"):
        fe = [r.fe for r in run_sweep(SweepConfig(delays, "control", model, engine))]
        assert np.max(np.abs(np.array(fe) - expected)) <= 1e-12


def test_control_fit_recovers_carbon_t2():
    records = run_sweep(SweepConfig(DEFAULT_DELAYS, "control", tce_model()))
    fit = fit_exponential([r.delay for r in records], [r.fe for r in records])
    assert abs(fit.time_constant - 0.3) / 0.3 < 0.15


def test_teleport_fe_exceeds_classical_bound_at_one_second():
    (record,) = run_sweep(SweepConfig((1.0,), "teleport", tce_model()))
    assert record.fe > 0.5


def test_control_process_at_infinite_delay_is_classical_transmission():
    # Dephasing-only molecule: after an infinite delay the data-to-data map
    # is exactly the computational-basis projection, whose fidelity the
    # independent Kraus-trace formula puts at 0.5.
    spins = (
        SpinParams("C2", 1e6, math.inf, 0.3),
        SpinParams("C1", 2e6, math.inf, 0.4),
        SpinParams("H", 3e6, math.inf, math.inf),
    )
    couplings = {("C1", "H"): 201.0, ("C1", "C2"): 103.0}
    model = MoleculeModel(spins, couplings, frozenset(couplings))
    (record,) = run_sweep(SweepConfig((math.inf,), "control", model))
    fe = record.fe
    oracle = kraus_fe(
        [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    )
    assert oracle == pytest.approx(0.5, abs=1e-12)
    assert fe == pytest.approx(oracle, abs=1e-9)


def test_fit_recovers_exact_exponential():
    times = np.linspace(0.0, 1.4, 8)
    values = 0.5 * np.exp(-times / 0.3) + 0.5
    fit = fit_exponential(times, values)
    assert abs(fit.amplitude - 0.5) / 0.5 < 1e-6
    assert abs(fit.time_constant - 0.3) / 0.3 < 1e-6
    assert abs(fit.offset - 0.5) / 0.5 < 1e-6
    assert fit.tau_identifiable

    records = records_from_curve(times, values)
    via_records = fit_exponential([r.delay for r in records], [r.fe for r in records])
    assert via_records.time_constant == pytest.approx(fit.time_constant, rel=1e-12)


def test_fit_flags_constant_data_as_unidentifiable():
    times = np.linspace(0.0, 1.0, 6)
    fit = fit_exponential(times, np.ones_like(times))
    assert abs(fit.amplitude) < 1e-9
    assert fit.offset == pytest.approx(1.0, abs=1e-9)
    assert not fit.tau_identifiable


def _seeded_curves(rng, count):
    """Noisy, exact, and rounding-noise-only (as with --no-noise) decay curves."""
    for i in range(count):
        size = int(rng.integers(4, 31))
        times = np.sort(rng.uniform(0.0, 1.5, size))
        times[0] = 0.0
        clean = rng.uniform(0.1, 0.75) * np.exp(-times / rng.uniform(0.05, 8.0)) + rng.uniform(0.25, 0.6)
        if i % 3 == 0:
            yield times, clean + rng.normal(scale=10.0 ** rng.uniform(-6, -2), size=size)
        elif i % 3 == 1:
            yield times, clean
        else:
            yield times, 1.0 + rng.integers(-2, 3, size) * 2.0**-53


def _exact_slope(times, values, tau):
    """dS/dtau of the profile at ``tau``, with (A, C) from the exact normal
    equations, in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        tau = decimal.Decimal(float(tau))
        t = [decimal.Decimal(float(x)) for x in times]
        y = [decimal.Decimal(float(v)) for v in values]
        e = [(-x / tau).exp() for x in t]
        see, se, sey, sy = sum(v * v for v in e), sum(e), sum(a * b for a, b in zip(e, y)), sum(y)
        det = see * len(t) - se * se
        amplitude = (sey * len(t) - se * sy) / det
        offset = (see * sy - se * sey) / det
        return 2 * amplitude * sum((amplitude * ei + offset - yi) * ti * ei for ti, ei, yi in zip(t, e, y)) / tau**2


def _assert_at_the_exact_root(times, values, fit):
    tau = fit.time_constant
    assert _exact_slope(times, values, tau * (1 - 1e-9)) < 0 < _exact_slope(times, values, tau * (1 + 1e-9)), tau


def test_fit_tau_is_the_root_of_the_exact_profile_slope():
    # Oracle: the profile's slope in 50 digits changes sign within 1e-9 of
    # every identifiable tau, on seeded curves and on the default sweeps.
    identifiable = 0
    for times, values in _seeded_curves(np.random.default_rng(2024), 300):
        fit = fit_exponential(times, values)
        if fit.tau_identifiable:
            identifiable += 1
            _assert_at_the_exact_root(times, values, fit)
    assert identifiable >= 150
    for engine in ("gate", "pulse"):
        for kind in ("teleport", "control"):
            records = run_sweep(SweepConfig(DEFAULT_DELAYS, kind, tce_model(), engine))
            fit = fit_exponential([r.delay for r in records], [r.fe for r in records])
            assert fit.tau_identifiable
            _assert_at_the_exact_root([r.delay for r in records], [r.fe for r in records], fit)


# Grids whose design [exp(-t/tau), 1] is rank-deficient at every seed tau.
DEGENERATE_GRIDS = {
    "decays all exactly 1": (0.0, 1e-300, 2e-300, 3e-300),
    "decays within ulps of 1": (0.0, 1e-17, 2e-17, 3e-17),
    "decays that underflow": (800.0, 900.0, 1000.0, 1100.0),
}


def test_profile_fit_matches_the_least_squares_solver_at_every_grid_tau():
    # Oracle: LAPACK's SVD solve, minimum-norm on a rank-deficient design.
    rng = np.random.default_rng(19)
    curves = [(np.array(grid), rng.uniform(0.25, 1.0, len(grid))) for grid in DEGENERATE_GRIDS.values()]
    curves += _seeded_curves(np.random.default_rng(2025), 90)
    for times, values in curves:
        _, _, residuals, _ = experiment._profiles(times, values - values.sum() / times.size, experiment._TAU_GRID)
        for tau, residual in zip(experiment._TAU_GRID, residuals):
            assert np.max(np.abs(residual + values - lstsq_profile(times, values, tau))) <= 1e-12, (times, tau)


@pytest.mark.parametrize("delays", DEGENERATE_GRIDS.values(), ids=DEGENERATE_GRIDS.keys())
def test_a_rank_deficient_design_fits_flat_without_warnings(tmp_path, delays):
    values = np.array([0.9, 0.4, 0.7, 0.6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_exponential(delays, values)
        assert cli.main(["compare", "--delays", ",".join(map(repr, delays)), "--out", str(tmp_path)]) == 0
    assert (fit.amplitude, fit.offset, fit.tau_identifiable) == (0.0, pytest.approx(0.65, abs=1e-15), False)
    summary = (tmp_path / "summary.txt").read_text()
    assert summary.count("tau_identifiable = no") == 2 and summary.count(" A = 0\n") == 2


# A fit's delays: ordinary ones, 0, inf and 1e308 (whose -t/tau overflows to the decay of inf).
_FIT_TIMES = st.one_of(st.just(0.0), st.just(math.inf), st.just(1e308), st.floats(0.0, 10.0, allow_subnormal=False))


@st.composite
def fit_curves(draw):
    """Delays, or a grid of :data:`DEGENERATE_GRIDS`, with flat, noiseless-decay or
    arbitrary values at one scale from subnormal to near the float maximum."""
    times = draw(st.one_of(st.sampled_from(list(DEGENERATE_GRIDS.values())), st.lists(_FIT_TIMES, min_size=4, max_size=12)))
    unit, kind = st.floats(-1.0, 1.0), draw(st.sampled_from(["flat", "noiseless", "arbitrary"]))
    if kind == "flat":
        values = [draw(unit)] * len(times)
    elif kind == "noiseless":
        amplitude, offset, tau = draw(unit), draw(unit), draw(st.floats(0.01, 20.0))
        with np.errstate(over="ignore"):
            values = amplitude * np.exp(-np.array(times) / tau) + offset
    else:
        values = draw(st.lists(unit, min_size=len(times), max_size=len(times)))
    return np.array(times), draw(st.sampled_from([1.0, 1e-310, 1e-300, 1e-9, 1e300, 5e307])) * np.asarray(values)


@settings(max_examples=300, deadline=None)
@given(fit_curves())
@example((np.array(DEGENERATE_GRIDS["decays that underflow"]), np.array([0.9, 0.4, 0.7, 0.6])))
@example((np.array([0.0, 0.3, 0.6, 0.9]), np.array([1e308, -1e308, 1e308, 0.0])))
@example((np.array([0.0, 0.3, 0.6, 0.9]), np.array([1e-310, 5e-311, 2e-311, 1e-311])))
@example((np.array([math.inf, 1.0, math.inf, math.inf]), np.array([0.0, math.exp(-1.0), 0.0, 0.0])))
# Seeds near 1 s decay to 1e-18 at these delays: rows the rank rule fits flat, though not all 0.
@example((np.array([40.0, 41.0, 42.0, 43.0]), 1e17 * np.exp(-np.array([40.0, 41.0, 42.0, 43.0]))))
# Delays of a few 1e-15 s: at grid taus near 1 s the rank rule passes or fails by less than 4x.
@example((np.array([0.0, 3e-15, 6e-15, 9e-15]), np.array([0.9, 0.4, 0.7, 0.6])))
def test_the_grid_scored_in_one_call_picks_the_per_seed_loop_seed(curve):
    # Oracle: the 40 seeds scored one at a time by helpers.profile_fit.  The grid's
    # sums of squares are the loop's bit for bit, a tau scored alone gives its
    # grid row's bits, and the fit's bracket is centred on the loop's seed.
    times, values = curve
    scaled = np.ldexp(values, -math.frexp(float(np.abs(values).max()))[1])
    centered = scaled - scaled.sum() / times.size
    real_root, brackets = experiment._slope_root, []

    def spy(slope, lower, upper, xatol, maxfun):
        brackets.append((lower, upper))
        return real_root(slope, lower, upper, xatol, maxfun)

    with warnings.catch_warnings(), mock.patch.object(experiment, "_slope_root", spy):
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):  # as in fit_exponential: a huge delay's decay is 0
            grid = experiment._profiles(times, centered, experiment._TAU_GRID)
            alone = [experiment._profiles(times, centered, tau) for tau in experiment._TAU_GRID]
        try:
            fit_exponential(times, values)
        except (FitConvergenceError, ValueError):
            pass
    scores = np.einsum("ij,ij->i", grid[2], grid[2])
    assert [x.hex() for x in scores.tolist()] == [x.hex() for x in per_seed_scores(times, scaled)]
    for row, outputs in enumerate(alone):
        assert [np.asarray(x).tobytes() for x in outputs] == [x[row].tobytes() for x in grid], row
    seed = experiment._TAU_GRID[per_seed_index(times, scaled)]
    assert brackets == [(seed / 1.5, seed * 1.5)]


def test_fit_reports_non_convergence_with_best_seed(monkeypatch):
    # A cap of 3 slope evaluations leaves one step after the two ends: not
    # enough to close the bracket to 1e-12 of the seed.
    times = np.linspace(0.0, 1.4, 8)
    values = 0.5 * np.exp(-times / 0.3) + 0.5
    real = experiment._slope_root
    monkeypatch.setattr(experiment, "_slope_root", lambda f, lo, hi, xatol, maxfun: real(f, lo, hi, xatol, 3))
    with pytest.raises(FitConvergenceError) as info:
        fit_exponential(times, values)
    assert info.value.best.time_constant in experiment._TAU_GRID


@pytest.mark.parametrize("first_nan", [0, 2], ids=["at the ends", "inside the bracket"])
def test_fit_reports_a_nan_slope_as_non_convergence(monkeypatch, first_nan):
    # The first two slopes are the bracket's ends; the next one is inside it.
    times = np.linspace(0.0, 1.4, 8)
    values = 0.5 * np.exp(-times / 0.3) + 0.5
    real_root, calls = experiment._slope_root, []

    def root_of_nan_slopes(slope, lower, upper, xatol, maxfun):
        def nan_slope(tau):
            calls.append(tau)
            return math.nan if len(calls) > first_nan else slope(tau)

        return real_root(nan_slope, lower, upper, xatol, maxfun)

    monkeypatch.setattr(experiment, "_slope_root", root_of_nan_slopes)
    with pytest.raises(FitConvergenceError) as info:
        fit_exponential(times, values)
    assert info.value.best.time_constant in experiment._TAU_GRID


@pytest.mark.parametrize("engine", ["gate", "pulse"])
def test_compare_with_an_infinite_delay_fits_without_warnings(tmp_path, engine):
    # 1e308 / tau overflows to the decay of an inf delay.
    for delays in ("0,0.3,0.6,0.9,inf", "0,0.3,0.6,0.9,1e308"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["compare", "--engine", engine, "--delays", delays, "--out", str(tmp_path)]) == 0
        assert caught == []
        assert (tmp_path / "summary.txt").read_text().count("tau_identifiable = ") == 2


def test_fit_requires_four_points():
    with pytest.raises(ValueError):
        fit_exponential([0.0, 0.1, 0.2], [1.0, 0.9, 0.8])


@pytest.mark.parametrize(
    "times, values, bad",
    [
        ((0.0, 0.3, 0.6, 0.9), (1.0, math.nan, 0.5, 0.4), (0.3, math.nan)),
        ((0.0, 0.3, 0.6, 0.9), (1.0, 0.8, math.inf, 0.4), (0.6, math.inf)),
        ((0.0, 0.3, 0.6, 0.9), (1.0, 0.8, 0.5, -math.inf), (0.9, -math.inf)),
        ((0.0, math.nan, 0.6, 0.9), (1.0, 0.8, 0.5, 0.4), (math.nan, 0.8)),
        ((-math.inf, 0.3, 0.6, 0.9), (1.0, 0.8, 0.5, 0.4), (-math.inf, 1.0)),
        ((-1000.0, 0.3, 0.6, 0.9), (1.0, 0.8, 0.5, 0.4), (-1000.0, 1.0)),
    ],
    ids=["nan value", "inf value", "-inf value", "nan time", "-inf time", "negative time"],
)
def test_fit_rejects_a_non_finite_value_or_a_time_that_is_not_a_delay(times, values, bad):
    # At the parent these ended in DecayFit's "residual norm must be nonnegative, got nan".
    with pytest.raises(ValueError, match=re.escape(f"got (time, value) pairs [{bad}]")):
        fit_exponential(times, values)


def test_compare_curves_tce_parameters():
    model = tce_model()
    teleport = run_sweep(SweepConfig(DEFAULT_DELAYS, "teleport", model))
    control = run_sweep(SweepConfig(DEFAULT_DELAYS, "control", model))
    comparison = compare_curves(teleport, control)
    assert comparison.tau_ratio > 3.0
    assert comparison.teleport_beats_classical
    assert comparison.control_decays_faster
    assert comparison.teleport_outlasts_control
    # Teleportation holds more fidelity than the control at every delay.
    for d, ft, fc in zip(comparison.delays, comparison.fe_teleport, comparison.fe_control):
        if d > 0.0:
            assert ft >= fc


def test_compare_curves_identical_inputs():
    records = run_sweep(SweepConfig(DEFAULT_DELAYS, "control", tce_model()))
    comparison = compare_curves(records, records)
    assert comparison.tau_ratio == pytest.approx(1.0, abs=1e-15)
    assert not comparison.control_decays_faster
    assert not comparison.teleport_outlasts_control


def test_compare_curves_leaves_tau_verdicts_undetermined_on_flat_fits():
    records = run_sweep(SweepConfig((0.0, 0.3, 0.6, 0.9), "teleport", tce_model().with_relaxation(False, False)))
    comparison = compare_curves(records, records)
    assert not comparison.teleport_fit.tau_identifiable
    assert comparison.teleport_beats_classical
    assert comparison.control_decays_faster is None
    assert comparison.teleport_outlasts_control is None


def test_compare_curves_rejects_mismatched_grids():
    model = tce_model()
    a = run_sweep(SweepConfig((0.0, 0.2, 0.4, 0.6), "control", model))
    b = run_sweep(SweepConfig((0.0, 0.2, 0.4, 0.8), "control", model))
    with pytest.raises(ValueError):
        compare_curves(a, b)


def test_sweeps_are_deterministic():
    config = SweepConfig((0.0, 0.4, 0.8, 1.2), "teleport", tce_model())
    first = run_sweep(config)
    second = run_sweep(config)
    for a, b in zip(first, second):
        assert a.fe == b.fe
        assert np.array_equal(a.transfer_matrix, b.transfer_matrix)
        assert np.array_equal(a.chi_matrix, b.chi_matrix)


def test_fidelity_never_increases_with_delay():
    model = tce_model()
    for kind in ("teleport", "control"):
        records = run_sweep(SweepConfig(DEFAULT_DELAYS, kind, model))
        for earlier, later in zip(records, records[1:]):
            assert later.fe <= earlier.fe + 1e-12


def test_control_curve_approaches_dephasing_floor():
    records = run_sweep(SweepConfig(DEFAULT_DELAYS, "control", tce_model()))
    assert abs(records[-1].fe - 0.5) < 0.02


def test_gate_and_pulse_engines_agree():
    model = tce_model()
    delays = (0.0, 0.3, 0.9)
    for kind in ("teleport", "control"):
        gate = run_sweep(SweepConfig(delays, kind, model, engine="gate"))
        pulse = run_sweep(SweepConfig(delays, kind, model, engine="pulse"))
        for g, p in zip(gate, pulse):
            assert abs(g.fe - p.fe) < 1e-6


def test_sweep_config_validation():
    model = tce_model()
    with pytest.raises(ValueError):
        SweepConfig((), "teleport", model)
    with pytest.raises(ValueError):
        SweepConfig((-0.1, 0.2), "teleport", model)
    with pytest.raises(ValueError):
        SweepConfig((0.3, 0.3), "teleport", model)
    for delays in ((math.nan,), (0.0, math.nan, 1.0), (0.0, math.inf, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError):
            SweepConfig(delays, "teleport", model)
    assert SweepConfig((0, 0.5, math.inf), "teleport", model).delays == (0.0, 0.5, math.inf)
    with pytest.raises(ValueError):
        SweepConfig((0.0, 0.1), "reheat", model)
    with pytest.raises(ValueError):
        SweepConfig((0.0, 0.1), "teleport", model, engine="analog")
    with pytest.raises(ValueError):
        SweepRecord(0.1, 1.5, IDENTITY_MAP.transfer_matrix, IDENTITY_MAP.chi_matrix)


@settings(max_examples=100, deadline=None)
@given(spin_relaxations, sweep_grids)
# Carbon T2 must not matter (0.01 s against 40 s), carbon T1 does, per spin.
@example(tce_relaxations(), DEFAULT_DELAYS + (math.inf,))
@example(tce_relaxations(c2=(4.0, 0.3), c1=(40.0, 0.4)), DEFAULT_DELAYS + (math.inf,))
@example(tce_relaxations(c2=(25.0, 0.01), c1=(25.0, 0.01)), DEFAULT_DELAYS + (math.inf,))
@example(tce_relaxations(c2=(25.0, 40.0), c1=(25.0, 40.0)), DEFAULT_DELAYS + (math.inf,))
def test_teleport_sweep_matches_closed_form_curve(relaxations, delays):
    model = relaxed_tce(relaxations)
    c2, c1, h = relaxations
    expected = [teleport_fe(d, c2.t1, c1.t1, h.t1, h.t2) for d in delays]
    for engine in ("gate", "pulse"):
        fe = [r.fe for r in run_sweep(SweepConfig(delays, "teleport", model, engine))]
        assert np.max(np.abs(np.array(fe) - expected)) <= 1e-12


def test_decay_fit_validation():
    with pytest.raises(ValueError):
        DecayFit(0.5, -1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        DecayFit(0.5, 1.0, 0.5, -0.1)


def test_decay_fit_rejects_nan_residual():
    with pytest.raises(ValueError):
        DecayFit(0.5, 1.0, 0.5, math.nan)


def test_fit_convergence_error_carries_best_parameters():
    err = FitConvergenceError("no luck", best=DecayFit(0.5, 0.3, 0.5, 0.01))
    assert err.best.time_constant == pytest.approx(0.3)


def test_hoisted_sweep_matches_per_delay_tomography():
    # Oracle: tomograph each delay's full circuit input by input, with no
    # shared prefix and no stacking.
    model = tce_model()
    delays = (0.0, 0.15, 0.7, math.inf)
    for engine, rotation_error in (("gate", 0.0), ("pulse", 0.0), ("pulse", 0.05)):
        for kind in ("teleport", "control"):
            config = SweepConfig(delays, kind, model, engine, rotation_error)
            for record, outputs in zip(run_sweep(config), per_input_outputs(config)):
                (transfer,), (chi,) = reconstruct_process(np.stack([out.matrix for out in outputs]))
                fe = float(_fidelities(transfer, chi))
                if engine == "gate":
                    assert np.array_equal(record.transfer_matrix, transfer)
                    assert np.array_equal(record.chi_matrix, chi)
                    assert record.fe == fe
                else:
                    assert np.max(np.abs(record.transfer_matrix - transfer)) < 1e-12
                    assert np.max(np.abs(record.chi_matrix - chi)) < 1e-12
                    assert abs(record.fe - fe) < 1e-12


def test_tomograph_labels_its_records_with_the_circuit_grid():
    model = tce_model()
    delays = (0.0, 0.15, 0.7, math.inf)
    for build in (circuits.teleport_circuit, circuits.control_circuit):
        records = tomograph(build(delays, model))
        assert [r.delay for r in records] == list(delays)
        for record, delay in zip(records, delays):
            (alone,) = tomograph(build((delay,), model))
            assert (alone.delay, alone.fe) == (delay, record.fe)
            assert np.array_equal(alone.chi_matrix, record.chi_matrix)
    # With no delay step, the circuit is the same process at every delay of its grid.
    records = tomograph(circuits.Circuit(1, (), delays=(0.1, 0.2)))
    assert [(r.delay, r.fe) for r in records] == [(0.1, 1.0), (0.2, 1.0)]


def test_sweep_validates_every_intermediate_state(monkeypatch, uncached_delay_noise):
    # Corrupt the sweep's batched delay channels after construction: the data
    # spin's one gains trace by 1.21, the ancilla's loses it again, so the
    # final states are physical and only the check after each step can see
    # the violation.
    scale = {DATA: 1.1, ANCILLA: 1.0 / 1.1}

    def corrupted(durations, params, target=0):
        channel = relaxation_channels(durations, params, target)
        elements = tuple(scale.get(target, 1.0) * a for a in channel.elements)
        object.__setattr__(channel, "elements", elements)
        return channel

    monkeypatch.setattr(circuits, "relaxation_channels", corrupted)
    model = tce_model()
    delays = (0.0, 0.3)
    for kind, build in (("teleport", circuits.teleport_circuit), ("control", circuits.control_circuit)):
        final = np.broadcast_to(prepare(np.diag([1.0, 0.0]).astype(complex), 3), (len(delays), 8, 8))
        for ev in build(delays, model).events:  # unchecked replay: the end states pass
            final = evolve(final, ev.elements, ev.targets)
        validate_density(final)
        for engine in ("gate", "pulse"):
            with pytest.raises(NumericalInvariantError):
                run_sweep(SweepConfig(delays, kind, model, engine))


def test_sweep_reconstruction_matches_per_output_oracle():
    # Oracle: each delay's outputs computed input by input through the full
    # circuit, then reconstructed one output at a time.
    model = tce_model()
    delays = (0.0, 0.15, 0.7, math.inf)
    for engine, rotation_error in (("gate", 0.0), ("pulse", 0.0), ("pulse", 0.05)):
        for kind in ("teleport", "control"):
            config = SweepConfig(delays, kind, model, engine, rotation_error)
            for record, outputs in zip(run_sweep(config), per_input_outputs(config)):
                transfer, chi = per_output_reconstruction(outputs)
                if engine == "gate":
                    assert np.array_equal(record.transfer_matrix, transfer)
                    assert np.array_equal(record.chi_matrix, chi)
                else:
                    assert np.max(np.abs(record.transfer_matrix - transfer)) <= 1e-15
                    assert np.max(np.abs(record.chi_matrix - chi)) <= 1e-15


def _corrupt_last_delay(monkeypatch, delays, factor):
    """Scale the data spin's batched delay channel by ``factor`` at ``delays[-1]`` only."""

    def corrupted(durations, params, target=0):
        channel = relaxation_channels(durations, params, target)
        if target == DATA:
            scale = np.where(np.asarray(durations) == delays[-1], factor, 1.0)[:, None, None]
            object.__setattr__(channel, "elements", tuple(scale * a for a in channel.elements))
        return channel

    monkeypatch.setattr(circuits, "relaxation_channels", corrupted)


def test_sweep_catches_a_corrupted_channel_on_the_last_delay_only(monkeypatch, uncached_delay_noise):
    delays = (0.0, 0.3, 0.6, 0.9)
    for corrupt in (1.1, math.nan):
        _corrupt_last_delay(monkeypatch, delays, corrupt)
        for kind in ("teleport", "control"):
            for engine in ("gate", "pulse"):
                with pytest.raises(NumericalInvariantError):
                    run_sweep(SweepConfig(delays, kind, tce_model(), engine))
                run_sweep(SweepConfig(delays[:-1], kind, tce_model(), engine))


def test_sweep_violation_names_its_delay_input_and_step(monkeypatch, uncached_delay_noise, tmp_path, capsys):
    delays = (0.0, 0.3, 0.6, 0.9)
    # The data spin's relaxation is step 4 of the teleport circuit (after
    # entangle and Bell rotation) and step 2 of the control circuit.
    for kind, step in (("teleport", 4), ("control", 2)):
        for engine in ("gate", "pulse"):
            _corrupt_last_delay(monkeypatch, delays, math.nan)
            with pytest.raises(NumericalInvariantError) as info:
                run_sweep(SweepConfig(delays, kind, tce_model(), engine))
            assert str(info.value) == (
                f"{kind} sweep, {engine} engine, delay 0.9 s, tomography input 0, circuit step {step} (channel on qubits (0,)): "
                "matrix deviates from Hermitian by nan (tol 1.0e-10)"
            )
            _corrupt_last_delay(monkeypatch, delays, 1.1)
            with pytest.raises(NumericalInvariantError) as info:
                run_sweep(SweepConfig(delays, kind, tce_model(), engine))
            message = str(info.value)
            assert message.startswith(f"{kind} sweep, {engine} engine, delay 0.9 s, tomography input ")
            assert message.endswith(f", circuit step {step} (channel on qubits (0,)): trace deviates from 1 by 2.100e-01")
    code = cli.main(["teleport", "--delays", "0,0.3,0.6,0.9", "--out", str(tmp_path)])
    assert code == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(
        "numerical invariant violated: teleport sweep, gate engine, delay 0.9 s, tomography input "
    )


def test_reconstruction_violation_in_a_sweep_names_its_delay(monkeypatch):
    # Transposed outputs are valid states of a process that is not completely
    # positive; scaled ones are not states.
    delays = (0.0, 0.3, 0.6, 0.9)

    def corrupt(index, change):
        def reduced(stack, keep):
            outputs = reduce_stack(stack, keep).copy()
            outputs[index] = change(outputs[index])
            return outputs

        monkeypatch.setattr(experiment, "reduce_stack", reduced)

    corrupt(2, lambda outputs: np.swapaxes(outputs, -1, -2))
    with pytest.raises(NumericalInvariantError) as info:
        run_sweep(SweepConfig(delays, "teleport", tce_model(), "pulse"))
    assert str(info.value).startswith("teleport sweep, pulse engine, delay 0.6 s, process reconstruction: chi matrix: eigenvalue ")
    corrupt((1, 3), lambda output: 1.5 * output)
    with pytest.raises(NumericalInvariantError) as info:
        run_sweep(SweepConfig(delays, "control", tce_model()))
    assert str(info.value) == (
        "control sweep, gate engine, delay 0.3 s, tomography input 3, process reconstruction: "
        "trace deviates from 1 by 5.000e-01"
    )


def test_a_sweep_of_three_blocks_equals_its_one_delay_sweeps():
    # 600 delays run as blocks of 256, 256 and 88.
    model = tce_model()
    delays = tuple(np.linspace(0.0, 1.2, 600))
    for engine in ("gate", "pulse"):
        records = run_sweep(SweepConfig(delays, "teleport", model, engine))
        assert [r.delay for r in records] == list(delays)
        for record in records:
            (alone,) = run_sweep(SweepConfig((record.delay,), "teleport", model, engine))
            assert record.fe == alone.fe
            assert np.array_equal(record.transfer_matrix, alone.transfer_matrix)
            assert np.array_equal(record.chi_matrix, alone.chi_matrix)


def test_a_violation_in_the_prefix_names_every_delay(monkeypatch):
    # The entangling CNOT is step 1 of both circuits; the prefix runs once for every delay.
    circuits._controlled_correction()  # built from the clean gates before the patch
    hadamard, cnot = circuits._ENTANGLE
    bad = circuits.KrausChannel(cnot.targets, cnot.elements)
    object.__setattr__(bad, "elements", tuple(1.1 * a for a in bad.elements))
    monkeypatch.setattr(circuits, "_ENTANGLE", (hadamard, bad))
    for kind in ("teleport", "control"):
        with pytest.raises(NumericalInvariantError) as info:
            run_sweep(SweepConfig((0.0, 0.3, 0.6), kind, tce_model()))
        found = re.fullmatch(
            re.escape(f"{kind} sweep, gate engine, every delay, tomography input ")
            + "[0-3]"
            + re.escape(", circuit step 1 (unitary on qubits (1, 2)): trace deviates from 1 by 2.100e-01"),
            str(info.value),
        )
        assert found, str(info.value)


def test_a_violation_in_the_second_block_names_its_delay(monkeypatch, uncached_delay_noise):
    # Delay 299 of 300 is the 44th of the second block, in its circuit and in its reconstruction.
    delays = tuple(map(float, np.linspace(0.0, 1.2, 300)))
    for engine in ("gate", "pulse"):
        _corrupt_last_delay(monkeypatch, delays, math.nan)
        with pytest.raises(NumericalInvariantError) as info:
            run_sweep(SweepConfig(delays, "teleport", tce_model(), engine))
        assert str(info.value) == (
            f"teleport sweep, {engine} engine, delay {delays[-1]!r} s, tomography input 0, circuit step 4 "
            "(channel on qubits (0,)): matrix deviates from Hermitian by nan (tol 1.0e-10)"
        )
    monkeypatch.undo()

    def reduced(stack, keep):
        outputs = reduce_stack(stack, keep).copy()
        if len(outputs) < 256:
            outputs[43] = np.swapaxes(outputs[43], -1, -2)
        return outputs

    monkeypatch.setattr(experiment, "reduce_stack", reduced)
    with pytest.raises(NumericalInvariantError) as info:
        run_sweep(SweepConfig(delays, "control", tce_model()))
    assert str(info.value).startswith(f"control sweep, gate engine, delay {delays[-1]!r} s, process reconstruction: chi matrix: ")


def test_sweep_memory_does_not_grow_with_the_grid():
    # Each delay keeps its record (about 1.5 KB); everything else is bounded by the block.
    child = """
import resource, sys
import numpy as np
from nmrteleport.experiment import SweepConfig, run_sweep
from nmrteleport.nmr import tce_model
run_sweep(SweepConfig(tuple(np.linspace(0.0, 1.2, int(sys.argv[1]))), "teleport", tce_model()))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    peak_kb = {}
    for size in (1_000, 5_000):
        result = subprocess.run([sys.executable, "-c", child, str(size)], env=child_env(), capture_output=True, text=True, check=True)
        peak_kb[size] = int(result.stdout)
    assert (peak_kb[5_000] - peak_kb[1_000]) / 4_000 <= 6.0


def test_a_second_sweep_builds_no_density_matrix(monkeypatch):
    config = SweepConfig((0.0, 0.3, 0.6, 0.9), "teleport", tce_model())
    first = run_sweep(config)
    built = []
    real = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: built.append(real(self)))
    second = run_sweep(config)
    assert built == []
    assert [r.fe for r in second] == [r.fe for r in first]


def test_sweep_builds_one_circuit_and_one_relaxation_channel_per_spin(monkeypatch):
    # The gate steps are built once per process; on the pulse engine a fresh model
    # adds one realized step per distinct prefix gate (H, CNOT, CNOT, H; H, CNOT),
    # and the circuit of realized steps.
    delays = tuple(np.linspace(0.0, 1.2, 30))
    for kind in ("teleport", "control"):
        SweepConfig(delays, kind, tce_model()).circuit()
    realized = {("gate", "teleport"): 0, ("gate", "control"): 0, ("pulse", "teleport"): 4, ("pulse", "control"): 2}
    counts = {circuits.Circuit: 0, circuits.KrausChannel: 0}
    for cls in counts:
        real = cls.__post_init__

        def counted(self, real=real, cls=cls):
            counts[cls] += 1
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    for engine in ("gate", "pulse"):
        for kind in ("teleport", "control"):
            counts.update(dict.fromkeys(counts, 0))
            circuits._spin_relaxation.cache_clear()  # the delay noise is cached by value
            run_sweep(SweepConfig(delays, kind, tce_model(), engine))
            assert counts == {circuits.Circuit: 1 + (engine == "pulse"), circuits.KrausChannel: 3 + realized[engine, kind]}


def test_a_fidelity_mismatch_in_a_sweep_names_its_delay(monkeypatch):
    # tr(R)/4 of the third map moves by 2.5e-7, past the 1e-9 tolerance; chi[0][0] does not.
    delays = (0.0, 0.3, 0.6, 0.9)
    clean = run_sweep(SweepConfig(delays, "teleport", tce_model()))

    def reconstruct(outputs):
        transfer, chi = tomography.reconstruct_process(outputs)
        transfer = transfer.copy()
        transfer[2, 3, 3] += 1e-6
        return transfer, chi

    monkeypatch.setattr(experiment, "reconstruct_process", reconstruct)
    for engine in ("gate", "pulse"):
        with pytest.raises(NumericalInvariantError) as info:
            run_sweep(SweepConfig(delays, "teleport", tce_model(), engine))
        prefix = f"teleport sweep, {engine} engine, delay 0.6 s, process reconstruction: fidelity mismatch: "
        found = re.fullmatch(re.escape(prefix) + r"chi00=(\S+) vs tr\(R\)/4=(\S+)", str(info.value))
        assert found, str(info.value)
        fe_chi, fe_transfer = map(float, found.groups())
        assert abs(fe_chi - clean[2].fe) < 1e-12
        assert abs(fe_transfer - fe_chi - 2.5e-7) < 1e-12


def test_a_sweep_with_the_same_delays_and_another_t2_gets_fresh_noise(fresh_delay_noise):
    # The control curve reads the data spin's T2; each sweep must match one on a cold cache.
    delays = (0.0, 0.3, 0.6)
    base = tce_model()
    c2, c1, h = base.spins
    other = MoleculeModel((SpinParams(c2.name, c2.larmor_hz, c2.t1, 0.5 * c2.t2), c1, h), base.j_couplings, base.active_couplings)
    fe = {}
    for model in (base, other, base):
        warm = [r.fe for r in run_sweep(SweepConfig(delays, "control", model))]
        circuits._spin_relaxation.cache_clear()
        assert warm == [r.fe for r in run_sweep(SweepConfig(delays, "control", model))]
        fe.setdefault(model, warm)
    assert fe[base][1:] != fe[other][1:]


def test_the_cached_register_inputs_and_delay_noise_are_read_only(fresh_delay_noise):
    inputs = experiment._register_inputs(3)
    assert experiment._register_inputs(3) is inputs
    assert np.array_equal(inputs, prepare(_canonical_inputs(), 3))
    noise = circuits._delay_noise((0.0, 0.3), tce_model())
    assert circuits._delay_noise((0.0, 0.3), tce_model()) is noise
    for array in (inputs, *(a for channel in noise for a in channel.elements)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0.0


def test_rotation_error_must_be_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            SweepConfig((0.0, 0.3), "teleport", tce_model(), "pulse", bad)


def test_fit_flags_tau_clipped_at_bracket_edge():
    # tau = 40 s and 200 s both lie far beyond the seed grid's last bracket
    # (10 s * 1.5): the search stops at its edge, so tau is not identified.
    times = np.linspace(0.0, 1.2, 12)
    for tau in (40.0, 200.0):
        fit = fit_exponential(times, 0.5 * np.exp(-times / tau) + 0.5)
        assert not fit.tau_identifiable
    slow = records_from_curve(times, 0.5 * np.exp(-times / 200.0) + 0.5)
    fast = records_from_curve(times, 0.5 * np.exp(-times / 0.3) + 0.5)
    comparison = compare_curves(slow, fast)
    assert comparison.control_decays_faster is None
    assert comparison.teleport_outlasts_control is None


def test_fit_of_values_near_the_float_maximum_overflows_nothing():
    # Their sums of squares overflowed: a RuntimeWarning, then residual_norm = inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for values in ((1e308, -1e308, 1e308, 0.0), (1e300, -1e300, 1e300, 0.0)):
            fit = fit_exponential((0.0, 0.3, 0.6, 0.9), values)
            assert all(map(math.isfinite, (fit.amplitude, fit.time_constant, fit.offset, fit.residual_norm)))
            assert 0.0 < fit.residual_norm < max(values)


def test_fit_rejects_values_whose_fitted_decay_overflows_a_float():
    values = (1.7e308, -1.7e308, 1.7e308, -1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(f"values {list(values)} are too large")):
            fit_exponential((0.0, 0.3, 0.6, 0.9), values)


@pytest.mark.parametrize("exponent", [-1000, -3, 5, 1000])
def test_fit_of_values_scaled_by_a_power_of_two_scales_exactly(exponent):
    times = np.linspace(0.0, 1.4, 8)
    values = 0.5 * np.exp(-times / 0.3) + 0.5 + np.random.default_rng(25).normal(0.0, 0.01, times.size)
    base, scaled = fit_exponential(times, values), fit_exponential(times, np.ldexp(values, exponent))
    assert scaled.time_constant == base.time_constant
    expected = tuple(math.ldexp(x, exponent) for x in (base.amplitude, base.offset, base.residual_norm))
    assert (scaled.amplitude, scaled.offset, scaled.residual_norm) == expected


def test_a_clean_decay_is_identifiable_in_any_units():
    # The amplitude floor is relative to the values' scale: an absolute one left a clean
    # decay in small units unidentifiable, with the same fitted tau.
    times = (0.0, 0.3, 0.6, 0.9)
    for values in ((1.0, 0.5, 0.2, 0.1), (1e-9, 5e-10, 2e-10, 1e-10), (1e-310, 5e-311, 2e-311, 1e-311)):
        fit = fit_exponential(times, values)
        assert fit.tau_identifiable, values
        assert fit.time_constant == pytest.approx(0.4438, abs=1e-4), values


def test_fit_rejects_times_and_values_of_different_lengths():
    with pytest.raises(ValueError, match="^times and values must be matching 1-d sequences$"):
        fit_exponential((0.0, 0.3, 0.6, 0.9), (1.0, 0.5, 0.2))

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrteleport.channels import (
    KrausChannel,
    RelaxationParams,
    depolarizing_channel,
    relaxation_channels,
)
from nmrteleport.circuits import run_events
from nmrteleport.errors import NumericalInvariantError
from nmrteleport.qstate import IDENTITY_2, PAULI_Z, PAULIS
from tests.helpers import (
    SPANNING_1Q,
    apply_elements,
    closed_form_decay,
    delay_grids,
    dephasing,
    random_cptp_elements,
    random_density,
    relaxation_params,
)

PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
SPANNING = np.stack(SPANNING_1Q)


def act(channel, rho):
    """The executor's output, checked, for one channel event on a state or a stack,
    run as a sweep of one delay (a leading delay axis of length 1)."""
    return run_events((channel,), np.asarray(rho)[None])[0]


def test_identity_channel_leaves_state_unchanged():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 2)
    out = act(KrausChannel((1,), (IDENTITY_2,)), rho.matrix)
    assert np.allclose(out, rho.matrix, atol=1e-12)


def test_complete_amplitude_damping_decays_excited_state():
    one = np.diag([0.0, 1.0]).astype(complex)
    out = act(relaxation_channels((math.inf,), RelaxationParams(t1=1.0, t2=2.0)), one)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_dephasing_zero_duration_is_identity():
    assert np.allclose(act(dephasing(0.0, 0.3), SPANNING), SPANNING, atol=1e-12)


def test_dephasing_infinite_duration_fully_mixes_plus():
    out = act(dephasing(math.inf, 0.3), PLUS)
    assert np.allclose(out, np.eye(2) / 2.0, atol=1e-12)


def test_dephasing_off_diagonal_factor():
    # Closed form: factor exp(-duration/t2); cross-checked by composing ten
    # short steps against the single long step.
    out = act(dephasing(0.3, 0.3), PLUS)
    assert out[0, 1] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)
    stepped = run_events([dephasing(0.03, 0.3)] * 10, PLUS[None])[0]
    assert np.max(np.abs(stepped - out)) < 1e-10


def test_dephasing_rejects_negative_duration():
    for duration in (-0.1, math.nan):
        with pytest.raises(ValueError):
            dephasing(duration, 0.3)


def test_relaxation_zero_duration_is_identity():
    ch = relaxation_channels((0.0,), RelaxationParams(25.0, 0.3))
    assert np.allclose(act(ch, SPANNING), SPANNING, atol=1e-12)


def test_relaxation_without_t1_reduces_to_dephasing():
    # Oracle: the textbook phase-damping pair sqrt((1+f)/2) I, sqrt((1-f)/2) Z
    # with f = exp(-t/T2), applied by a plain sum.
    relax = relaxation_channels((0.7,), RelaxationParams(math.inf, 0.3))
    f = math.exp(-0.7 / 0.3)
    pure_t2 = (math.sqrt((1.0 + f) / 2.0) * IDENTITY_2, math.sqrt((1.0 - f) / 2.0) * PAULI_Z)
    assert np.max(np.abs(act(relax, SPANNING) - apply_elements(SPANNING, pure_t2))) < 1e-12


def test_relaxation_closed_form_action_on_plus():
    out = act(relaxation_channels((0.3,), RelaxationParams(25.0, 0.3)), PLUS)
    assert out[0, 1] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)
    assert out[1, 1].real == pytest.approx(0.5 * math.exp(-0.3 / 25.0), abs=1e-12)

    # Small-step composition oracle: thirty 0.01 s steps equal one 0.3 s step.
    stepped = run_events([relaxation_channels((0.01,), RelaxationParams(25.0, 0.3))] * 30, PLUS[None])[0]
    assert np.max(np.abs(stepped - out)) < 1e-10


def test_relaxation_rejects_unphysical_times():
    with pytest.raises(ValueError):
        RelaxationParams(t1=1.0, t2=2.5)
    with pytest.raises(ValueError):
        RelaxationParams(t1=0.0, t2=0.3)
    for duration in (-1.0, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            relaxation_channels((duration,), RelaxationParams(25.0, 0.3))


def test_channel_constructors_reject_what_they_cannot_build():
    with pytest.raises(ValueError, match="^need at least one duration$"):
        relaxation_channels((), RelaxationParams(25.0, 0.3))
    for p in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"probability must be in [0, 1], got {p}")):
            depolarizing_channel(p)
    with pytest.raises(ValueError, match="^channel needs at least one operation element$"):
        KrausChannel((0,), ())
    for elements, shapes in (
        ((IDENTITY_2, np.eye(4)), "[(2, 2), (4, 4)]"),
        ((IDENTITY_2, np.stack([IDENTITY_2] * 3)), "[(2, 2), (3, 2, 2)]"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"element shapes {shapes} do not fit targets (0,)")):
            KrausChannel((0,), elements)


def test_depolarizing_limits():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 1).matrix
    assert np.allclose(act(depolarizing_channel(0.0), rho), rho, atol=1e-12)
    assert np.allclose(act(depolarizing_channel(1.0), rho), np.eye(2) / 2.0, atol=1e-12)
    with pytest.raises(ValueError):
        depolarizing_channel(1.5)


def test_depolarizing_interpolates():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 1).matrix
    p = 0.37
    expected = (1 - p) * rho + p * np.eye(2) / 2.0
    assert np.max(np.abs(act(depolarizing_channel(p), rho) - expected)) < 1e-12


def test_channel_construction_rejects_non_trace_preserving():
    with pytest.raises(ValueError):
        KrausChannel((0,), (0.5 * np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        KrausChannel((0,), ())
    with pytest.raises(ValueError):
        KrausChannel((0, 0), (np.eye(4, dtype=complex),))


def test_apply_channel_rejects_out_of_range_targets():
    ch = dephasing(0.1, 0.3, target=2)
    with pytest.raises(ValueError):
        act(ch, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))


def test_dephasing_semigroup():
    rng = np.random.default_rng(14)
    for _ in range(10):
        t_a, t_b = rng.random(2) * 0.8
        split = run_events([dephasing(t, 0.4) for t in (t_a, t_b)], SPANNING[None])[0]
        joined = act(dephasing(t_a + t_b, 0.4), SPANNING)
        assert np.max(np.abs(split - joined)) < 1e-10


def test_relaxation_semigroup():
    rng = np.random.default_rng(15)
    params = RelaxationParams(2.0, 0.5)
    for _ in range(10):
        t_a, t_b = rng.random(2) * 0.8
        split = run_events([relaxation_channels((t,), params) for t in (t_a, t_b)], SPANNING[None])[0]
        joined = act(relaxation_channels((t_a + t_b,), params), SPANNING)
        assert np.max(np.abs(split - joined)) < 1e-10


def test_apply_channel_preserves_trace_randomized():
    rng = np.random.default_rng(21)
    for _ in range(25):
        ch = KrausChannel((0,), tuple(random_cptp_elements(rng, 3)))
        out = act(ch, random_density(rng, 2).matrix)
        assert abs(np.trace(out) - 1.0) < 1e-10
    # The executor checks every output: a channel scaled after its own check
    # leaves states of trace 1.21, which it rejects.
    object.__setattr__(ch, "elements", tuple(1.1 * a for a in ch.elements))
    with pytest.raises(NumericalInvariantError):
        act(ch, random_density(rng, 2).matrix)


def test_nan_fails_trace_preservation_and_timescale_checks():
    with pytest.raises(ValueError):
        KrausChannel((0,), (np.full((2, 2), np.nan, dtype=complex),))
    with pytest.raises(ValueError, match="t2 must be positive"):
        dephasing(0.3, math.nan)
    with pytest.raises(ValueError, match="t1 must be positive"):
        relaxation_channels((0.3,), RelaxationParams(math.nan, 0.3))


@settings(max_examples=40, deadline=None)
@given(delay_grids, relaxation_params())
def test_batched_relaxation_has_the_closed_form_transfer_matrix_at_every_delay(durations, params):
    batched = np.stack(relaxation_channels(durations, params, target=1).elements)
    assert batched.shape == (4, len(durations), 2, 2)
    paulis = [PAULIS[p] for p in "IXYZ"]
    for d, duration in enumerate(durations):
        # R[i, j] = tr(P_i E(P_j)) / 2, E applied by a plain sum over the elements.
        transfer = np.array(
            [[np.trace(p_i @ apply_elements(p_j, batched[:, d])) / 2.0 for p_j in paulis] for p_i in paulis]
        )
        e2, gamma = closed_form_decay(duration, params.t2), 1.0 - closed_form_decay(duration, params.t1)
        expected = np.array([[1.0, 0, 0, 0], [0, e2, 0, 0], [0, 0, e2, 0], [gamma, 0, 0, 1.0 - gamma]])
        assert np.max(np.abs(transfer - expected)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(delay_grids, relaxation_params(), st.integers(0, 7))
def test_nan_duration_and_t2_beyond_twice_t1_are_rejected(durations, params, position):
    with_nan = list(durations)
    with_nan.insert(min(position, len(with_nan)), math.nan)
    with pytest.raises(ValueError):
        relaxation_channels(with_nan, params)
    with pytest.raises(ValueError):
        relaxation_channels((math.nan,), params)
    if math.isfinite(params.t1):
        with pytest.raises(ValueError):
            RelaxationParams(params.t1, math.nextafter(2.0 * params.t1, math.inf))

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrteleport.channels import (
    KrausChannel,
    RelaxationParams,
    apply_channel,
    dephasing_channel,
    depolarizing_channel,
    measurement_dephasing,
    relaxation_channel,
    relaxation_channels,
)
from nmrteleport.qstate import IDENTITY_2, DensityMatrix, PureState, bell_states
from tests.helpers import SPANNING_1Q, random_cptp_elements, random_density

PLUS = DensityMatrix(1, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))


def channel_action(channel, states):
    """Outputs of a channel over a list of density-matrix arrays."""
    return [apply_channel(DensityMatrix(1, s), channel).matrix for s in states]


def test_identity_channel_leaves_state_unchanged():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 2)
    out = apply_channel(rho, KrausChannel((1,), (IDENTITY_2,)))
    assert np.allclose(out.matrix, rho.matrix, atol=1e-12)


def test_measurement_dephasing_diagonalizes_bell_state():
    bell = bell_states()[0].density()
    out = apply_channel(bell, measurement_dephasing((0, 1)))
    expected = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert np.allclose(out.matrix, expected, atol=1e-12)


def test_measurement_dephasing_fixes_diagonal_states():
    diag = DensityMatrix(2, np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
    out = apply_channel(diag, measurement_dephasing((0, 1)))
    assert np.allclose(out.matrix, diag.matrix, atol=1e-12)


def test_measurement_dephasing_idempotent():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 2)
    once = apply_channel(rho, measurement_dephasing((0, 1)))
    twice = apply_channel(once, measurement_dephasing((0, 1)))
    assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-12


def test_measurement_dephasing_requires_distinct_targets():
    with pytest.raises(ValueError):
        measurement_dephasing((1, 1))


def test_complete_amplitude_damping_decays_excited_state():
    one = PureState.from_bits("1").density()
    ch = relaxation_channel(math.inf, RelaxationParams(t1=1.0, t2=2.0))
    out = apply_channel(one, ch)
    assert np.allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_dephasing_zero_duration_is_identity():
    ch = dephasing_channel(0.0, 0.3)
    for s in SPANNING_1Q:
        out = apply_channel(DensityMatrix(1, s), ch)
        assert np.allclose(out.matrix, s, atol=1e-12)


def test_dephasing_infinite_duration_fully_mixes_plus():
    out = apply_channel(PLUS, dephasing_channel(math.inf, 0.3))
    assert np.allclose(out.matrix, np.eye(2) / 2.0, atol=1e-12)


def test_dephasing_off_diagonal_factor():
    # Closed form: factor exp(-duration/t2); cross-checked by composing ten
    # short steps against the single long step.
    out = apply_channel(PLUS, dephasing_channel(0.3, 0.3))
    assert out.matrix[0, 1] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)

    stepped = PLUS
    for _ in range(10):
        stepped = apply_channel(stepped, dephasing_channel(0.03, 0.3))
    assert np.max(np.abs(stepped.matrix - out.matrix)) < 1e-10


def test_dephasing_rejects_negative_duration():
    for duration in (-0.1, math.nan):
        with pytest.raises(ValueError):
            dephasing_channel(duration, 0.3)


def test_relaxation_zero_duration_is_identity():
    ch = relaxation_channel(0.0, RelaxationParams(25.0, 0.3))
    for s in SPANNING_1Q:
        out = apply_channel(DensityMatrix(1, s), ch)
        assert np.allclose(out.matrix, s, atol=1e-12)


def test_relaxation_without_t1_reduces_to_dephasing():
    relax = relaxation_channel(0.7, RelaxationParams(math.inf, 0.3))
    pure_t2 = dephasing_channel(0.7, 0.3)
    for a, b in zip(channel_action(relax, SPANNING_1Q), channel_action(pure_t2, SPANNING_1Q)):
        assert np.max(np.abs(a - b)) < 1e-12


def test_relaxation_closed_form_action_on_plus():
    out = apply_channel(PLUS, relaxation_channel(0.3, RelaxationParams(25.0, 0.3)))
    assert out.matrix[0, 1] == pytest.approx(0.5 * math.exp(-1.0), abs=1e-12)
    assert out.matrix[1, 1].real == pytest.approx(0.5 * math.exp(-0.3 / 25.0), abs=1e-12)

    # Small-step composition oracle: thirty 0.01 s steps equal one 0.3 s step.
    stepped = PLUS
    for _ in range(30):
        stepped = apply_channel(stepped, relaxation_channel(0.01, RelaxationParams(25.0, 0.3)))
    assert np.max(np.abs(stepped.matrix - out.matrix)) < 1e-10


def test_relaxation_rejects_unphysical_times():
    with pytest.raises(ValueError):
        RelaxationParams(t1=1.0, t2=2.5)
    with pytest.raises(ValueError):
        RelaxationParams(t1=0.0, t2=0.3)
    for duration in (-1.0, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            relaxation_channel(duration, RelaxationParams(25.0, 0.3))


def test_depolarizing_limits():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 1)
    unchanged = apply_channel(rho, depolarizing_channel(0.0))
    assert np.allclose(unchanged.matrix, rho.matrix, atol=1e-12)
    mixed = apply_channel(rho, depolarizing_channel(1.0))
    assert np.allclose(mixed.matrix, np.eye(2) / 2.0, atol=1e-12)
    with pytest.raises(ValueError):
        depolarizing_channel(1.5)


def test_depolarizing_interpolates():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 1)
    p = 0.37
    out = apply_channel(rho, depolarizing_channel(p))
    expected = (1 - p) * rho.matrix + p * np.eye(2) / 2.0
    assert np.max(np.abs(out.matrix - expected)) < 1e-12


def test_channel_construction_rejects_non_trace_preserving():
    with pytest.raises(ValueError):
        KrausChannel((0,), (0.5 * np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        KrausChannel((0,), ())
    with pytest.raises(ValueError):
        KrausChannel((0, 0), (np.eye(4, dtype=complex),))


def test_apply_channel_rejects_out_of_range_targets():
    ch = dephasing_channel(0.1, 0.3, target=2)
    with pytest.raises(ValueError):
        apply_channel(DensityMatrix.ground(2), ch)


def test_dephasing_semigroup():
    rng = np.random.default_rng(14)
    for _ in range(10):
        t_a, t_b = rng.random(2) * 0.8
        one_step = dephasing_channel(t_a + t_b, 0.4)
        for s in SPANNING_1Q:
            rho = DensityMatrix(1, s)
            split = apply_channel(apply_channel(rho, dephasing_channel(t_a, 0.4)), dephasing_channel(t_b, 0.4))
            joined = apply_channel(rho, one_step)
            assert np.max(np.abs(split.matrix - joined.matrix)) < 1e-10


def test_relaxation_semigroup():
    rng = np.random.default_rng(15)
    params = RelaxationParams(2.0, 0.5)
    for _ in range(10):
        t_a, t_b = rng.random(2) * 0.8
        one_step = relaxation_channel(t_a + t_b, params)
        for s in SPANNING_1Q:
            rho = DensityMatrix(1, s)
            split = apply_channel(apply_channel(rho, relaxation_channel(t_a, params)), relaxation_channel(t_b, params))
            joined = apply_channel(rho, one_step)
            assert np.max(np.abs(split.matrix - joined.matrix)) < 1e-10


def test_measurement_dephasing_equals_infinite_per_qubit_dephasing():
    rng = np.random.default_rng(16)
    projection = measurement_dephasing((0, 1))
    deph_0 = dephasing_channel(math.inf, 0.3, target=0)
    deph_1 = dephasing_channel(math.inf, 0.3, target=1)
    for _ in range(10):
        rho = random_density(rng, 2)
        via_projection = apply_channel(rho, projection)
        via_dephasing = apply_channel(apply_channel(rho, deph_0), deph_1)
        assert np.max(np.abs(via_projection.matrix - via_dephasing.matrix)) < 1e-12


def test_apply_channel_preserves_trace_randomized():
    rng = np.random.default_rng(21)
    for _ in range(25):
        ch = KrausChannel((0,), tuple(random_cptp_elements(rng, 3)))
        rho = random_density(rng, 2)
        out = apply_channel(rho, ch)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-10


def test_nan_fails_trace_preservation_and_timescale_checks():
    with pytest.raises(ValueError):
        KrausChannel((0,), (np.full((2, 2), np.nan, dtype=complex),))
    with pytest.raises(ValueError):
        dephasing_channel(0.3, math.nan)
    with pytest.raises(ValueError):
        relaxation_channel(0.3, RelaxationParams(math.nan, 0.3))


@st.composite
def relaxation_params(draw):
    """Valid (T1, T2): either may be inf, and T2 <= 2 T1."""
    t1 = draw(st.one_of(st.just(math.inf), st.floats(1e-3, 1e3)))
    t2 = draw(st.one_of(st.just(math.inf), st.floats(1e-3, 1e3)) if math.isinf(t1) else st.floats(1e-3, 2.0 * t1))
    return RelaxationParams(t1, t2)


delay_grids = st.lists(
    st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 1e3, allow_subnormal=False)), min_size=1, max_size=8
)


@settings(max_examples=40, deadline=None)
@given(delay_grids, relaxation_params())
def test_batched_relaxation_matches_the_scalar_channel_of_every_delay(durations, params):
    batched = np.stack(relaxation_channels(durations, params, target=1).elements)
    assert batched.shape == (4, len(durations), 2, 2)
    for d, duration in enumerate(durations):
        scalar = np.stack(relaxation_channel(duration, params).elements)
        kept = np.abs(batched[:, d]).max(axis=(1, 2)) > 0.0
        assert batched[kept, d].tobytes() == scalar.tobytes()
        assert not batched[~kept, d].any()


@settings(max_examples=20, deadline=None)
@given(delay_grids, relaxation_params(), st.integers(0, 7))
def test_nan_duration_and_t2_beyond_twice_t1_are_rejected(durations, params, position):
    with_nan = list(durations)
    with_nan.insert(min(position, len(with_nan)), math.nan)
    with pytest.raises(ValueError):
        relaxation_channels(with_nan, params)
    with pytest.raises(ValueError):
        relaxation_channel(math.nan, params)
    if math.isfinite(params.t1):
        with pytest.raises(ValueError):
            RelaxationParams(params.t1, math.nextafter(2.0 * params.t1, math.inf))

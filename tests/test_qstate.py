import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from nmrteleport.channels import RelaxationParams, relaxation_channels
from nmrteleport.errors import NumericalInvariantError
from nmrteleport.qstate import (
    CNOT,
    HADAMARD,
    HERMITICITY_TOL,
    IDENTITY_2,
    PAULI_X,
    PAULI_Z,
    PAULIS,
    PSD_SLACK,
    TRACE_TOL,
    DensityMatrix,
    _apply_on,
    evolve,
    real_expectations,
    reduce_stack,
    validate_density,
)
from nmrteleport.tomography import CHI_HERMITICITY_TOL, CHI_PSD_SLACK, CHI_TRACE_TOL
from tests.helpers import (
    BELL_STATES,
    apply_elements,
    basis_state,
    brute_reduced,
    count_eigvalsh,
    hermitian_with_least_eigenvalue,
    lift_operator,
    pauli_expectation,
    pauli_string,
    projector,
    random_density,
    random_pure_state,
    reference_outcome,
    reference_validate_density,
    state_fidelity,
    validation_outcome,
)


def test_tensor_identity():
    assert np.allclose(np.kron(IDENTITY_2, IDENTITY_2), np.eye(4))


def test_tensor_zz_sign_on_11():
    zz = np.kron(PAULI_Z, PAULI_Z)
    ket = np.array([0, 0, 0, 1.0])
    assert np.allclose(zz @ ket, ket)


def test_tensor_projector():
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = 1.0  # |01>
    assert np.allclose(np.kron(p0, p1), expected)


def test_partial_trace_bell_is_maximally_mixed():
    rho = projector(BELL_STATES[0])
    for keep in ([0], [1]):
        assert np.allclose(reduce_stack(rho, keep), np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    rho_a = random_density(rng, 1)
    rho_b = random_density(rng, 2)
    joint = np.kron(rho_a.matrix, rho_b.matrix)
    assert np.allclose(reduce_stack(joint, [0]), rho_a.matrix, atol=1e-10)
    assert np.allclose(reduce_stack(joint, [1, 2]), rho_b.matrix, atol=1e-10)


def test_partial_trace_matches_brute_force_contraction():
    # Input qubit entangled with a Bell pair, then reduced to the last qubit;
    # a stack of such states is reduced member by member.
    rng = np.random.default_rng(5)
    stack = np.stack([projector(np.kron(random_pure_state(rng, 1), BELL_STATES[0])) for _ in range(3)])
    for keep in ([2], [0, 1], [0, 2]):
        reduced = reduce_stack(stack, keep)
        for member, rho in zip(reduced, stack):
            assert np.allclose(member, brute_reduced(rho, 3, keep), atol=1e-12)


def test_partial_trace_keep_all_is_identity_operation():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 2)
    assert np.allclose(reduce_stack(rho.matrix, [0, 1]), rho.matrix)


def test_partial_trace_invalid_indices():
    rho = projector(basis_state("00"))
    for keep in ([2], [], [0, 0]):
        with pytest.raises(ValueError):
            reduce_stack(rho, keep)


def test_pauli_expectations():
    zero = projector(basis_state("0"))
    plus = projector(np.array([1, 1]) / np.sqrt(2))
    bell = projector(BELL_STATES[0])
    assert real_expectations(zero, pauli_string("Z")[None]) == pytest.approx([1.0], abs=1e-12)
    assert real_expectations(plus, pauli_string("X")[None]) == pytest.approx([1.0], abs=1e-12)
    assert real_expectations(bell, np.stack([pauli_string("ZZ"), pauli_string("XX"), pauli_string("YY")])) == pytest.approx(
        [1.0, 1.0, -1.0], abs=1e-12
    )


def test_pauli_expectation_linearity():
    rng = np.random.default_rng(17)
    ops = np.stack([pauli_string(label) for label in ("XZ", "YI", "ZZ")])
    for _ in range(10):
        rho_a = random_density(rng, 2).matrix
        rho_b = random_density(rng, 2).matrix
        w = rng.random()
        direct = real_expectations(w * rho_a + (1 - w) * rho_b, ops)
        combined = w * real_expectations(rho_a, ops) + (1 - w) * real_expectations(rho_b, ops)
        assert np.max(np.abs(direct - combined)) <= 1e-10
        stacked = real_expectations(np.stack([rho_a, rho_b]), ops)
        assert np.array_equal(stacked[0], real_expectations(rho_a, ops))


def test_pauli_expectation_label_mismatch():
    # The oracle's own checks; the package rejects a corrupted state in validate_density.
    with pytest.raises(ValueError):
        pauli_expectation(projector(basis_state("00")), "X")
    with pytest.raises(ValueError):
        pauli_expectation(projector(basis_state("0")), "Q")


@given(st.lists(st.integers(1, 4), max_size=2), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_pauli_expectations_of_a_validated_2x2_stack_have_no_imaginary_part(batch, drift, seed):
    # real_expectations drops the imaginary part of tr(H P): for the Hermitian part H
    # that validate_density returns it is exactly 0.0, whether the states are exact or
    # drift from Hermitian by up to HERMITICITY_TOL.
    rng = np.random.default_rng(seed)
    stack = np.stack([random_density(rng).matrix for _ in range(math.prod(batch))]).reshape(*batch, 2, 2)
    noise = rng.normal(size=stack.shape) + 1j * rng.normal(size=stack.shape)
    drifted = stack + drift * HERMITICITY_TOL / 2.0 * noise / np.abs(noise).max()
    paulis = np.stack([PAULIS[label] for label in "XYZ"])
    einsum, values = np.einsum, []
    for matrices in (stack, drifted):
        hermitian = validate_density(matrices, HERMITICITY_TOL, np.inf, np.inf)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "einsum", lambda *args: values.append(einsum(*args)) or values[-1])
            real = real_expectations(hermitian, paulis)
        assert real.shape == (*batch, 3) and np.array_equal(real, values[-1].real)
        assert np.all(values[-1].imag == 0.0)


def test_state_fidelity_anchors():
    zero = projector(basis_state("0"))
    one = projector(basis_state("1"))
    plus = projector(np.array([1, 1]) / np.sqrt(2))
    assert state_fidelity(zero, zero) == pytest.approx(1.0, abs=1e-12)
    assert state_fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    assert state_fidelity(zero, plus) == pytest.approx(0.5, abs=1e-12)


def test_state_fidelity_symmetric_and_pure_overlap():
    rng = np.random.default_rng(23)
    for _ in range(10):
        psi = random_pure_state(rng, 2)
        phi = random_pure_state(rng, 2)
        overlap = abs(np.vdot(psi, phi)) ** 2
        f_ab = state_fidelity(projector(psi), projector(phi))
        f_ba = state_fidelity(projector(phi), projector(psi))
        assert f_ab == pytest.approx(overlap, abs=1e-9)
        assert f_ab == pytest.approx(f_ba, abs=1e-9)


def test_state_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        state_fidelity(projector(basis_state("0")), projector(basis_state("00")))


def test_density_matrix_rejects_unphysical_input():
    with pytest.raises(NumericalInvariantError):
        DensityMatrix(1, np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(NumericalInvariantError):
        DensityMatrix(1, np.array([[0.7, 0.0], [0.0, 0.7]]))  # trace 1.4
    with pytest.raises(NumericalInvariantError):
        DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue


def test_density_matrix_rejects_a_register_its_matrix_does_not_fit():
    with pytest.raises(ValueError, match="^need at least one qubit$"):
        DensityMatrix(0, np.eye(1))
    with pytest.raises(ValueError, match=r"^matrix shape \(2, 2\) does not fit 2 qubits$"):
        DensityMatrix(2, np.eye(2) / 2.0)


def test_pure_state_requires_normalization():
    with pytest.raises(NumericalInvariantError):
        DensityMatrix(1, projector([1.0, 1.0]))


def test_nan_amplitudes_are_rejected_at_construction():
    with pytest.raises(NumericalInvariantError):
        DensityMatrix(1, projector([np.nan, 0.0]))


def test_validate_density_names_the_failing_matrix():
    rng = np.random.default_rng(39)
    stack = np.stack([[random_density(rng, 2).matrix for _ in range(3)] for _ in range(2)])
    asymmetric, off_trace, negative, nan = (stack.copy() for _ in range(4))
    asymmetric[1, 2, 0, 1] += 1e-6
    off_trace[1, 2] *= 1.5
    negative[1, 2] = np.diag([1.5, -0.5, 0.0, 0.0])
    nan[0, 1, 3, 3] = nan[1, 2, 3, 3] = np.nan  # the first NaN matrix is named
    for bad, index in ((asymmetric, (1, 2)), (off_trace, (1, 2)), (negative, (1, 2)), (nan, (0, 1))):
        with pytest.raises(NumericalInvariantError) as info:
            validate_density(bad)
        assert info.value.index == index
    with pytest.raises(NumericalInvariantError) as info:
        validate_density(off_trace[1, 2])
    assert info.value.index == ()


def test_bell_projectors_complete():
    total = sum(projector(b) for b in BELL_STATES)
    assert np.max(np.abs(total - np.eye(4))) < 1e-12


def test_hadamard_and_cnot_make_a_bell_state():
    u = lift_operator(CNOT, (0, 1), 2) @ lift_operator(HADAMARD, (0,), 2)
    assert np.allclose(u @ basis_state("00"), BELL_STATES[0], atol=1e-12)


def test_enforce_hermitian_raises_beyond_tolerance():
    # The Hermiticity check alone: no trace or positivity slack can waive it.
    with pytest.raises(NumericalInvariantError):
        validate_density(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), HERMITICITY_TOL, np.inf, np.inf)
    drift = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]], dtype=complex)
    assert np.array_equal(validate_density(drift, HERMITICITY_TOL, np.inf, np.inf), (drift + drift.T) / 2.0)


def test_partial_trace_of_product_matches_factor_randomized():
    rng = np.random.default_rng(31)
    pairs = [(random_density(rng, 1).matrix, random_density(rng, 1).matrix) for _ in range(20)]
    joint = np.stack([np.kron(a, b) for a, b in pairs])
    for keep, factor in (([0], 0), ([1], 1)):
        expected = np.stack([pair[factor] for pair in pairs])
        assert np.max(np.abs(reduce_stack(joint, keep) - expected)) < 1e-10


def test_nan_entry_raises_invariant_error_not_linalg_error():
    matrix = np.eye(2, dtype=complex) / 2.0
    matrix[0, 0] = np.nan
    with pytest.raises(NumericalInvariantError):
        DensityMatrix(1, matrix)
    stack = np.stack([random_density(np.random.default_rng(i), 3).matrix for i in range(4)])
    stack[2, 5, 5] = np.nan
    with pytest.raises(NumericalInvariantError):
        validate_density(stack)


def test_validate_density_checks_every_member_of_a_stack():
    rng = np.random.default_rng(37)
    stack = np.stack([random_density(rng, 3).matrix for _ in range(4)])
    hermitian = validate_density(stack)  # the Hermitian part, exactly
    assert np.array_equal(hermitian, np.conj(np.swapaxes(hermitian, -1, -2)))
    assert np.max(np.abs(hermitian - stack)) < 1e-15
    off_trace = stack.copy()
    off_trace[3] *= 1.5
    negative = stack.copy()
    negative[3] = np.diag([1.5, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    for bad in (off_trace, negative):
        with pytest.raises(NumericalInvariantError):
            validate_density(bad)


def sweep_sized_stack(rng):
    """A ``(30, 4, 8, 8)`` stack, the size of a 30-delay sweep, of valid states."""
    return np.stack([[hermitian_with_least_eigenvalue(rng, 0.0) for _ in range(4)] for _ in range(30)])


def test_certificate_decides_a_sweep_sized_stack_with_eigvalsh_only_on_failure(monkeypatch):
    rng = np.random.default_rng(43)
    stack = sweep_sized_stack(rng)
    stack[11, 1] = hermitian_with_least_eigenvalue(rng, -5e-10)  # within the slack
    calls = count_eigvalsh(monkeypatch)
    assert np.array_equal(validate_density(stack), (stack + np.conj(np.swapaxes(stack, -1, -2))) / 2.0)
    assert len(calls) == 0
    negative, nan = stack.copy(), stack.copy()
    negative[17, 2] = hermitian_with_least_eigenvalue(rng, -2e-9)
    nan[5, 1, 3, 3] = np.nan
    with pytest.raises(NumericalInvariantError) as info:
        validate_density(negative)
    assert str(info.value) == "eigenvalue -2.000e-09 < -1.0e-09"
    assert info.value.index == (17, 2) and len(calls) == 1
    with pytest.raises(NumericalInvariantError) as info:
        validate_density(nan)
    assert info.value.index == (5, 1)


def test_a_member_exactly_at_the_slack_fails_the_factorization_and_passes_the_rule(monkeypatch):
    # H + slack*I has an exact zero pivot, so only eigvalsh can accept it.
    stack = sweep_sized_stack(np.random.default_rng(47))
    stack[3, 0] = np.diag([1.0 + PSD_SLACK, -PSD_SLACK, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    calls = count_eigvalsh(monkeypatch)
    validate_density(stack)
    assert len(calls) == 1


def test_infinite_slack_skips_the_certificate_without_a_warning():
    stack = sweep_sized_stack(np.random.default_rng(49))
    stack[0, 0] = np.diag([1.5, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_density(stack, psd_slack=np.inf)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([PSD_SLACK, CHI_PSD_SLACK]),
    st.sampled_from([2, 4, 8]),
    st.lists(st.floats(1e-12, 1e-8) | st.floats(-1e-8, -1e-12) | st.just(None), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_validate_density_passes_exactly_when_the_least_eigenvalue_is_within_the_slack(slack, dim, offsets, seed):
    # Each member's least eigenvalue is -slack + offset (a valid state for None),
    # never within 1e-12 of the boundary, where rounding may decide either way.
    rng = np.random.default_rng(seed)
    least = [0.0 if offset is None else offset - slack for offset in offsets]
    stack = np.stack([hermitian_with_least_eigenvalue(rng, value, dim) for value in least])
    oracle = float(np.min(np.linalg.eigvalsh(stack)))
    try:
        validate_density(stack, psd_slack=slack)
        passed = True
    except NumericalInvariantError:
        passed = False
    assert passed == (oracle >= -slack)


# (Hermiticity, trace, slack): the states' rule, chi's, and one without a slack.
TOLERANCE_SETS = ((HERMITICITY_TOL, TRACE_TOL, PSD_SLACK), (CHI_HERMITICITY_TOL, CHI_TRACE_TOL, CHI_PSD_SLACK), (HERMITICITY_TOL, TRACE_TOL, np.inf))
FAULTS = ("asymmetric", "trace", "negative", "nan", "inf", "signed_zeros")


def faulty_stack(rng, shape, kind, faults, tolerances):
    """Valid states of ``shape``, then a fault of ``kind`` on each ``(member, scale)``
    in turn: ``member`` is a flat index into the leading axes, and ``scale`` times
    the tolerance the fault probes is its size."""
    dim = shape[-1]
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    stack = a @ np.conj(np.swapaxes(a, -1, -2))
    stack /= np.trace(stack, axis1=-2, axis2=-1)[..., None, None]
    members = stack.reshape(-1, dim, dim)
    hermiticity_tol, trace_tol, slack = tolerances
    for member, scale in faults:
        m = members[member % len(members)]
        i, j = rng.choice(dim, 2, replace=False)
        if kind == "asymmetric":
            m[i, j] += scale * hermiticity_tol * (1j if rng.random() < 0.5 else 1.0)
        elif kind == "trace":
            m[i, i] += scale * trace_tol
        elif kind == "negative":
            m[...] = hermitian_with_least_eigenvalue(rng, -scale * min(slack, PSD_SLACK), dim)
        elif kind in ("nan", "inf"):
            m[i, j if rng.random() < 0.5 else i] = complex(np.nan if kind == "nan" else np.inf, 0.0)
        else:  # an exact zero pair, each part a zero of either sign
            m[i, j], m[j, i] = (complex(*rng.choice([0.0, -0.0], 2)) for _ in range(2))
    return stack


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([(2, 2), (4, 4), (4, 8, 8)]),
    st.integers(1, 4),
    st.sampled_from(TOLERANCE_SETS),
    st.sampled_from(FAULTS),
    st.lists(st.tuples(st.integers(0, 15), st.floats(0.25, 4.0)), max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_validate_density_matches_the_reference_verdict_and_bits(tail, k, tolerances, kind, faults, seed):
    # The same returned bytes, or the same error class, message and index, and no warning.
    stack = faulty_stack(np.random.default_rng(seed), (k, *tail), kind, faults, tolerances)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validation_outcome(validate_density, stack, *tolerances) == reference_outcome(stack, *tolerances)
        if k == 1:
            assert validation_outcome(validate_density, stack[0], *tolerances) == reference_outcome(stack[0], *tolerances)


def test_validate_density_returns_a_fresh_c_ordered_array_and_leaves_its_input_alone():
    rng = np.random.default_rng(53)
    stack = np.stack([0.1 * random_density(rng, 3).matrix + 0.9 * np.eye(8) / 8 for _ in range(4)])
    stack[:, 0, 1], stack[:, 1, 0] = complex(-0.0, -0.0), complex(-0.0, 0.0)  # x / 2 and x * 0.5 differ here
    read_only = stack.copy()
    read_only.flags.writeable = False
    broadcast = np.broadcast_to(stack[1], (6, *stack[1].shape))  # a sweep's shared prefix, read-only
    for matrices in (stack, read_only, broadcast, stack[::2], stack[2], np.asfortranarray(stack)):
        before = matrices.tobytes()
        for slack in (PSD_SLACK, np.inf):
            hermitian = validate_density(matrices, psd_slack=slack)
            assert hermitian.flags.c_contiguous and not np.shares_memory(hermitian, matrices)
            assert hermitian.tobytes() == reference_validate_density(matrices, psd_slack=slack).tobytes()
        assert matrices.tobytes() == before


def test_evolve_matches_lifted_conjugation_on_stacks():
    # Oracle: lift every element to the full register and conjugate.
    rng = np.random.default_rng(41)
    stack = np.stack([random_density(rng, 3).matrix for _ in range(4)])
    for targets in ((0,), (2,), (1, 0), (0, 2), (2, 0, 1)):
        k = len(targets)
        g = rng.normal(size=(2 * 2**k, 2**k)) + 1j * rng.normal(size=(2 * 2**k, 2**k))
        q, _ = np.linalg.qr(g)
        elements = (q[: 2**k], q[2**k :])  # a random two-element Kraus set
        expected = sum(
            lift_operator(a, targets, 3) @ stack @ lift_operator(a, targets, 3).conj().T for a in elements
        )
        assert np.max(np.abs(evolve(stack, elements, targets) - expected)) < 1e-13
    with pytest.raises(ValueError):
        evolve(stack, (PAULI_X,), (3,))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.permutations(range(n)), st.integers(1, n))),
    mutually_broadcastable_shapes(num_shapes=2, max_dims=2, max_side=3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_apply_on_matches_the_lifted_product(register, batches, on_columns, seed):
    # Oracle: lift each operator of a batch of non-Hermitian ones to the register and
    # multiply: on the row axes of its targets it acts as L M, on their column axes as M L^T.
    (n, order, k), ((op_batch, matrix_batch), batch) = register, batches
    targets, dim, d = tuple(order[:k]), 2**n, 2**k
    rng = np.random.default_rng(seed)
    op = rng.normal(size=(*op_batch, d, d)) + 1j * rng.normal(size=(*op_batch, d, d))
    matrix = rng.normal(size=(*matrix_batch, dim, dim)) + 1j * rng.normal(size=(*matrix_batch, dim, dim))
    lifted = np.array([lift_operator(o, targets, n) for o in op.reshape(-1, d, d)]).reshape(*op_batch, dim, dim)
    expected = matrix @ lifted.swapaxes(-1, -2) if on_columns else lifted @ matrix
    axes = tuple(n + t for t in targets) if on_columns else targets
    got = _apply_on(op, matrix.reshape(*matrix_batch, *(2,) * (2 * n)), axes, 2 * n)
    assert got.shape == (*batch, *(2,) * (2 * n))
    assert np.max(np.abs(got.reshape(expected.shape) - expected)) < 1e-12


def test_evolve_rejects_a_delay_axis_on_a_bare_state():
    channel = relaxation_channels((0.3,), RelaxationParams(25.0, 0.3))
    with pytest.raises(ValueError, match=r"batch axes \(1,\) are not the leading axes of a \(2, 2\) stack"):
        evolve(np.diag([1.0, 0.0]), channel.elements, (0,))


def test_evolve_rejects_a_delay_axis_the_stack_does_not_have():
    # Four inputs with no delay axis, as the tomography inputs come: a
    # one-delay channel would broadcast over them, a two-delay one would not fit.
    stack = np.stack([random_density(np.random.default_rng(i)).matrix for i in range(4)])
    for delays in ((0.3, 0.6), (0.3,)):
        channel = relaxation_channels(delays, RelaxationParams(25.0, 0.3))
        with pytest.raises(ValueError, match=rf"batch axes \({len(delays)},\) .* \(4, 2, 2\) stack"):
            evolve(stack, channel.elements, (0,))
    expected = apply_elements(stack, [a[0] for a in channel.elements])
    assert np.max(np.abs(evolve(stack[None], channel.elements, (0,))[0] - expected)) < 1e-15


def test_evolve_takes_batched_elements_padded_with_zeros():
    # Oracle: evolve each member of the stack with its own, unpadded set.
    rng = np.random.default_rng(43)
    stack = np.stack([[random_density(rng, 3).matrix for _ in range(4)] for _ in range(3)])
    sets = []
    for count in (1, 3, 2):
        g = rng.normal(size=(2 * count, 2)) + 1j * rng.normal(size=(2 * count, 2))
        q, _ = np.linalg.qr(g)
        sets.append([q[2 * i : 2 * i + 2] for i in range(count)])
    batched = np.zeros((3, 3, 2, 2), dtype=complex)
    for i, elements in enumerate(sets):
        batched[: len(elements), i] = elements
    got = evolve(stack, batched, (1,))
    for member, elements in zip(range(3), sets):
        assert np.array_equal(got[member], evolve(stack[member], elements, (1,)))


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_real_expectations_equal_the_trace_of_the_matrix_product_on_pauli_operators(num_qubits):
    # Oracle: tr(rho @ P) by a stacked matrix product, the form the contraction replaced.
    # Exact on one qubit, the package's use: each sum has two terms, so its order cannot
    # matter.  On more qubits the contraction adds the terms in another order.
    rng = np.random.default_rng(25 + num_qubits)
    labels = ["".join(label) for label in itertools.product("IXYZ", repeat=num_qubits)]
    ops = np.stack([pauli_string(label) for label in labels])
    dim = 2**num_qubits
    stack = np.stack([random_density(rng, num_qubits).matrix for _ in range(6)]).reshape(2, 3, dim, dim)
    oracle = np.trace(stack[..., None, :, :] @ ops, axis1=-2, axis2=-1).real
    tolerance = 0.0 if num_qubits == 1 else 1e-15
    assert np.max(np.abs(real_expectations(stack, ops) - oracle)) <= tolerance

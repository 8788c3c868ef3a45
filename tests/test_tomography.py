import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nmrteleport import tomography
from nmrteleport.channels import depolarizing_channel
from nmrteleport.errors import NumericalInvariantError
from nmrteleport.experiment import SweepRecord
from nmrteleport.qstate import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix, validate_density
from nmrteleport.tomography import (
    BLOCH_EXCESS_TOL,
    _PAULI_OPS,
    _canonical_inputs,
    _check_process,
    _coordinates,
    _fidelities,
    _transfer_from_chi,
    _transfer_matrices,
    reconstruct_process,
    state_tomography,
)
from tests.helpers import (
    CANONICAL_COORDINATES,
    apply_elements,
    channel_map,
    dephasing,
    kraus_fe,
    pauli_expectation,
    per_output_reconstruction,
    process_map,
    random_cptp_elements,
)


def kraus_map(elements) -> SweepRecord:
    return process_map(lambda stack: apply_elements(stack, elements))


IDENTITY_MAP = process_map(lambda stack: stack)


def test_state_tomography_anchors():
    assert np.allclose(state_tomography(0, 0, 1).matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(state_tomography(0, 0, 0).matrix, np.eye(2) / 2.0, atol=1e-12)
    assert np.allclose(
        state_tomography(1, 0, 0).matrix, np.full((2, 2), 0.5), atol=1e-12
    )


def test_state_tomography_renormalizes_marginal_excess():
    rho = state_tomography(1.0 + 5e-7, 0.0, 0.0)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12


def test_state_tomography_rejects_unphysical_bloch_vector():
    with pytest.raises(NumericalInvariantError, match="Bloch vector length"):
        state_tomography(1.0, 0.5, 0.0)


def test_state_tomography_rejects_bloch_excess_beyond_its_tolerance():
    # 1e-5 beyond unit length is data, not rounding: the rule renormalizes only up to 1e-6.
    with pytest.raises(NumericalInvariantError, match="Bloch vector length"):
        state_tomography(1.0 + 1e-5, 0.0, 0.0)


def test_identity_process_map():
    pm = IDENTITY_MAP
    assert np.allclose(pm.transfer_matrix, np.eye(4), atol=1e-10)
    assert np.allclose(pm.chi_matrix, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-10)
    assert pm.fe == pytest.approx(1.0, abs=1e-9)


def test_complete_dephasing_process_map():
    pm = channel_map(dephasing(math.inf, 1.0))
    assert np.allclose(pm.transfer_matrix, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-10)
    assert np.allclose(pm.chi_matrix, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-10)
    assert pm.fe == pytest.approx(0.5, abs=1e-9)


def test_total_depolarizing_process_map():
    pm = channel_map(depolarizing_channel(1.0))
    assert np.allclose(pm.transfer_matrix, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-10)
    assert pm.fe == pytest.approx(0.25, abs=1e-9)


def test_fe_from_kraus_anchors():
    assert kraus_fe([IDENTITY_2]) == pytest.approx(1.0, abs=1e-12)
    p = 0.75
    twirl = [
        math.sqrt(1.0 - p) * IDENTITY_2,
        math.sqrt(p / 3.0) * PAULI_X,
        math.sqrt(p / 3.0) * PAULI_Y,
        math.sqrt(p / 3.0) * PAULI_Z,
    ]
    assert kraus_fe(twirl) == pytest.approx(0.25, abs=1e-12)
    projectors = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    assert kraus_fe(projectors) == pytest.approx(0.5, abs=1e-12)


def test_fe_from_kraus_rejects_non_cptp():
    with pytest.raises(ValueError):
        kraus_fe([0.9 * IDENTITY_2])
    with pytest.raises(ValueError):
        kraus_fe([])


def test_pauli_twirl_equals_total_depolarizing():
    p = 0.75
    twirl = [
        math.sqrt(1.0 - p) * IDENTITY_2,
        math.sqrt(p / 3.0) * PAULI_X,
        math.sqrt(p / 3.0) * PAULI_Y,
        math.sqrt(p / 3.0) * PAULI_Z,
    ]
    pm = kraus_map(twirl)
    assert np.allclose(pm.transfer_matrix, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-10)


def test_tomography_agrees_with_kraus_formula_randomized():
    rng = np.random.default_rng(71)
    for _ in range(25):
        elements = random_cptp_elements(rng, int(rng.integers(1, 5)))
        direct = kraus_fe(elements)
        via_tomography = kraus_map(elements).fe
        assert via_tomography == pytest.approx(direct, abs=1e-8)


def test_bare_pauli_processes_have_zero_fidelity():
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        pm = kraus_map([pauli])
        assert pm.fe == pytest.approx(0.0, abs=1e-9)
    pm_x = kraus_map([PAULI_X])
    assert np.allclose(pm_x.transfer_matrix, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-10)


def test_unitary_followed_by_inverse_is_perfect():
    rng = np.random.default_rng(73)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)

    def corrected(stack):
        out = q @ stack @ q.conj().T
        return q.conj().T @ out @ q

    assert process_map(corrected).fe == pytest.approx(1.0, abs=1e-9)


def test_trace_over_four_equals_chi00():
    rng = np.random.default_rng(75)
    for _ in range(10):
        elements = random_cptp_elements(rng, 2)
        pm = kraus_map(elements)
        assert float(np.trace(pm.transfer_matrix)) / 4.0 == pytest.approx(
            float(pm.chi_matrix[0, 0].real), abs=1e-12
        )


def test_input_coordinate_matrix_is_stored_read_only():
    stack = _canonical_inputs()
    fresh = np.array([[pauli_expectation(state, p) for state in stack] for p in "IXYZ"])
    assert np.array_equal(fresh, CANONICAL_COORDINATES)
    # One stack serves every tomography: it is shared and read-only.
    assert _canonical_inputs() is stack
    assert stack.base is None  # nothing writable behind it
    with pytest.raises(ValueError):
        stack[0, 0] = 2.0


def test_reconstruction_inverses_are_exact(monkeypatch):
    m = _transfer_from_chi()
    assert np.array_equal(m @ m.conj().T, 4.0 * np.eye(16))
    assert _transfer_from_chi() is m and not m.flags.writeable
    # The dual of the inputs takes their own coordinates to the identity process,
    # so the identity channel reconstructs exactly.
    assert np.array_equal(_transfer_matrices(CANONICAL_COORDINATES.T), np.eye(4))
    assert np.array_equal(IDENTITY_MAP.transfer_matrix, np.eye(4))
    assert np.array_equal(IDENTITY_MAP.chi_matrix, np.diag([1.0, 0.0, 0.0, 0.0]))
    # Each identity is checked where it is built: a wrong basis breaks both.
    with monkeypatch.context() as patch:
        patch.setattr(tomography, "_PAULI_OPS", 1.5 * tomography._PAULI_OPS)
        for build in (_canonical_inputs, _transfer_from_chi):
            build.cache_clear()
            with pytest.raises(NumericalInvariantError):
                build()
    for build in (_canonical_inputs, _transfer_from_chi):
        build.cache_clear()


def test_canonical_inputs_refuse_a_recipe_that_is_not_their_dual(monkeypatch):
    # The four outputs taken in reverse order: the chain no longer ends at the identity.
    dual = tomography._transfer_matrices
    monkeypatch.setattr(tomography, "_transfer_matrices", lambda w: dual(w[..., ::-1, :]))
    _canonical_inputs.cache_clear()  # nothing is cached by a call that raises
    with pytest.raises(NumericalInvariantError, match="^the transfer recipe is not the exact dual of the input states$"):
        _canonical_inputs()


def test_canonical_inputs_are_the_four_reference_states():
    states = _canonical_inputs()
    assert states.shape == (4, 2, 2)
    assert np.allclose(states[0], np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(states[1], np.diag([0.0, 1.0]), atol=1e-12)
    assert np.allclose(states[2], np.full((2, 2), 0.5), atol=1e-12)
    assert np.allclose(states[3], np.array([[0.5, -0.5j], [0.5j, 0.5]]), atol=1e-12)


def test_process_map_validation():
    good = IDENTITY_MAP
    with pytest.raises(NumericalInvariantError):
        _check_process(np.diag([0.9, 1.0, 1.0, 1.0]), good.chi_matrix)
    bad_chi = np.diag([0.7, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(NumericalInvariantError):
        _check_process(np.eye(4), bad_chi)


def test_evaluate_must_return_single_qubit_density_matrix():
    with pytest.raises(ValueError):
        reconstruct_process(np.stack([np.kron(s, s) for s in _canonical_inputs()]))
    with pytest.raises(NumericalInvariantError):
        process_map(lambda stack: 2.0 * stack)


def random_outputs(rng, shape):
    """Outputs of a random CPTP map per leading index, for the canonical inputs."""
    outputs = np.empty(shape + (4, 2, 2), dtype=complex)
    for index in np.ndindex(*shape):
        elements = random_cptp_elements(rng, int(rng.integers(1, 5)))
        outputs[index] = [apply_elements(s, elements) for s in _canonical_inputs()]
    return outputs


def test_vectorized_reconstruction_matches_per_output_oracle():
    rng = np.random.default_rng(79)
    outputs = random_outputs(rng, (2, 3))
    transfers, chis = reconstruct_process(outputs)
    assert len(transfers) == len(chis) == 6
    for got_transfer, got_chi, member in zip(transfers, chis, outputs.reshape(-1, 4, 2, 2)):
        transfer, chi = per_output_reconstruction([DensityMatrix(1, m) for m in member])
        assert np.max(np.abs(got_transfer - transfer)) <= 1e-15
        assert np.max(np.abs(got_chi - chi)) <= 1e-15
        assert not got_transfer.flags.writeable and not got_chi.flags.writeable


def test_reconstruction_reads_each_output_once(monkeypatch):
    outputs = random_outputs(np.random.default_rng(83), (2, 3))
    calls, real = [], tomography.real_expectations
    monkeypatch.setattr(tomography, "real_expectations", lambda stack, ops: calls.append((stack.shape, ops)) or real(stack, ops))
    reconstruct_process(outputs)
    assert len(calls) == 1
    shape, ops = calls[0]
    assert shape == (2, 3, 4, 2, 2) and np.array_equal(ops, _PAULI_OPS[1:])  # X, Y and Z


def test_batched_reconstruction_checks_every_member():
    rng = np.random.default_rng(80)
    for corrupt in (np.nan, 1.5):
        outputs = random_outputs(rng, (5,))
        outputs[-1, 3, 0, 0] *= corrupt
        with pytest.raises(NumericalInvariantError) as info:
            reconstruct_process(outputs)
        assert info.value.index == (4, 3)
    with pytest.raises(ValueError):
        reconstruct_process(np.zeros((3, 2, 2)))


def test_batched_reconstruction_locates_a_map_that_is_not_completely_positive():
    # The transpose map takes every input to a valid state, but it is not
    # completely positive: its chi has the eigenvalue -1/2.
    rng = np.random.default_rng(81)
    outputs = random_outputs(rng, (5,))
    outputs[2] = [s.T for s in _canonical_inputs()]
    with pytest.raises(NumericalInvariantError) as info:
        reconstruct_process(outputs)
    assert info.value.index == (2,)
    assert str(info.value) == "chi matrix: eigenvalue -5.000e-01 < -1.0e-08"


def test_chi_stack_check_holds_its_slack_and_names_the_map():
    def outputs_with_least_chi_eigenvalue(least):
        # (1-s) * (complete depolarization) + s * (transpose) sends every input to a valid
        # state; its chi has the eigenvalues (1-s)/4 + s/2 (three times) and (1-s)/4 - s/2.
        s = (1.0 - 4.0 * least) / 3.0
        outputs = random_outputs(np.random.default_rng(82), (6,))
        outputs[4] = [(1.0 - s) * IDENTITY_2 / 2.0 + s * state.T for state in _canonical_inputs()]
        return outputs

    _, chi = reconstruct_process(outputs_with_least_chi_eigenvalue(-5e-9))  # within the 1e-8 slack
    assert np.min(np.linalg.eigvalsh(chi[4])) == pytest.approx(-5e-9, abs=1e-15)
    with pytest.raises(NumericalInvariantError) as info:
        reconstruct_process(outputs_with_least_chi_eigenvalue(-2e-8))
    assert str(info.value) == "chi matrix: eigenvalue -2.000e-08 < -1.0e-08"
    assert info.value.index == (4,)


def test_nan_fails_process_map_and_fidelity_checks():
    good = IDENTITY_MAP
    with pytest.raises(NumericalInvariantError):
        _check_process(np.diag([np.nan, 1.0, 1.0, 1.0]), good.chi_matrix)
    with pytest.raises(NumericalInvariantError):
        _fidelities(np.diag([1.0, 1.0, np.nan, 1.0]), good.chi_matrix)
    with pytest.raises(NumericalInvariantError, match="Bloch vector length"):
        state_tomography(np.nan, 0.0, 0.0)


UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(UNIT, UNIT, UNIT, st.floats(0.0, 1.0 + BLOCH_EXCESS_TOL) | st.sampled_from([1.0, 1.0 + BLOCH_EXCESS_TOL])),
        min_size=1,
        max_size=8,
    )
)
def test_bloch_matrices_within_the_bloch_rule_are_density_matrices(vectors):
    # Why a reconstruction checks no state beyond its outputs: coordinates (1, r) that
    # pass the Bloch rule are those of a density matrix.
    blochs = []
    for x, y, z, length in vectors:
        norm = math.sqrt(x * x + y * y + z * z)
        blochs.append([length * c / norm for c in (x, y, z)] if norm > 0.0 else [0.0, 0.0, 0.0])
    blochs = np.array(blochs)
    x, y, z = blochs.T
    assume(np.max(np.sqrt(x * x + y * y + z * z)) <= 1.0 + BLOCH_EXCESS_TOL)  # not rounded past the rule
    i, x, y, z = _coordinates(blochs).T[..., None, None]
    validate_density((i * IDENTITY_2 + x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / 2.0)

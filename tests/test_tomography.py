import math

import numpy as np
import pytest

from nmrteleport.channels import dephasing_channel, depolarizing_channel
from nmrteleport.errors import NumericalInvariantError, UnphysicalBlochError
from nmrteleport.qstate import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix
from nmrteleport.tomography import (
    ProcessMap,
    TomographyInputSet,
    canonical_input_states,
    entanglement_fidelity,
    reconstruct_process,
    state_tomography,
)
from tests.helpers import (
    apply_elements,
    channel_map,
    kraus_fe,
    pauli_expectation,
    per_output_reconstruction,
    process_map,
    random_cptp_elements,
)


def kraus_map(elements) -> ProcessMap:
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
    with pytest.raises(UnphysicalBlochError):
        state_tomography(1.0, 0.5, 0.0)


def test_identity_process_map():
    pm = IDENTITY_MAP
    assert np.allclose(pm.transfer_matrix, np.eye(4), atol=1e-10)
    assert np.allclose(pm.chi_matrix, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-10)
    assert entanglement_fidelity(pm) == pytest.approx(1.0, abs=1e-9)


def test_complete_dephasing_process_map():
    pm = channel_map(dephasing_channel(math.inf, 1.0))
    assert np.allclose(pm.transfer_matrix, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-10)
    assert np.allclose(pm.chi_matrix, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-10)
    assert entanglement_fidelity(pm) == pytest.approx(0.5, abs=1e-9)


def test_total_depolarizing_process_map():
    pm = channel_map(depolarizing_channel(1.0))
    assert np.allclose(pm.transfer_matrix, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-10)
    assert entanglement_fidelity(pm) == pytest.approx(0.25, abs=1e-9)


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
        via_tomography = entanglement_fidelity(kraus_map(elements))
        assert via_tomography == pytest.approx(direct, abs=1e-8)


def test_bare_pauli_processes_have_zero_fidelity():
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        pm = kraus_map([pauli])
        assert entanglement_fidelity(pm) == pytest.approx(0.0, abs=1e-9)
    pm_x = kraus_map([PAULI_X])
    assert np.allclose(pm_x.transfer_matrix, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-10)


def test_unitary_followed_by_inverse_is_perfect():
    rng = np.random.default_rng(73)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(g)

    def corrected(stack):
        out = q @ stack @ q.conj().T
        return q.conj().T @ out @ q

    assert entanglement_fidelity(process_map(corrected)) == pytest.approx(1.0, abs=1e-9)


def test_alternate_input_set_reconstructs_same_transfer_matrix():
    rng = np.random.default_rng(74)
    elements = random_cptp_elements(rng, 3)
    canonical = kraus_map(elements)
    alternate_states = (
        state_tomography(1.0, 0.0, 0.0),
        state_tomography(-1.0, 0.0, 0.0),
        state_tomography(0.0, 0.0, 1.0),
        state_tomography(0.0, 1.0, 0.0),
    )
    outputs = apply_elements(np.stack([s.matrix for s in alternate_states]), elements)
    (alternate,) = reconstruct_process(outputs, TomographyInputSet(alternate_states))
    assert np.max(np.abs(canonical.transfer_matrix - alternate.transfer_matrix)) < 1e-8


def test_trace_over_four_equals_chi00():
    rng = np.random.default_rng(75)
    for _ in range(10):
        elements = random_cptp_elements(rng, 2)
        pm = kraus_map(elements)
        assert float(np.trace(pm.transfer_matrix)) / 4.0 == pytest.approx(
            float(pm.chi_matrix[0, 0].real), abs=1e-12
        )


def test_input_set_requires_linear_independence():
    zero = state_tomography(0.0, 0.0, 1.0)
    plus = state_tomography(1.0, 0.0, 0.0)
    plus_i = state_tomography(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        TomographyInputSet((zero, zero, plus, plus_i))
    with pytest.raises(ValueError):
        TomographyInputSet((zero, plus))


def test_input_coordinate_matrix_is_stored_read_only():
    inputs = TomographyInputSet.canonical()
    v = inputs.coordinate_matrix()
    fresh = np.array([[pauli_expectation(s.matrix, p) for s in inputs.states] for p in "IXYZ"])
    assert np.array_equal(v, fresh)
    assert inputs.coordinate_matrix() is v
    # One set serves every tomography: it is immutable, and so are its arrays.
    assert TomographyInputSet.canonical() is inputs
    with pytest.raises(AttributeError):
        inputs.states = ()
    for array in [v] + [s.matrix for s in inputs.states]:
        with pytest.raises(ValueError):
            array[0, 0] = 2.0


def test_canonical_inputs_are_the_four_reference_states():
    states = canonical_input_states()
    assert np.allclose(states[0].matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(states[1].matrix, np.diag([0.0, 1.0]), atol=1e-12)
    assert np.allclose(states[2].matrix, np.full((2, 2), 0.5), atol=1e-12)
    assert np.allclose(states[3].matrix, np.array([[0.5, -0.5j], [0.5j, 0.5]]), atol=1e-12)


def test_process_map_validation():
    good = IDENTITY_MAP
    with pytest.raises(NumericalInvariantError):
        ProcessMap(np.diag([0.9, 1.0, 1.0, 1.0]), good.chi_matrix)
    bad_chi = np.diag([0.7, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(NumericalInvariantError):
        ProcessMap(np.eye(4), bad_chi)


def test_evaluate_must_return_single_qubit_density_matrix():
    inputs = TomographyInputSet.canonical()
    with pytest.raises(ValueError):
        reconstruct_process(np.stack([np.kron(s.matrix, s.matrix) for s in inputs.states]), inputs)
    with pytest.raises(NumericalInvariantError):
        process_map(lambda stack: 2.0 * stack)


def random_outputs(rng, shape):
    """Outputs of a random CPTP map per leading index, for the canonical inputs."""
    inputs = TomographyInputSet.canonical()
    outputs = np.empty(shape + (4, 2, 2), dtype=complex)
    for index in np.ndindex(*shape):
        elements = random_cptp_elements(rng, int(rng.integers(1, 5)))
        outputs[index] = [apply_elements(s.matrix, elements) for s in inputs.states]
    return outputs


def test_vectorized_reconstruction_matches_per_output_oracle():
    rng = np.random.default_rng(79)
    inputs = TomographyInputSet.canonical()
    outputs = random_outputs(rng, (2, 3))
    maps = reconstruct_process(outputs, inputs)
    assert len(maps) == 6
    for pm, member in zip(maps, outputs.reshape(-1, 4, 2, 2)):
        transfer, chi = per_output_reconstruction([DensityMatrix(1, m) for m in member], inputs)
        assert np.max(np.abs(pm.transfer_matrix - transfer)) <= 1e-15
        assert np.max(np.abs(pm.chi_matrix - chi)) <= 1e-15
        assert not pm.transfer_matrix.flags.writeable and not pm.chi_matrix.flags.writeable


def test_batched_reconstruction_checks_every_member():
    rng = np.random.default_rng(80)
    inputs = TomographyInputSet.canonical()
    for corrupt in (np.nan, 1.5):
        outputs = random_outputs(rng, (5,))
        outputs[-1, 3, 0, 0] *= corrupt
        with pytest.raises(NumericalInvariantError) as info:
            reconstruct_process(outputs, inputs)
        assert info.value.index == (4, 3)
    with pytest.raises(ValueError):
        reconstruct_process(np.zeros((3, 2, 2)), inputs)


def test_batched_reconstruction_locates_a_map_that_is_not_completely_positive():
    # The transpose map takes every input to a valid state, but it is not
    # completely positive: its chi has the eigenvalue -1/2.
    rng = np.random.default_rng(81)
    inputs = TomographyInputSet.canonical()
    outputs = random_outputs(rng, (5,))
    outputs[2] = [s.matrix.T for s in inputs.states]
    with pytest.raises(NumericalInvariantError) as info:
        reconstruct_process(outputs, inputs)
    assert info.value.index == (2,)
    assert str(info.value) == "chi matrix: eigenvalue -5.000e-01 < -1.0e-08"


def test_chi_stack_check_holds_its_slack_and_names_the_map():
    inputs = TomographyInputSet.canonical()

    def outputs_with_least_chi_eigenvalue(least):
        # (1-s) * (complete depolarization) + s * (transpose) sends every input to a valid
        # state; its chi has the eigenvalues (1-s)/4 + s/2 (three times) and (1-s)/4 - s/2.
        s = (1.0 - 4.0 * least) / 3.0
        outputs = random_outputs(np.random.default_rng(82), (6,))
        outputs[4] = [(1.0 - s) * IDENTITY_2 / 2.0 + s * state.matrix.T for state in inputs.states]
        return outputs

    maps = reconstruct_process(outputs_with_least_chi_eigenvalue(-5e-9), inputs)  # within the 1e-8 slack
    assert np.min(np.linalg.eigvalsh(maps[4].chi_matrix)) == pytest.approx(-5e-9, abs=1e-15)
    with pytest.raises(NumericalInvariantError) as info:
        reconstruct_process(outputs_with_least_chi_eigenvalue(-2e-8), inputs)
    assert str(info.value) == "chi matrix: eigenvalue -2.000e-08 < -1.0e-08"
    assert info.value.index == (4,)


def test_nan_fails_process_map_and_fidelity_checks():
    good = IDENTITY_MAP
    with pytest.raises(NumericalInvariantError):
        ProcessMap(np.diag([np.nan, 1.0, 1.0, 1.0]), good.chi_matrix)
    with pytest.raises(NumericalInvariantError):
        entanglement_fidelity(ProcessMap(np.diag([1.0, 1.0, np.nan, 1.0]), good.chi_matrix))
    with pytest.raises(UnphysicalBlochError):
        state_tomography(np.nan, 0.0, 0.0)

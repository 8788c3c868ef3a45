"""The shared oracles of ``tests/helpers.py``, checked on their own."""

import numpy as np
import pytest

from nmrteleport.qstate import CNOT, IDENTITY_2, PAULI_X
from tests.helpers import lift_operator


def test_lift_operator_positions():
    assert np.allclose(
        lift_operator(PAULI_X, (1,), 3),
        np.kron(np.kron(IDENTITY_2, PAULI_X), IDENTITY_2),
    )
    assert np.allclose(lift_operator(CNOT, (0, 1), 2), CNOT)
    # Reversed targets put the control on the second register qubit.
    reversed_cnot = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    assert np.allclose(lift_operator(CNOT, (1, 0), 2), reversed_cnot)


def test_lift_operator_rejects_bad_targets():
    with pytest.raises(ValueError):
        lift_operator(PAULI_X, (3,), 2)
    with pytest.raises(ValueError):
        lift_operator(CNOT, (0, 0), 2)

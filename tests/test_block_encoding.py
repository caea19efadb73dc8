import numpy as np
import pytest

from fidest import (
    BlockEncodingSpec,
    DensityOperator,
    EncodedOperator,
    be_error,
    density_with_block,
    layout,
    project_zero,
    purification_to_unitary_be,
    purify,
    random_density,
    swap_registers,
    tensor,
    unitarity_defect,
)
from fidest.errors import RegisterTooLargeError


def test_spec_validation():
    with pytest.raises(ValueError):
        BlockEncodingSpec(alpha=0.0, ancilla_qubits=1, epsilon=0.0)
    with pytest.raises(ValueError):
        BlockEncodingSpec(alpha=1.0, ancilla_qubits=1, epsilon=-0.1)


def test_be_error_no_ancillas_is_exact():
    sigma = random_density(2, 3, seed=1).matrix
    assert be_error(sigma, layout(("sys", 2)), sigma, 1.0) <= 1e-15


def test_be_error_identity_block():
    assert be_error(np.eye(4), layout(("sys", 1), ("anc", 1)), np.eye(2), 1.0) <= 1e-15


def test_swap_basis_map_and_involution():
    s = swap_registers(1)
    v01 = np.zeros(4)
    v01[1] = 1
    np.testing.assert_allclose(s @ v01, [0, 0, 1, 0])
    np.testing.assert_allclose(swap_registers(2) @ swap_registers(2), np.eye(16), atol=0)


def test_swap_explicit_matrix():
    # permutation sending |00>,|01>,|10>,|11> to |00>,|10>,|01>,|11>
    expected = np.zeros((4, 4))
    for j in range(2):
        for k in range(2):
            expected[k * 2 + j, j * 2 + k] = 1
    np.testing.assert_allclose(swap_registers(1), expected, atol=0)


def test_swap_budget():
    with pytest.raises(RegisterTooLargeError):
        swap_registers(8, qubit_budget=14)


@pytest.mark.parametrize("qubits,rank", [(1, 1), (1, 2), (2, 2), (2, 4)])
def test_purified_state_to_unitary_is_exact(qubits, rank):
    rho = random_density(qubits, rank, seed=rank * 7 + qubits)
    anc = max(1, int(np.ceil(np.log2(max(rho.rank, 2)))))
    enc = purification_to_unitary_be(purify(rho, anc))
    assert enc.measured_error <= 1e-9
    assert unitarity_defect(enc.carrier) <= 1e-10
    assert enc.spec.alpha == 1.0 and enc.spec.epsilon == 0.0


def test_pure_state_encoding_block_is_projector():
    enc = purification_to_unitary_be(purify(DensityOperator(np.diag([1.0, 0.0])), 1))
    np.testing.assert_allclose(enc.block(), np.diag([1.0, 0.0]), atol=1e-12)


def test_mixed_state_encoding_block():
    enc = purification_to_unitary_be(purify(DensityOperator(np.eye(2) / 2), 1))
    np.testing.assert_allclose(enc.block(), np.eye(2) / 2, atol=1e-10)


def test_encoded_operator_invariant_is_enforced():
    with pytest.raises(ValueError):
        EncodedOperator(
            carrier=np.eye(4),
            layout=layout(("sys", 1), ("anc", 1)),
            spec=BlockEncodingSpec(alpha=1.0, ancilla_qubits=1, epsilon=0.0),
            target=np.diag([0.5, 0.5]),
            kind="unitary",
        )


def test_block_extraction_against_kron_structure():
    # carrier = A (x) |0><0| + B (x) |1><1| with trailing ancilla: block is A
    a = random_density(1, 2, seed=3).matrix
    b = random_density(1, 1, seed=4).matrix
    carrier = tensor(a, np.diag([1.0, 0.0])) + tensor(b, np.diag([0.0, 1.0]))
    # reorder: ancilla must trail, so swap factors: index (sys, anc)
    carrier = tensor(np.eye(1), carrier)  # no-op, keeps shapes obvious
    lay = layout(("sys", 1), ("anc", 1))
    got = project_zero(carrier, lay, ["anc"])
    np.testing.assert_allclose(got, a, atol=0)


def test_density_with_block_round_trip():
    a = 0.4 * random_density(2, 3, seed=5).matrix
    rho = density_with_block(a, 1)
    lay = layout(("sys", 2), ("anc", 1))
    np.testing.assert_allclose(project_zero(rho.matrix, lay, ["anc"]), a, atol=1e-12)
    assert abs(np.trace(rho.matrix).real - 1) < 1e-12


def test_density_with_block_rejects_overweight():
    with pytest.raises(ValueError):
        density_with_block(np.eye(2), 1)

import numpy as np
import pytest

from fidest import (
    DensityOperator,
    Purification,
    operator_norm,
    purification_to_unitary_be,
    purify,
    random_density,
    unitarity_defect,
)
from fidest import block_encoding
from fidest.linalg import reflect
from register_oracles import density_with_block, layout, project_zero, zero_block_indices


@pytest.mark.parametrize("qubits,rank", [(1, 1), (1, 2), (2, 2), (2, 4)])
def test_purified_state_to_unitary_is_exact(qubits, rank):
    rho = random_density(qubits, rank, seed=rank * 7 + qubits)
    anc = max(1, int(np.ceil(np.log2(max(rho.rank, 2)))))
    columns, block = purification_to_unitary_be(purify(rho, anc))
    assert columns.shape == (1 << (2 * qubits + anc), 1 << qubits)
    # the block is the rows of the columns with mirror and enc_garbage zero
    lay = layout(("system", qubits), ("mirror", qubits), ("enc_garbage", anc))
    rows = zero_block_indices(lay, ["mirror", "enc_garbage"])
    np.testing.assert_array_equal(block, columns[rows])
    assert operator_norm(block - rho.matrix) <= 1e-9
    assert unitarity_defect(columns) <= 1e-10


def test_unitary_encoding_of_a_state_with_complex_first_entry():
    # purify's states have a real psi_0; here the reflection's phase matters
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    p = Purification((psi / np.linalg.norm(psi)).reshape(4, 2))
    columns, block = purification_to_unitary_be(p)
    assert operator_norm(block - p.traced_matrix()) <= 1e-12
    assert unitarity_defect(columns) <= 1e-12
    np.testing.assert_allclose(block, p.traced_matrix(), atol=1e-12)


def _dense_w(psi: np.ndarray) -> np.ndarray:
    """W = (I (x) R_psi^dagger) SWAP(fresh, main) (I (x) R_psi) as a matrix on
    [fresh, main, garbage], from R_psi's columns and a permutation matrix."""
    dm, db = psi.shape
    r = reflect(psi, np.eye(dm * db), axis=0)
    f, j, g = np.indices((dm, dm, db)).reshape(3, -1)
    swap = np.zeros((dm * dm * db,) * 2)
    swap[(j * dm + f) * db + g, (f * dm + j) * db + g] = 1.0
    return np.kron(np.eye(dm), r.conj().T) @ swap @ np.kron(np.eye(dm), r)


@pytest.mark.parametrize("main,garbage", [(1, 0), (1, 1), (2, 0), (2, 2), (3, 1), (3, 2)])
@pytest.mark.parametrize("psi0", ["complex", "zero"])
def test_w_columns_match_the_dense_two_query_circuit(main, garbage, psi0):
    rng = np.random.default_rng(10 * main + garbage)
    dm, db = 1 << main, 1 << garbage
    psi = rng.standard_normal((dm, db)) + 1j * rng.standard_normal((dm, db))
    if psi0 == "zero":  # R_psi's phase is then 1
        psi[0, 0] = 0.0
    psi /= np.linalg.norm(psi)
    columns, block = purification_to_unitary_be(Purification(psi))
    expected = _dense_w(psi)[:, :: dm * db]  # the inputs |j, 0, 0>
    assert np.max(np.abs(columns - expected)) <= 1e-13
    assert np.max(np.abs(block - psi @ psi.conj().T)) <= 1e-13


def test_w_columns_orthonormality_check_still_raises(monkeypatch):
    # a reflection with the wrong c gives non-orthonormal columns
    real = block_encoding.reflection

    def wrong_c(psi):
        phase, v, c = real(psi)
        return phase, v, 0.9 * c

    monkeypatch.setattr(block_encoding, "reflection", wrong_c)
    with pytest.raises(ValueError, match="W columns"):
        purification_to_unitary_be(purify(random_density(2, 2, seed=1), 1))


def test_pure_state_encoding_block_is_projector():
    _, block = purification_to_unitary_be(purify(DensityOperator(np.diag([1.0, 0.0])), 1))
    np.testing.assert_allclose(block, np.diag([1.0, 0.0]), atol=1e-12)


def test_mixed_state_encoding_block():
    _, block = purification_to_unitary_be(purify(DensityOperator(np.eye(2) / 2), 1))
    np.testing.assert_allclose(block, np.eye(2) / 2, atol=1e-10)


def test_encoded_operator_invariant_is_enforced(monkeypatch):
    # W's block must equal the prepared density: against a wrong target
    # (here diag(1/2, 1/2) for the pure state |0>) the construction raises
    p = purify(DensityOperator(np.diag([1.0, 0.0])), 1)
    monkeypatch.setattr(Purification, "traced_matrix", lambda self: np.diag([0.5, 0.5]))
    with pytest.raises(ValueError, match="W block"):
        purification_to_unitary_be(p)


def test_block_extraction_against_kron_structure():
    # carrier = A (x) |0><0| + B (x) |1><1| with trailing ancilla: block is A
    a = random_density(1, 2, seed=3).matrix
    b = random_density(1, 1, seed=4).matrix
    carrier = np.kron(a, np.diag([1.0, 0.0])) + np.kron(b, np.diag([0.0, 1.0]))
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidest import (
    eig_hermitian,
    expm_i,
    matrix_func,
    operator_norm,
    sqrtm_psd,
    tensor,
    trace_norm,
    unitarity_defect,
)
from fidest.errors import NegativeEigenvalueError, NotHermitianError
from fidest.linalg import reflect

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def test_tensor_identity():
    np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_diagonal_product_rule():
    np.testing.assert_allclose(
        tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])), np.diag([3.0, 4.0, 6.0, 8.0])
    )


def test_tensor_bit_flip_on_first_segment():
    v00 = np.zeros(4)
    v00[0] = 1
    np.testing.assert_allclose(tensor(X, np.eye(2)) @ v00, [0, 0, 1, 0])


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_tensor_associativity(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
    np.testing.assert_allclose(tensor(tensor(a, b), c), tensor(a, tensor(b, c)), atol=1e-12)


def test_eig_already_diagonal():
    e = eig_hermitian(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(e.values, [2.0, 1.0])
    np.testing.assert_allclose(np.abs(e.vectors), np.eye(2))


def test_eig_pauli_x():
    e = eig_hermitian(X)
    np.testing.assert_allclose(e.values, [1.0, -1.0], atol=1e-12)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(abs(np.vdot(e.vectors[:, 0], plus)) - 1) < 1e-12


@pytest.mark.parametrize("dim", [2, 8, 64, 256])
def test_eig_reconstruction(dim):
    m = random_hermitian(dim, seed=dim)
    e = eig_hermitian(m)
    assert operator_norm(e.reconstruct() - m) <= 1e-10
    assert operator_norm(e.vectors.conj().T @ e.vectors - np.eye(dim)) <= 1e-10
    assert np.all(np.diff(e.values) <= 0)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_sqrt_identity_and_diagonal():
    np.testing.assert_allclose(sqrtm_psd(np.eye(3)), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrt_of_sandwich_trace():
    # rho = |0><0|, sigma = I/2: sqrt(sigma) rho sqrt(sigma) = rho/2, trace of
    # its square root is 1/sqrt(2).
    rho = np.diag([1.0, 0.0])
    s = sqrtm_psd(np.eye(2) / 2)
    inner = s @ rho @ s
    assert abs(np.trace(sqrtm_psd(inner)).real - 1 / np.sqrt(2)) < 1e-12


def test_matrix_func_identity_function():
    m = random_hermitian(8, seed=3)
    assert operator_norm(matrix_func(m, lambda w: w) - m) <= 1e-10


def test_matrix_func_clamps_and_rejects():
    tiny = np.diag([1.0, -1e-10])
    np.testing.assert_allclose(sqrtm_psd(tiny), np.diag([1.0, 0.0]), atol=1e-12)
    with pytest.raises(NegativeEigenvalueError):
        sqrtm_psd(np.diag([1.0, -1e-3]))


def test_matrix_func_on_a_computed_eigendecomposition():
    m = random_hermitian(8, seed=5)
    psd = m @ m
    assert sqrtm_psd(eig_hermitian(psd)).tobytes() == sqrtm_psd(psd).tobytes()
    tiny = np.diag([1.0, -1e-10])
    assert sqrtm_psd(eig_hermitian(tiny)).tobytes() == sqrtm_psd(tiny).tobytes()
    with pytest.raises(NegativeEigenvalueError):
        sqrtm_psd(eig_hermitian(np.diag([1.0, -1e-3])))


def test_expm_zero_time():
    m = random_hermitian(4, seed=9)
    np.testing.assert_allclose(expm_i(m, 0.0), np.eye(4), atol=1e-12)


def test_expm_diagonal_closed_form():
    np.testing.assert_allclose(
        expm_i(np.diag([1.0, -1.0]), np.pi), -np.eye(2), atol=1e-12
    )


@pytest.mark.parametrize("s", [0.1, 1.7, -2.3])
def test_expm_inverse_pairing_and_unitarity(s):
    m = random_hermitian(8, seed=17)
    u = expm_i(m, s)
    assert unitarity_defect(u) <= 1e-10
    assert operator_norm(u @ expm_i(m, -s) - np.eye(8)) <= 1e-10


def test_operator_and_trace_norms():
    assert abs(operator_norm(np.eye(4)) - 1.0) < 1e-12
    assert abs(trace_norm(np.diag([1.0, -2.0])) - 3.0) < 1e-12


def test_operator_norm_is_max_abs_eigenvalue():
    m = random_hermitian(16, seed=21)
    e = eig_hermitian(m)
    assert abs(operator_norm(m) - np.max(np.abs(e.values))) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_complete_unitary_pins_first_column(seed):
    # the reflection R_psi completes psi to a unitary whose first column is psi
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    u = reflect(psi, np.eye(8), axis=0)
    assert unitarity_defect(u) <= 1e-12
    np.testing.assert_allclose(u[:, 0], psi, atol=1e-12)
    adjoint = reflect(psi, np.eye(8), axis=0, adjoint=True)
    np.testing.assert_allclose(adjoint, u.conj().T, atol=1e-14)
    # a batch along another axis is the same gate applied to each vector
    x = rng.standard_normal((3, 8, 2)) + 1j * rng.standard_normal((3, 8, 2))
    np.testing.assert_allclose(reflect(psi, x, axis=1), np.einsum("ij,ajb->aib", u, x), atol=1e-12)


def test_unitarity_defect_of_an_isometry():
    q, _ = np.linalg.qr(random_hermitian(8, seed=4)[:, :3])
    assert unitarity_defect(q) <= 1e-12
    skewed = q.copy()
    skewed[:, 2] *= 1.5
    assert abs(unitarity_defect(skewed) - (1.5**2 - 1)) <= 1e-12

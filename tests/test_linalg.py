import numpy as np
import pytest

from circuit_oracles import expm_i
from fidest import (
    eig_hermitian,
    operator_norm,
    sqrtm_psd,
    trace_norm,
    unitarity_defect,
)
from fidest.errors import NegativeEigenvalueError, NotHermitianError
from fidest.linalg import random_near_identity, reflect

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


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
    assert operator_norm((e.vectors * e.values) @ e.vectors.conj().T - m) <= 1e-10
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


def test_norms_are_numpys_bit_for_bit():
    """operator_norm and trace_norm read the singular values directly: the
    same floats np.linalg.norm's 2 and nuclear norms give."""
    rng = np.random.default_rng(5)
    for shape in [(1, 1), (2, 2), (3, 5), (8, 8), (16, 4)]:
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert operator_norm(m) == float(np.linalg.norm(m, 2))
        assert trace_norm(m) == float(np.linalg.norm(m, "nuc"))
    assert operator_norm(np.zeros((0, 3))) == trace_norm(np.zeros((0, 3))) == 0.0


@pytest.mark.parametrize("dim, distance", [(2, 0.3), (8, 0.05), (16, 1.0)])
def test_random_near_identity_is_the_exponential_of_its_draw(dim, distance):
    """exp(i distance h) for the normalised Gaussian Hermitian h the helper
    draws: unitary, and within operator distance ``distance`` of I."""
    u = random_near_identity(dim, distance, np.random.default_rng(dim))
    rng = np.random.default_rng(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    np.testing.assert_allclose(u, expm_i(h / np.linalg.norm(h, 2), distance), atol=1e-12)
    assert unitarity_defect(u) <= 1e-12
    assert operator_norm(u - np.eye(dim)) <= distance + 1e-12

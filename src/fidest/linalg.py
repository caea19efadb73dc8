"""Complex linear algebra: Hermitian eigendecomposition and the one Hermitian
check (``eig_hermitian``), the PSD square root, the norms used everywhere else,
and the reflection that loads a state as a gate applied to vectors.

All operators are plain ``numpy.ndarray`` matrices in row-major order; square
operators on qubit registers have power-of-two dimension.  Every function is
pure and never mutates its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NegativeEigenvalueError, NotHermitianError

HERMITIAN_TOL = 1e-9


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array without copying when possible."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral decomposition with eigenvalues sorted descending.

    Column j of ``vectors`` pairs with ``values[j]``; reconstruction
    V diag(values) V^dagger matches ``matrix``, the matrix decomposed, to 1e-10.
    """

    values: np.ndarray
    vectors: np.ndarray
    matrix: np.ndarray


def eig_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> HermitianEigen:
    """Eigendecompose ``matrix`` = (m + m^dagger)/2, raising NotHermitianError
    unless m is square with max |m - m^dagger| <= tol: the one Hermitian check."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"matrix is not square: {m.shape}")
    defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if defect > tol:
        raise NotHermitianError(f"max |m - m^dagger| = {defect:.3e} exceeds {tol:.1e}")
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    for a in (w, v, h):
        a.flags.writeable = False
    return HermitianEigen(values=w, vectors=v, matrix=h)


def sqrtm_psd(m: np.ndarray | HermitianEigen, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix: V diag(sqrt(lambda)) V^dagger.

    ``m`` is a matrix or its ``HermitianEigen``.  Eigenvalues in [-tol, 0)
    count as 0; below -tol raise NegativeEigenvalueError.
    """
    eig = m if isinstance(m, HermitianEigen) else eig_hermitian(m, tol)
    w = eig.values
    if np.min(w) < -tol:
        raise NegativeEigenvalueError(f"eigenvalue {np.min(w):.3e} below -{tol:.1e}")
    return (eig.vectors * np.sqrt(np.maximum(w, 0.0))) @ eig.vectors.conj().T


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    m = as_complex_matrix(m)
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = as_complex_matrix(m)
    return float(np.linalg.svd(m, compute_uv=False).sum()) if m.size else 0.0


def reflection(psi: np.ndarray) -> tuple[complex, np.ndarray, float]:
    """R_psi = -phase (I - c v v^dagger) as (phase, v, c): a Householder
    reflection times the phase of psi_0 with R_psi |0> = psi for a unit vector
    psi (flattened), so a unitary whose first column is psi.  v = |0> +
    conj(phase) psi and c = 2 / v^dagger v; v_0 >= 1 keeps it well conditioned.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    phase = psi[0] / abs(psi[0]) if psi[0] != 0 else 1.0
    v = psi / phase
    v[0] += 1.0
    return phase, v, 2.0 / np.vdot(v, v).real


def reflect(psi: np.ndarray, x: np.ndarray, axis: int = -1, adjoint: bool = False) -> np.ndarray:
    """Apply R_psi of ``reflection``, or its adjoint, along ``axis`` of x: O(d) per vector."""
    phase, v, c = reflection(psi)
    scale = -(np.conj(phase) if adjoint else phase)
    xm = np.moveaxis(np.asarray(x, dtype=complex), axis, -1)
    out = scale * (xm - c * (xm @ v.conj())[..., None] * v)
    return np.moveaxis(out, -1, axis)


def random_near_identity(dim: int, distance: float, rng: np.random.Generator) -> np.ndarray:
    """exp(i distance h) for a Gaussian Hermitian h scaled to ||h|| = 1, by
    eigh(h): a random unitary within operator distance ``distance`` of I."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    h /= np.linalg.norm(h, 2)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * distance * w)) @ v.conj().T


def unitarity_defect(u: np.ndarray) -> float:
    """Operator-norm distance of U^dagger U from the identity; for a d x k
    matrix, how far its k columns are from orthonormal."""
    u = as_complex_matrix(u)
    return operator_norm(u.conj().T @ u - np.eye(u.shape[1]))

"""Complex linear algebra: tensor products, Hermitian eigendecomposition,
matrix functions, exact unitary exponentials, the norms used everywhere else,
and the reflection that loads a state as a gate applied to vectors.

All operators are plain ``numpy.ndarray`` matrices in row-major order; square
operators on qubit registers have power-of-two dimension.  Every function is
pure and never mutates its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NegativeEigenvalueError, NotHermitianError

HERMITIAN_TOL = 1e-9
EIG_RECONSTRUCTION_TOL = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex128 array without copying when possible."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation |m - m^dagger|."""
    m = as_complex_matrix(m)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"matrix is not square: {m.shape}")
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NotHermitianError(f"max |m - m^dagger| = {defect:.3e} exceeds {tol:.1e}")
    return m


def tensor(a: np.ndarray, b: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor owns the most significant qubits."""
    out = np.kron(as_complex_matrix(a), as_complex_matrix(b))
    for m in more:
        out = np.kron(out, as_complex_matrix(m))
    return out


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral decomposition with eigenvalues sorted descending.

    Column j of ``vectors`` pairs with ``values[j]``; reconstruction
    V diag(values) V^dagger matches the input to EIG_RECONSTRUCTION_TOL.
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def eig_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> HermitianEigen:
    """Eigendecompose a Hermitian matrix, raising NotHermitianError otherwise."""
    m = require_hermitian(m, tol)
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    w.flags.writeable = False
    v.flags.writeable = False
    return HermitianEigen(values=w, vectors=v)


def matrix_func(
    m: np.ndarray | HermitianEigen,
    f: Callable[[np.ndarray], np.ndarray],
    clamp_negative: bool = False,
    tol: float = HERMITIAN_TOL,
) -> np.ndarray:
    """Apply a real function to the spectrum: V diag(f(lambda)) V^dagger.

    ``m`` is a matrix or its ``HermitianEigen``.  With ``clamp_negative`` set,
    eigenvalues in [-tol, 0) count as 0; below -tol raise NegativeEigenvalueError.
    """
    eig = m if isinstance(m, HermitianEigen) else eig_hermitian(m, tol)
    w = eig.values
    if clamp_negative and np.min(w) < -tol:
        raise NegativeEigenvalueError(f"eigenvalue {np.min(w):.3e} below -{tol:.1e}")
    fw = np.asarray(f(np.maximum(w, 0.0) if clamp_negative else w), dtype=float)
    return (eig.vectors * fw) @ eig.vectors.conj().T


def sqrtm_psd(m: np.ndarray | HermitianEigen, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix (negatives clamped)."""
    return matrix_func(m, np.sqrt, clamp_negative=True, tol=tol)


def expm_i(m: np.ndarray, s: float = 1.0, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Exact unitary e^{i s m} for Hermitian m, via eigendecomposition."""
    eig = eig_hermitian(m, tol)
    phases = np.exp(1j * s * eig.values)
    return (eig.vectors * phases) @ eig.vectors.conj().T


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    m = as_complex_matrix(m)
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = as_complex_matrix(m)
    return float(np.linalg.norm(m, "nuc")) if m.size else 0.0


def reflect(psi: np.ndarray, x: np.ndarray, axis: int = -1, adjoint: bool = False) -> np.ndarray:
    """Apply R_psi (or its adjoint) along ``axis`` of ``x``, O(d) per vector.

    R_psi is a Householder reflection times the phase of psi_0, chosen so that
    R_psi |0> = psi for a unit vector psi: a unitary whose first column is
    psi.  With psi' = conj(phase) psi and v = |0> + psi', R_psi =
    -phase (I - 2 v v^dagger / v^dagger v); v_0 >= 1 keeps it well conditioned.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    phase = psi[0] / abs(psi[0]) if psi[0] != 0 else 1.0
    v = psi / phase
    v[0] += 1.0
    scale = -(np.conj(phase) if adjoint else phase)
    xm = np.moveaxis(np.asarray(x, dtype=complex), axis, -1)
    out = scale * (xm - (2.0 / np.vdot(v, v).real) * (xm @ v.conj())[..., None] * v)
    return np.moveaxis(out, -1, axis)


def unitarity_defect(u: np.ndarray) -> float:
    """Operator-norm distance of U^dagger U from the identity; for a d x k
    matrix, how far its k columns are from orthonormal."""
    u = as_complex_matrix(u)
    return operator_norm(u.conj().T @ u - np.eye(u.shape[1]))

"""Gates of the dense extraction circuit, as 2^q x 2^q matrices: reference
oracles for the tests.

The estimate path never forms a gate matrix; it applies each gate to state
arrays.  The tests multiply these gates out (``dense_circuit`` in
``test_sqrt_extractor.py``) and check the path's states against the product.
"""

from __future__ import annotations

import numpy as np

from fidest.errors import IndexOutOfRangeError
from fidest.linalg import HERMITIAN_TOL, eig_hermitian
from fidest.sqrt_extractor import SqrtParams, grid_eigenvalue, h_vector


def expm_i(m: np.ndarray, s: float = 1.0, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Exact unitary e^{i s m} for Hermitian m, via eigendecomposition."""
    eig = eig_hermitian(m, tol)
    phases = np.exp(1j * s * eig.values)
    return (eig.vectors * phases) @ eig.vectors.conj().T


def rotation_gate(k: int, params: SqrtParams) -> np.ndarray:
    """2x2 real rotation whose first column is h(lambda~_k)."""
    if not 0 <= k < params.T:
        raise IndexOutOfRangeError(f"k={k} outside [0, {params.T})")
    f, s = h_vector(grid_eigenvalue(k, params), params.kappa)
    return np.array([[f, -s], [s, f]], dtype=complex)

import math

import numpy as np
import pytest

from fidest import DensityOperator, Purification, purify


def default_prep(rho: DensityOperator) -> Purification:
    """Purify with the smallest useful ancilla register."""
    return purify(rho, max(1, math.ceil(math.log2(max(rho.rank, 2)))))


@pytest.fixture
def prep():
    return default_prep


def with_pe_register(out) -> np.ndarray:
    """An ideal-level extraction output on the circuit's registers: the pe
    register, exactly |0> there, inserted before the flag."""
    v = out.state.reshape(-1, 1, 2 << out.layout.qubits("garbage"))
    padded = np.zeros((v.shape[0], out.params.T, v.shape[2]), dtype=complex)
    padded[:, :1, :] = v
    return padded.reshape(-1)


@pytest.fixture
def with_pe():
    return with_pe_register


def pauli_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)

"""Gates of the dense extraction circuit, as 2^q x 2^q matrices, the
phase-estimation amplitudes as the per-grid-point DFT sum, the extraction
run on whole registers, and perfect phase estimation's output as the
spectral sum: reference oracles for the tests.

The estimate path never forms a gate matrix; it applies each gate to state
arrays.  The tests multiply these gates out (``dense_circuit`` in
``test_sqrt_extractor.py``) and check the path's states against the product.
The path also never forms W's columns or eta's whole factor: ``w_columns``
and ``perturbed_circuit_on_whole_factor`` rebuild both, so the tests can run
a perturbed eta stage on all of W's register.
"""

from __future__ import annotations

import numpy as np

from fidest.block_encoding import purification_to_unitary_be
from fidest.errors import IndexOutOfRangeError
from fidest.linalg import HERMITIAN_TOL, eig_hermitian, random_near_identity, reflect
from fidest.sqrt_extractor import (
    SqrtOutput,
    SqrtParams,
    block_spectrum,
    grid_eigenvalue,
    h_vector,
    sine_state,
)
from fidest.states import Purification


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


def pe_coefficient_sum(lam: float, k: int, params: SqrtParams) -> complex:
    """alpha_k(lambda) as the DFT sum (sqrt(2)/T) sum_tau e^{i tau delta}
    sin(pi(tau+1/2)/T), one grid point at a time: the oracle that both the
    closed form and the circuit's FFT are checked against."""
    if not 0 <= k < params.T:
        raise IndexOutOfRangeError(f"k={k} outside [0, {params.T})")
    T = params.T
    delta = params.t / (3.0 * T) * lam + 2.0 * np.pi / 3.0 - 2.0 * np.pi * k / T
    tau = np.arange(T)
    return complex(
        np.sqrt(2.0) / T * np.sum(np.exp(1j * tau * delta) * np.sin(np.pi * (tau + 0.5) / T))
    )


def ideal_output(m: np.ndarray, params: SqrtParams) -> np.ndarray:
    """Perfect phase estimation on M, straight from the spectrum of
    A = M M^dagger: every eigenbranch (lambda_j, u_j) gains the flag state
    h(lambda_j), so the output is sum_j (u_j u_j^dagger M) (x) h(lambda_j),
    with axes [system, pe, flag, garbage] and a length-1 pe axis."""
    eig = block_spectrum(m @ m.conj().T)
    v = eig.vectors
    branches = v.conj().T @ m  # [branch, garbage]
    flag = [(v * h) @ branches for h in h_vector(eig.values, params.kappa)]  # flag 0, flag 1
    return np.stack(flag, axis=1)[:, None]


def w_columns(out: SqrtOutput, n: int) -> np.ndarray:
    """W's columns on its inputs |j, 0> of [system, w_anc], for W built from
    the extraction output ``out`` on n system qubits as ``build_w_sigma``
    builds it: rows on [system, w_anc], W's whole register."""
    prepared = Purification(out.state.reshape(-1, out.state.shape[-1]))
    columns, _ = purification_to_unitary_be(prepared, qubit_budget=64)
    return columns[:, :: prepared.factor.shape[0] >> n]


def perturbed_circuit_on_whole_factor(
    p: Purification, n_enc: int, params: SqrtParams, seed
) -> np.ndarray:
    """The perturbed extraction circuit run on the whole state ``p`` prepares
    on [system, encoding, garbage], with A its encoding-zero block: the output
    with axes [system, encoding, pe, flag, garbage].  The controlled phases
    are drawn from ``seed`` as ``build_sqrt_unitary`` draws them."""
    dn, T = 1 << (p.system_qubits - n_enc), params.T
    psi = p.factor.reshape(dn, 1 << n_enc, -1)
    m = psi[:, 0, :]
    eig = block_spectrum(m @ m.conj().T)
    v = eig.vectors
    rng = np.random.default_rng(seed)
    theta = params.t / (3.0 * T) * eig.values + 2.0 * np.pi / 3.0
    phases = np.empty((T, dn, dn), dtype=complex)
    for tau in range(T):
        phases[tau] = (v * np.exp(1j * tau * theta)) @ v.conj().T
        if tau:
            phases[tau] = phases[tau] @ random_near_identity(dn, params.perturbation, rng)
    f, s = h_vector(grid_eigenvalue(np.arange(T), params), params.kappa)
    rotations = np.array([[f, -s], [s, f]])
    window = sine_state(T)
    # state axes: i/j system, e encoding, t pe, f/a/b flag, g garbage
    x = np.zeros((dn, psi.shape[1], T, 2, psi.shape[2]), dtype=complex)
    x[:, :, 0, 0, :] = psi
    x = reflect(window, x, axis=2)
    x = np.fft.fft(np.einsum("tij,jetfg->ietfg", phases, x), axis=2, norm="ortho")
    x = np.einsum("abt,ietbg->ietag", rotations, x)
    x = np.einsum("tji,jetfg->ietfg", phases.conj(), np.fft.ifft(x, axis=2, norm="ortho"))
    return reflect(window, x, axis=2, adjoint=True)

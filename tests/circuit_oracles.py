"""Gates of the dense extraction circuit, as 2^q x 2^q matrices, and their
product, the phase-estimation amplitudes as the per-grid-point DFT sum, the
extraction run on whole registers, and perfect phase estimation's output as
the spectral sum: reference oracles for the tests.

The estimate path never forms a gate matrix; it applies each gate to state
arrays.  The tests multiply these gates out (``dense_circuit``) and check the
path's states, and the perturbed reports built on them, against the product.
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
from register_oracles import layout, project_zero


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


def _on(op, dims, axes):
    """Dense matrix of ``op`` acting on the register axes ``axes`` (in that
    order) of a register with segment dimensions ``dims``, identity elsewhere."""
    rest = [i for i in range(len(dims)) if i not in axes]
    d = int(np.prod(dims))
    full = np.kron(op, np.eye(d // op.shape[0])).reshape([dims[i] for i in axes + rest] * 2)
    inv = list(np.argsort(axes + rest))
    return full.transpose(inv + [len(dims) + i for i in inv]).reshape(d, d)


def dense_circuit(p, n_enc, params, seed=0):
    """The extraction circuit as one dense unitary on [system, encoding, pe,
    flag, garbage], multiplied out of np.kron lifts of its gates, with the
    reflections as the preparer and the sine-window loader: the reference
    that build_sqrt_unitary's output state must be the first column of."""
    n_sys, T = p.system_qubits - n_enc, params.T
    dims = [1 << n_sys, 1 << n_enc, T, 2, 1 << p.garbage_qubits]
    d = int(np.prod(dims))
    assert d <= 1 << 10
    lay = layout(("system", n_sys), ("encoding", n_enc))
    a = project_zero(p.traced_matrix(), lay, ["encoding"])
    rng = np.random.default_rng(seed)
    ctrl = np.zeros((dims[0], T, dims[0], T), dtype=complex)
    for tau in range(T):
        w_tau = expm_i(a, tau * params.t / (3.0 * T)) * np.exp(2j * np.pi * tau / 3)
        if params.perturbation > 0 and tau:
            g = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
            h = (g + g.conj().T) / 2
            w_tau = w_tau @ expm_i(h / np.linalg.norm(h, 2), params.perturbation)
        ctrl[:, tau, :, tau] = w_tau
    rot = np.zeros((T, 2, T, 2), dtype=complex)
    for k in range(T):
        rot[k, :, k, :] = rotation_gate(k, params)
    jk = np.arange(T)
    inverse_qft = np.exp(-2j * np.pi * np.outer(jk, jk) / T) / np.sqrt(T)
    prep = _on(reflect(p.factor, np.eye(d // (2 * T)), axis=0), dims, [0, 1, 4])
    window = _on(reflect(sine_state(T), np.eye(T), axis=0), dims, [2])
    pe = _on(inverse_qft, dims, [2]) @ _on(ctrl.reshape(dims[0] * T, -1), dims, [0, 2])
    flag = _on(rot.reshape(2 * T, -1), dims, [2, 3])
    return window.conj().T @ pe.conj().T @ flag @ pe @ window @ prep

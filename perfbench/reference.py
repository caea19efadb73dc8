"""Independent reference model for fidelity-estimation reports.

Nothing here imports ``fidest``: every prediction is made from the factors
the benchmark draws itself (rho = A A^dagger, sigma = B B^dagger) and from
the paper's formulas.

* F_ref from Uhlmann's theorem: F(rho, sigma) = || A^dagger B ||_1.
* Stage gains. An ideal (perfect phase estimation) stage multiplies the
  eigenbranch lambda by the filter f_kappa(lambda).  A circuit stage
  multiplies it by F~(lambda) = sum_k |alpha_k(lambda)|^2 f_kappa(lambda~_k),
  the sine-window phase-estimation amplitudes weighting the filter on the
  grid readings.
* Composition. The sigma stage block-encodes B_w = sum lambda F~_s(lambda)^2
  P_lambda with scale 4 sqrt(kappa_sigma); the eta block is B_w rho B_w and
  x = sum_g g F~_k(g)^2 over its spectrum.
* Amplitude estimation: the error bound 2 pi sqrt(x(1-x))/M + pi^2/M^2 and
  the canonical outcome law over the M grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix, phases fixed."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_factor(rng: np.random.Generator, qubits: int, rank: int) -> np.ndarray:
    """d x rank factor A with A A^dagger a unit-trace state of exact rank ``rank``.

    Haar-random orthonormal columns, weights from normalised exponential
    draws kept above 1e-3 so the rank is unambiguous.
    """
    q = haar_unitary(rng, 1 << qubits)[:, :rank]
    while True:
        p = rng.exponential(size=rank)
        p /= p.sum()
        if p.min() > 1e-3:
            break
    return q * np.sqrt(p)


def uhlmann_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """F(A A^dagger, B B^dagger) = sum of singular values of A^dagger B."""
    return float(np.sum(np.linalg.svd(a.conj().T @ b, compute_uv=False)))


def filter_f(lam, kappa: float) -> np.ndarray:
    """The paper's filter: (1/2) kappa^{-1/4} lambda^{-1/4} on [1/kappa, 1],
    a half sine ramp from 0 on [1/(2 kappa), 1/kappa), 0 below, and its
    value at 1 above 1."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    lo, hi = 0.5 / kappa, 1.0 / kappa
    out = np.zeros_like(lam)
    top = lam > 1.0
    main = (lam >= hi) & ~top
    ramp = (lam >= lo) & (lam < hi)
    out[top] = 0.5 * kappa**-0.25
    out[main] = 0.5 * (kappa * lam[main]) ** -0.25
    out[ramp] = 0.5 * np.sin(0.5 * np.pi * (lam[ramp] - lo) / (hi - lo))
    return out


def pe_register(t: int) -> int:
    """Phase-register qubits l = max(3, ceil(log2 t)); T = 2^l grid points."""
    return max(3, math.ceil(math.log2(t)))


def grid_readings(t: int) -> np.ndarray:
    """Eigenvalue reading of grid point k: (3T/t)(2 pi k/T - 2 pi/3)."""
    T = 1 << pe_register(t)
    k = np.arange(T)
    return (3.0 * T / t) * (2.0 * np.pi * k / T - 2.0 * np.pi / 3.0)


def pe_amplitudes(lam, t: int) -> np.ndarray:
    """alpha_k(lambda) for every lambda (rows) and grid point k (columns).

    Sine-window phase estimation of exp(i tau ((t/3T) lambda + 2 pi/3)):
    alpha_k = (sqrt 2 / T) sum_tau e^{i tau delta_k} sin(pi (tau + 1/2) / T),
    delta_k = (t/3T) lambda + 2 pi/3 - 2 pi k/T, summed directly.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    T = 1 << pe_register(t)
    tau = np.arange(T)
    k = np.arange(T)
    delta = (t / (3.0 * T)) * lam[:, None] + 2.0 * np.pi / 3.0 - 2.0 * np.pi * k[None, :] / T
    window = np.sin(np.pi * (tau + 0.5) / T)
    phases = np.exp(1j * delta[:, :, None] * tau[None, None, :])
    return np.sqrt(2.0) / T * (phases @ window)


def stage_gain(lam, kappa: float, t: int, circuit: bool) -> np.ndarray:
    """Amplitude an extraction stage leaves on eigenbranch lambda."""
    lam = np.clip(np.atleast_1d(np.asarray(lam, dtype=float)), 0.0, 1.0)
    if not circuit:
        return filter_f(lam, kappa)
    weights = np.abs(pe_amplitudes(lam, t)) ** 2
    return weights @ filter_f(grid_readings(t), kappa)


@dataclass(frozen=True)
class Prediction:
    x: float  # all-zeros amplitude of the eta-stage extraction
    w_sigma_error: float  # || 4 sqrt(kappa_sigma) B_w - sqrt(sigma) ||


def predict(
    a: np.ndarray,
    b: np.ndarray,
    kappa_sigma: float,
    t_sigma: int,
    kappa: float,
    t: int,
    sigma_circuit: bool,
    eta_circuit: bool,
) -> Prediction:
    """x and the W_sigma block error for rho = A A^dagger, sigma = B B^dagger.

    The caller passes the factors in the role order the report used.
    """
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    lam = s**2
    gain_s = stage_gain(lam, kappa_sigma, t_sigma, sigma_circuit)
    block_w = lam * gain_s**2  # B_w = U diag(block_w) U^dagger on sigma's support
    w_err = float(np.max(np.abs(4.0 * math.sqrt(kappa_sigma) * block_w - np.sqrt(lam))))
    ba = (u * block_w) @ (u.conj().T @ a)
    g = np.linalg.svd(ba, compute_uv=False) ** 2  # spectrum of B_w rho B_w
    gain = stage_gain(g, kappa, t, eta_circuit)
    return Prediction(x=float(np.sum(g * gain**2)), w_sigma_error=w_err)


def qae_error_bound(x: float, m: int) -> float:
    return 2.0 * math.pi * math.sqrt(max(x * (1.0 - x), 0.0)) / m + math.pi**2 / (m * m)


def qae_law(x: float, m: int) -> np.ndarray:
    """Probability of each outcome y in 0..M-1 when the amplitude is x.

    The start state splits evenly over the Grover eigenphases +-omega,
    omega = arcsin(sqrt x)/pi, each read out with the Fejer kernel
    (sin(pi M d) / (M sin(pi d)))^2.
    """
    omega = math.asin(math.sqrt(min(max(x, 0.0), 1.0))) / math.pi
    y = np.arange(m) / m

    def kernel(d):
        s = np.sin(np.pi * d)
        tiny = np.abs(s) < 1e-15
        val = np.sin(np.pi * m * d) / (m * np.where(tiny, 1.0, s))
        return np.where(tiny, 1.0, val * val)

    if omega in (0.0, 0.5):
        p = kernel(omega - y)
    else:
        p = 0.5 * (kernel(omega - y) + kernel(-omega - y))
    return p / p.sum()


def likely_outcomes(x: float, m: int, mass: float = 1.0 - 1e-6) -> np.ndarray:
    """Boolean mask of the smallest outcome set holding ``mass`` of the law."""
    p = qae_law(x, m)
    order = np.argsort(p)[::-1]
    keep = int(np.searchsorted(np.cumsum(p[order]), mass)) + 1
    mask = np.zeros(m, dtype=bool)
    mask[order[:keep]] = True
    return mask


def grid_outcomes(x_tilde: float, m: int) -> tuple[int, ...]:
    """Outcomes y with sin^2(pi y / M) equal to x_tilde; empty when x_tilde is
    not a grid point.  y and M - y read out the same estimate.

    Compared in grid units: sin(pi (M - y) / M) carries an absolute rounding
    error of about 1e-16, a large relative one when x_tilde is tiny.
    """
    v = m * math.asin(math.sqrt(min(max(x_tilde, 0.0), 1.0))) / math.pi
    y = round(v)
    if abs(v - y) > 1e-6:
        return ()
    return tuple(sorted({y % m, (m - y) % m}))


def preparer_queries(t: int) -> int:
    """Preparer queries of one extraction: one direct use plus two
    phase-estimation passes whose 2^i-th controlled power costs
    ceil((t/3T) 2^i) + 1 controlled encodings of two queries each."""
    l = pe_register(t)
    scale = t / (3.0 * (1 << l))
    return 1 + 4 * sum(math.ceil(scale * (1 << i)) + 1 for i in range(l))


def oracle_queries(t_sigma: int, t: int, m: int) -> tuple[int, int]:
    """(queries to O_rho, queries to O_sigma) over the 2M+1 amplitude-estimation
    uses of the eta-stage extraction; each of its preparer queries applies
    W_sigma, which costs two sigma-stage extractions."""
    q_eta = (2 * m + 1) * preparer_queries(t)
    return q_eta, q_eta * 2 * preparer_queries(t_sigma)

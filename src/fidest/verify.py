"""Self-contained bound-verification suites.

Each suite measures a bounded quantity and compares it against the
stated threshold; the CLI prints one line per check and exits nonzero on any
failure.  The acceptance tests reuse these functions at the same settings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .amplitude import QaeParams, qae_estimate, qae_error_bound
from .errors import UnknownSuiteError
from .linalg import eig_hermitian, operator_norm, random_near_identity
from .sqrt_extractor import (
    SqrtParams,
    build_sqrt_unitary,
    filter_f,
    h_vector,
    pe_coefficient,
    pe_coefficient_direct,
    pe_phase_offset,
    pe_tail_bound,
    scaled_block_error,
    sine_state,
)
from .states import fidelity_exact, purify, random_density, trace_distance, uhlmann_fidelity

# the most the closed-form and FFT amplitudes may differ; `fidest coeffs` refuses a wider table
CLOSED_VS_DIRECT_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    measured: float
    threshold: float
    passed: bool

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.suite}/{self.name}: "
            f"measured {self.measured:.6e} vs threshold {self.threshold:.6e}"
        )


def _check(suite: str, name: str, measured: float, threshold: float) -> CheckResult:
    return CheckResult(suite, name, float(measured), float(threshold), measured <= threshold)


def suite_sine_state(seed: int = 0) -> list[CheckResult]:
    out = []
    worst = 0.0
    for T in (2, 8, 16, 64, 256, 1024):
        worst = max(worst, abs(np.linalg.norm(sine_state(T)) - 1.0))
    out.append(_check("sine-state", "unit-norm", worst, 1e-12))
    out.append(
        _check("sine-state", "T=2-closed-form",
               float(np.max(np.abs(sine_state(2) - 1 / np.sqrt(2)))), 1e-12)
    )
    s8 = sine_state(8)
    shape_ok = bool(np.all(np.diff(s8[:4]) > 0)) and np.allclose(s8, s8[::-1])
    out.append(_check("sine-state", "rise-fall-symmetric", 0.0 if shape_ok else 1.0, 0.5))
    return out


LIPSCHITZ_SLACK = 1.0 + 1e-6


def suite_filter_lipschitz(seed: int = 0, pairs: int = 10_000) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []
    for kappa in (2.0, 8.0, 32.0):
        l1 = rng.uniform(0, 1, pairs)
        l2 = rng.uniform(0, 1, pairs)
        (f1, s1), (f2, s2) = h_vector(l1, kappa), h_vector(l2, kappa)
        dh = np.hypot(f1 - f2, s1 - s2)
        allowed = (np.pi / np.sqrt(3.0)) * kappa * np.abs(l1 - l2) * LIPSCHITZ_SLACK
        excess = float(np.max(dh - allowed))
        out.append(_check("filter-lipschitz", f"kappa={kappa:g}", excess, 0.0))
        out.append(
            _check("filter-lipschitz", f"kappa={kappa:g}-branch-values",
                   max(abs(filter_f(1.0, kappa) - 0.5 * kappa**-0.25),
                       abs(filter_f(1 / (2 * kappa), kappa)),
                       abs(filter_f(1 / kappa, kappa) - 0.5)),
                   1e-12)
        )
    return out


def ideal_bound_grid(seed: int = 0, trials: int = 24) -> float:
    """max over instances of 4 kappa * || block - sqrt(A)/(4 sqrt(kappa)) ||."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        n = 1 + trial % 3
        rank = 1 + trial % min(4, 1 << n)
        base = random_density(n, rank, seed=seed * 1000 + trial)
        # a factor of A = u base, u in [0.2, 1)
        m = math.sqrt(float(rng.uniform(0.2, 1.0))) * purify(base, n).factor
        for kappa in (1.0, 4.0, 16.0, 64.0):
            out = build_sqrt_unitary(m, SqrtParams(kappa=kappa, t=64), circuit=False)
            err = scaled_block_error(out.block(), out.target_sqrt, kappa)
            worst = max(worst, err / (4.0 * math.sqrt(kappa)) * 4 * kappa)
    return worst


def suite_ideal_bound(seed: int = 0) -> list[CheckResult]:
    return [_check("ideal-bound", "max-4kappa-block-error", ideal_bound_grid(seed), 1.0 + 1e-9)]


@functools.lru_cache(maxsize=1)
def pe_coefficient_deviations(seed: int = 0, lams_per_T: int = 100):
    """(max closed-vs-direct deviation, max |sum |alpha|^2 - 1|, tail excess);
    cached, as the pe-coefficients and tail-bound suites both read it."""
    rng = np.random.default_rng(seed)
    dev = unit = tail = 0.0
    for t in (8, 16, 32):
        params = SqrtParams(kappa=4.0, t=t)
        k = np.arange(params.T)
        for lam in rng.uniform(0, 1, lams_per_T):
            closed = pe_coefficient(lam, k, params)
            direct = pe_coefficient_direct(lam, k, params)
            dev = max(dev, float(np.max(np.abs(closed - direct))))
            unit = max(unit, abs(float(np.sum(np.abs(closed) ** 2)) - 1.0))
            bound = pe_tail_bound(pe_phase_offset(lam, k, params), params.T)
            tail = max(tail, float(np.max(np.abs(closed) - bound)))
    return dev, unit, tail


def suite_pe_coefficients(seed: int = 0) -> list[CheckResult]:
    dev, unit, _ = pe_coefficient_deviations(seed)
    return [
        _check("pe-coefficients", "closed-vs-direct", dev, CLOSED_VS_DIRECT_TOL),
        _check("pe-coefficients", "unit-mass", unit, 1e-10),
    ]


def suite_tail_bound(seed: int = 0) -> list[CheckResult]:
    _, _, tail = pe_coefficient_deviations(seed)
    return [_check("tail-bound", "excess-over-bound", tail, 1e-12)]


def suite_purification_distance(seed: int = 0, pairs: int = 60) -> list[CheckResult]:
    worst_fvs = worst_pur = worst_uhl = -math.inf
    for s in range(pairs):
        n = 1 + s % 3
        a = random_density(n, 1 + s % (1 << n), seed=seed * 7000 + s)
        b = random_density(n, 1 + (s + 3) % (1 << n), seed=seed * 7000 + 3500 + s)
        f = fidelity_exact(a, b)
        d = trace_distance(a, b)
        worst_fvs = max(worst_fvs, d - math.sqrt(max(0.0, 1 - f * f)))
        pa, pb = purify(a, n), purify(b, n)
        worst_pur = max(
            worst_pur,
            operator_norm(a.matrix - b.matrix) - float(np.linalg.norm(pa.factor - pb.factor)),
        )
        # fidelity_exact takes square roots of rounding eigenvalues: ~1e-8 apart
        worst_uhl = max(worst_uhl, abs(uhlmann_fidelity(pa, pb) - f))
    return [
        _check("purification-distance", "trace-distance-vs-fidelity", worst_fvs, 1e-9),
        _check("purification-distance", "operator-norm-vs-purification", worst_pur, 1e-9),
        _check("purification-distance", "uhlmann-vs-density", worst_uhl, 1e-7),
    ]


def trace_sqrt(m: np.ndarray) -> float:
    """tr sqrt(m) with negative eigenvalues clamped to zero."""
    w = eig_hermitian(m, tol=1e-7).values
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


@dataclass(frozen=True)
class WeylCheck:
    difference: float
    bound: float
    norm_j: float


def weyl_trace_bound_check(eta_block: np.ndarray, target: np.ndarray, r: int) -> WeylCheck:
    """|tr sqrt(eta_block) - tr sqrt(target)| against r sqrt(3 ||difference||).

    Valid when both operators have rank <= r (eigenvalue perturbation keeps
    every branch within sqrt(3 ||J||) of its mate and the other branches are
    zero on both sides).  Raises ValueError if the bound is violated.
    """
    norm_j = operator_norm(eta_block - target)
    diff = abs(trace_sqrt(eta_block) - trace_sqrt(target))
    bound = r * math.sqrt(3.0 * norm_j)
    if diff > bound + 1e-9:
        raise ValueError(
            f"trace-sqrt difference {diff:.3e} exceeds r sqrt(3||J||) = {bound:.3e}"
        )
    return WeylCheck(difference=diff, bound=bound, norm_j=norm_j)


def random_low_rank_pair(dim: int, rank: int, scale: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two PSD operators of rank <= rank, a small rotation + spectrum jitter apart."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    spec = np.sort(rng.uniform(0.05, 1.0, rank))[::-1]
    target = (q[:, :rank] * spec) @ q[:, :rank].conj().T
    q2 = random_near_identity(dim, scale, rng) @ q
    spec2 = np.clip(spec + rng.uniform(-scale, scale, rank), 0.0, None)
    perturbed = (q2[:, :rank] * spec2) @ q2[:, :rank].conj().T
    return target, perturbed


def weyl_worst_ratio(seed: int = 0, trials: int = 500) -> float:
    """max over random low-rank pairs of difference / bound (must stay <= 1)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(trials):
        dim = int(rng.choice([2, 4, 8, 16]))
        rank = int(rng.integers(1, min(4, dim) + 1))
        scale = float(10.0 ** rng.uniform(-6, -1))
        target, perturbed = random_low_rank_pair(dim, rank, scale, rng)
        chk = weyl_trace_bound_check(perturbed, target, rank)
        if chk.bound > 0:
            worst = max(worst, chk.difference / chk.bound)
    return worst


def suite_weyl(seed: int = 0) -> list[CheckResult]:
    return [_check("weyl", "max-difference-over-bound", weyl_worst_ratio(seed), 1.0)]


def qae_exact_worst_excess(grid: int = 10_000) -> float:
    worst = -math.inf
    for M in (8, 16, 32, 64, 128, 256, 512, 1024):
        params = QaeParams(M=M)
        for x in np.linspace(0.0, 1.0, grid).tolist():
            worst = max(worst, abs(qae_estimate(x, params) - x) - qae_error_bound(x, M))
    return worst


def qae_sample_success(x: float = 0.5, M: int = 64, trials: int = 1000, seed: int = 0) -> float:
    bound = qae_error_bound(x, M)
    params = QaeParams(M=M, mode="sample")
    hits = sum(
        abs(qae_estimate(x, params, seed * 100_000 + s) - x) <= bound for s in range(trials)
    )
    return hits / trials


def suite_qae_bound(seed: int = 0) -> list[CheckResult]:
    success = qae_sample_success(seed=seed)
    return [
        _check("qae-bound", "exact-mode-excess", qae_exact_worst_excess(), 1e-12),
        _check("qae-bound", "sample-success-shortfall",
               (8 / np.pi**2 - 0.03) - success, 0.0),
    ]


SUITES = {
    "sine-state": suite_sine_state,
    "filter-lipschitz": suite_filter_lipschitz,
    "ideal-bound": suite_ideal_bound,
    "pe-coefficients": suite_pe_coefficients,
    "tail-bound": suite_tail_bound,
    "purification-distance": suite_purification_distance,
    "weyl": suite_weyl,
    "qae-bound": suite_qae_bound,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    key = name.lower()
    if key == "all":
        results = []
        for fn in SUITES.values():
            results.extend(fn(seed))
        return results
    if key not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; available: {', '.join(list(SUITES) + ['all'])}"
        )
    return SUITES[key](seed)

"""Canonical amplitude estimation on a known projection probability.

The estimator statistics depend on the amplitude alone, so instead of
building the Grover iterate over the full extraction register (which would
double an already deep circuit), the probability is computed exactly (from
the spectrum of the encoded block, or from the state for a perturbed
circuit: ``SqrtOutput.zero_probability``) and the canonical outcome law is
applied to it.  ``exact`` mode
returns the best grid point deterministically; ``sample`` mode draws from
the phase-estimation outcome distribution of the Grover eigenphase.  The law
is symmetric, p_y = p_{M-y}, so a draw evaluates each kernel value once, in
blocks of ``_BLOCK`` points over y <= M/2, keeping only the block sums; it
then recomputes the one block its uniform variate falls in.  No M-length
array is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError

QAE_MODES = ("exact", "sample")


@dataclass(frozen=True)
class QaeParams:
    """Grid size M (the query count scale), outcome mode, and sampling seed."""

    M: int
    mode: str = "exact"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in QAE_MODES:
            raise ValueError(f"mode {self.mode!r} not in {QAE_MODES}")
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if self.mode == "sample" and self.M & (self.M - 1):
            raise ValueError(f"sample mode needs M a power of two, got {self.M}")


def qae_error_bound(x: float, M: int) -> float:
    """2 pi sqrt(x(1-x)) / M + pi^2 / M^2."""
    return 2.0 * math.pi * math.sqrt(max(x * (1.0 - x), 0.0)) / M + math.pi**2 / (M * M)


def _kernel(omega: float, M: int, k: np.ndarray, lo: int) -> np.ndarray:
    """K(omega - y/M) for y = lo, lo + 1, ..., in place on k = -y/M: see
    qae_outcome_distribution."""
    k += omega
    k *= np.pi
    np.sin(k, out=k)
    y0 = int(np.rint(M * omega)) - lo
    peak = 0 <= y0 < len(k) and abs(k[y0]) < 1e-15
    np.square(k, out=k)
    if peak:
        k[y0] = 1.0
    np.divide((np.sin(np.pi * M * omega) / M) ** 2, k, out=k)
    if peak:
        k[y0] = 1.0
    return k


def qae_outcome_distribution(x: float, M: int) -> np.ndarray:
    """Probability of each grid outcome y in 0..M-1 for true amplitude x.

    The state splits evenly over the Grover eigenphases +-omega, omega =
    arcsin(sqrt(x)) / pi turns, which both decode to sin^2(pi y / M).  Each
    puts K(d) = sin^2(pi M d) / (M sin(pi d))^2 on y at d = +-omega - y/M, and
    K = 1 where |sin(pi d)| < 1e-15, which only y = rint(M omega) can meet.
    The numerator is the scalar sin^2(pi M omega), and the -omega kernel at y
    is the +omega one at (M - y) mod M, so the law is (k_y + k_{M-y}) / 2 for
    k_y = K(omega - y/M): one sine pass.  Sampled estimates draw from the same
    kernel values without building this array (qae_estimate).
    """
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"x={x} outside [0, 1]")
    omega = np.arcsin(np.sqrt(x)) / np.pi  # in [0, 1/2] turns
    p = np.arange(M, dtype=float)
    p /= -M
    _kernel(omega, M, p, 0)
    if 0.0 < omega < 0.5:
        p[1:] += p[:0:-1]  # y = 0 maps to itself
        p[1:] *= 0.5
    p /= p.sum()
    return p


_BLOCK = 1 << 13  # grid points per block of a sampled draw: 64 KB of float64


def _sample_outcome(omega: float, M: int, u: float) -> int:
    """The outcome rng.choice(M, p=qae_outcome_distribution(x, M)) draws for
    its uniform variate u, up to rounding of the cumulative sums; M is a power
    of two.

    The law is symmetric, p_y = p_{M-y}.  Its segments in y order are {0},
    blocks of 1..M/2-1, {M/2} (the lower ones), then the blocks' mirror
    images M - y.  Pass 1 sums each lower segment's law, computing each kernel
    value once; a mirror's sum is its block's.  Pass 2 recomputes the one
    segment where u * total falls and searches its cumulative sum.  The law
    is doubled throughout, which is exact and saves the halving.
    """
    half = M // 2
    steps = np.arange(min(_BLOCK, half), dtype=float)
    steps /= -M  # exact for M a power of two, as is subtracting lo / M below
    edges = [0, *range(1, half, _BLOCK), half, half + 1]  # lower segment i: edges[i]..edges[i+1]-1

    def law2(i):
        lo, hi = edges[i], edges[i + 1]
        p = _kernel(omega, M, steps[:hi - lo] - lo / M, lo)
        if 0 < lo < half and 0.0 < omega < 0.5:  # add k_{M-y}: M - y is another point
            p += _kernel(omega, M, steps[:hi - lo] - (M - hi + 1) / M, M - hi + 1)[::-1]
        else:
            p *= 2.0
        return p

    sums = np.empty(len(edges) - 1)
    for i in range(len(sums)):
        p = law2(i)
        sums[i] = p.sum()
        if not (math.isfinite(sums[i]) and p.min() >= 0.0):
            raise ValueError(f"QAE outcome law at omega = {omega} is not finite and non-negative")
    cdf = np.cumsum(np.concatenate([sums, sums[-2:0:-1]]))
    if not cdf[-1] > 0.0:
        raise ValueError(f"QAE outcome law at omega = {omega} sums to {cdf[-1]}")
    t = u * cdf[-1]
    j = int(cdf.searchsorted(t, side="right"))
    t -= cdf[j - 1] if j else 0.0
    if j < len(sums):
        p, first = law2(j), edges[j]
    else:  # the mirror of lower segment i
        i = 2 * len(sums) - 2 - j
        p, first = law2(i)[::-1], M - edges[i + 1] + 1
    return first + min(int(np.cumsum(p).searchsorted(t, side="right")), len(p) - 1)


def qae_estimate(x: float, params: QaeParams) -> float:
    """Amplitude estimate on the grid {sin^2(pi y / M)}.

    exact mode: the grid point nearest to theta = arcsin(sqrt(x)), a
    deterministic surrogate whose error always satisfies qae_error_bound.
    sample mode: one draw from qae_outcome_distribution, deterministic for a
    fixed seed: the outcome rng.choice draws with the same generator, found
    blockwise in O(_BLOCK) memory.
    """
    if not -1e-12 <= x <= 1 + 1e-12:
        raise OutOfRangeError(f"x={x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    M = params.M
    if params.mode == "exact":
        y = int(np.rint(M * np.arcsin(np.sqrt(x)) / np.pi))
    else:
        u = np.random.default_rng(params.seed).random()
        y = _sample_outcome(np.arcsin(np.sqrt(x)) / np.pi, M, u)
    return float(np.sin(np.pi * y / M) ** 2)

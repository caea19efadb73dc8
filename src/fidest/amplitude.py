"""Canonical amplitude estimation on a known projection probability.

The estimator statistics depend on the amplitude alone, so instead of
building the Grover iterate over the full extraction register (which would
double an already deep circuit), the probability is computed exactly (from
the spectrum of the encoded block, or from the state for a perturbed
circuit: ``SqrtOutput.zero_probability``) and the canonical outcome law is
applied to it.  ``exact`` mode returns the best grid point deterministically;
``sample`` mode draws from the phase-estimation outcome distribution of the
Grover eigenphase, an even mixture of two Fejer kernels, by exact rejection
(_outcomes): no M-length array is built, and a draw, the generator's
construction included, takes under 0.1 ms at any M up to 2^26 (2-core host).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError, Range, check_ranges

QAE_MODES = ("exact", "sample")


@dataclass(frozen=True)
class QaeParams:
    """Grid size M (the query count scale) and outcome mode, checked at
    construction against ``RANGES`` and, sampled, ``SAMPLED_M``."""

    M: int
    mode: str = "exact"

    RANGES = {"M": Range(int, lambda v: v >= 2, "an integer >= 2")}
    # a sampled outcome is read off a phase register of log2 M qubits
    SAMPLED_M = Range(int, lambda v: not v & (v - 1), "a power of two in sample mode")

    def __post_init__(self):
        if self.mode not in QAE_MODES:
            raise ValueError(f"mode {self.mode!r} not in {QAE_MODES}")
        check_ranges(self)
        if self.mode == "sample":
            self.SAMPLED_M.check("M", self.M)


def checked_probability(x: float) -> float:
    """A projection probability, checked to lie in [0, 1] within 1e-12 and
    clipped there."""
    if not -1e-12 <= x <= 1 + 1e-12:
        raise OutOfRangeError(f"projection probability {x} outside [0, 1]")
    return min(max(x, 0.0), 1.0)


def qae_error_bound(x: float, M: int) -> float:
    """2 pi sqrt(x(1-x)) / M + pi^2 / M^2."""
    return 2.0 * math.pi * math.sqrt(max(x * (1.0 - x), 0.0)) / M + math.pi**2 / (M * M)


def _angles(omega: float, M: int, y: np.ndarray) -> np.ndarray:
    """pi times the arguments of kernel A, omega - y/M (row 0), and kernel B,
    omega + y/M or, past 1/2, omega - (M - y)/M (row 1), for 0 <= y <= M/2:
    each is exact near its kernel's poles (A's at y = c = M omega, B's at -c
    and M - c)."""
    b = omega + y / M
    return np.pi * np.array([omega - y / M, np.where(b <= 0.5, b, omega - (M - y) / M)])


def _law(omega: float, M: int, y: np.ndarray) -> np.ndarray:
    """The doubled law P(y) = K(omega - y/M) + K(omega + y/M) at outcomes
    0 <= y <= M/2: see qae_outcome_distribution."""
    s = np.sin(_angles(omega, M, y))
    pole = np.abs(s) < 1e-15
    s[pole] = 1.0
    k = (np.sin(np.pi * M * omega) / M) ** 2 / np.square(s, out=s)
    k[pole] = 1.0
    return k[0] + k[1]


def qae_outcome_distribution(x: float, M: int) -> np.ndarray:
    """Probability of each grid outcome y in 0..M-1 for true amplitude x.

    The state splits evenly over the Grover eigenphases +-omega, omega =
    arcsin(sqrt(x)) / pi turns, which both decode to sin^2(pi y / M).  Each
    puts K(d) = sin^2(pi M d) / (M sin(pi d))^2 on y at d = +-omega - y/M, and
    K = 1 where |sin(pi d)| < 1e-15, which only a kernel's pole can meet.  The
    numerator is the scalar sin^2(pi M omega), and K is even with period 1,
    so the law is P(y) / 2 for the doubled law P(y) = K(omega - y/M) +
    K(omega + y/M) = P(M - y): _law on 0..M//2, mirrored.  Sampled estimates
    draw from this law by _outcomes' rejection from _fejer, without the array.
    """
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"x={x} outside [0, 1]")
    omega = np.arcsin(np.sqrt(x)) / np.pi  # in [0, 1/2] turns
    p = _law(omega, M, np.arange(M // 2 + 1))
    p = np.concatenate([p, p[(M + 1) // 2 - 1:0:-1]])
    p /= p.sum()
    return p


def _fejer(d: np.ndarray, M: int) -> np.ndarray:
    """K(d) = sin^2(pi d) / (M sin(pi d / M))^2 at grid offsets d, and 1 at d = 0."""
    s = M * np.sin(np.pi / M * d)
    return np.divide(np.sin(np.pi * d), s, out=np.ones_like(s), where=s != 0.0) ** 2


def _outcomes(omega: float, M: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent draws from qae_outcome_distribution, by rejection.

    A proposal picks the eigenphase +-omega (kernel pole c = +-M omega), a
    side and j = floor(1 / (2 - 2v)), 0 with probability 1/2 and j with
    1/(2 j (j + 1)) beyond: y = floor(c) - j or floor(c) + 1 + j.  An offset
    d = c - y outside (-M/2, M/2] repeats a residue mod M and is rejected;
    else y mod M is accepted with probability K(d) over the envelope 1 /
    max(1, j (j + 1)), which bounds K as M sin(pi |d| / M) >= 2 |d|.  Each
    kernel sums to 1 over a period, so a quarter of proposals are accepted.
    """
    draws = []
    while n > 0:
        branch, side, v, accept = rng.random((4, 4 * n + 16))  # about 4 proposals a draw
        c = np.copysign(M * omega, branch - 0.5)
        j = np.floor(1.0 / (2.0 - 2.0 * v))
        y = np.floor(c) - j + (side < 0.5) * (2.0 * j + 1.0)
        d = c - y
        inside = (-M / 2 < d) & (d <= M / 2)
        ratio = _fejer(d[inside], M) * np.maximum(j[inside] * (j[inside] + 1.0), 1.0)
        if not (ratio <= 1.0 + 1e-12).all():
            raise ValueError(f"QAE kernel above its rejection envelope at omega = {omega}")
        draws.append(y[inside][accept[inside] < ratio][:n])
        n -= len(draws[-1])
    return np.concatenate(draws).astype(np.int64) % M


def qae_estimate(x: float, params: QaeParams, seed: int = 0) -> float:
    """Amplitude estimate on the grid {sin^2(pi y / M)}.

    exact mode: the grid point nearest to theta = arcsin(sqrt(x)), a
    deterministic surrogate whose error always satisfies qae_error_bound.
    sample mode: one draw from qae_outcome_distribution, deterministic for a
    fixed seed, by exact rejection from the law's two kernels (_outcomes).
    """
    x = checked_probability(x)
    M = params.M
    if params.mode == "exact":
        y = int(np.rint(M * np.arcsin(np.sqrt(x)) / np.pi))
    else:
        omega = np.arcsin(np.sqrt(x)) / np.pi
        y = int(_outcomes(omega, M, np.random.default_rng(seed), 1)[0])
    return float(np.sin(np.pi * y / M) ** 2)

"""Canonical amplitude estimation on a known projection probability.

The estimator statistics depend on the amplitude alone, so instead of
building the Grover iterate over the full extraction register (which would
double an already deep circuit), the probability is computed exactly (from
the spectrum of the encoded block, or from the state for a perturbed
circuit: ``SqrtOutput.zero_probability``) and the canonical outcome law is
applied to it.  ``exact`` mode
returns the best grid point deterministically; ``sample`` mode draws from
the phase-estimation outcome distribution of the Grover eigenphase.  The law
is symmetric, p_y = p_{M-y}, and off its poles a smooth csc^2, so a draw
computes it point by point only on ``_WINDOW`` points around each pole and
sums the gaps between in closed form (Euler-Maclaurin); a variate that falls
in a gap, about 4 / (pi^2 _WINDOW) of draws, halves that gap on closed-form
sums until ``_WINDOW`` points are left.  A draw costs under a millisecond at
any M up to 2^26 and no M-length array is built.
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
    draw from the same _law without building this array (qae_estimate).
    """
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"x={x} outside [0, 1]")
    omega = np.arcsin(np.sqrt(x)) / np.pi  # in [0, 1/2] turns
    p = _law(omega, M, np.arange(M // 2 + 1))
    p = np.concatenate([p, p[(M + 1) // 2 - 1:0:-1]])
    p /= p.sum()
    return p


_WINDOW = 256  # grid points computed directly on each side of a kernel's pole

# Euler-Maclaurin terms: B_2j / (2j)! and the (2j-1)-th derivative of csc^2 x
# as an odd polynomial in u = cot x, u times the coefficients of u^0, u^2, ...
# (P_1 = -2u - 2u^3, P_(k+1) = -(1 + u^2) P_k').
_EULER_MACLAURIN = (
    (1 / 12, (-2.0, -2.0)),
    (-1 / 720, (-16.0, -40.0, -24.0)),
    (1 / 30240, (-272.0, -1232.0, -1680.0, -720.0)),
    (-1 / 1209600, (-7936.0, -56320.0, -129024.0, -120960.0, -40320.0)),
)


def _csc2_sum(xa: float, xb: float, h: float) -> float:
    """Sum of csc^2(xa + h j) over the points xa, xa + h, ..., xb, by
    Euler-Maclaurin to the B_8 term; accurate to rounding when every point is
    _WINDOW steps or more from a pole of csc^2."""
    ua, ub = 1.0 / math.tan(xa), 1.0 / math.tan(xb)
    total = (ua - ub) / h + (2.0 + ua * ua + ub * ub) / 2.0
    va, vb, hk = ua * ua, ub * ub, h
    for coef, poly in _EULER_MACLAURIN:
        pa = pb = 0.0
        for c in reversed(poly):
            pa, pb = pa * va + c, pb * vb + c
        total += coef * hk * (ub * pb - ua * pa)
        hk *= h * h
    return total


def _gap_sum(omega: float, M: int, lo: int, hi: int) -> float:
    """The doubled law's sum over y = lo..hi-1, a span of 1..M/2-1 at least
    _WINDOW points from each kernel's poles: the scalar numerator times the
    csc^2 sums of kernel A and kernel B on _law's angles (_angles)."""
    h = math.pi / M
    (a0, a1), (b0, b1) = _angles(omega, M, np.array([lo, hi - 1]))
    total = _csc2_sum(a0, a1, -h) + _csc2_sum(b0, b1, h)
    return float((np.sin(np.pi * M * omega) / M) ** 2) * total


def _windows(omega: float, M: int) -> list[list[int]]:
    """The spans [lo, hi) of 1..M/2-1 a sampled draw computes point by point:
    _WINDOW points at each end and on each side of c = M omega, merged, with
    a gap shorter than _WINDOW between two spans joining them."""
    half, c = M // 2, int(M * omega)
    spans = sorted((max(lo, 1), min(hi, half)) for lo, hi in
                   ((1, 1 + _WINDOW), (c - _WINDOW, c + _WINDOW + 1), (half - _WINDOW, half)))
    windows = []
    for lo, hi in spans:
        if windows and lo <= windows[-1][1] + _WINDOW:
            windows[-1][1] = max(windows[-1][1], hi)
        elif lo < hi:
            windows.append([lo, hi])
    return windows


def _sample_outcome(omega: float, M: int, u: float) -> int:
    """The outcome rng.choice(M, p=qae_outcome_distribution(x, M)) draws for
    its uniform variate u, up to rounding of the cumulative sums; M is a power
    of two.

    The law is symmetric, p_y = p_{M-y}.  Its pieces in y order are {0},
    pieces of 1..M/2-1, {M/2} (the lower ones), then the pieces' mirror
    images M - y, all on the doubled law P (_law).  Kernel A has its pole at
    c = M omega and kernel B at -c and M - c, so off _WINDOW points around c
    and at both ends of 1..M/2-1 both are smooth: those windows (a gap
    shorter than a window joins them) are computed point by point, and the
    gaps between them are summed in closed form (_gap_sum).  If u times the
    total falls in a window, its cumulative sum is searched; if it falls in a
    gap, the gap is halved on closed-form sums, in draw order, until at most
    _WINDOW points are left, and their cumulative sum is searched.
    """
    half = M // 2

    def checked(total, law=None):
        if not (0.0 <= total < math.inf and (law is None or law.min() >= 0.0)):
            raise ValueError(f"QAE outcome law at omega = {omega} is not finite and non-negative")
        return total

    spans = [(0, 1), *_windows(omega, M), (half, half + 1)]
    law = _law(omega, M, np.concatenate([np.arange(lo, hi) for lo, hi in spans]))
    checked(law.sum(), law)
    pieces = []  # (first y, end, law or None for a gap)
    for lo, hi in spans:
        if pieces and pieces[-1][1] < lo:
            pieces.append((pieces[-1][1], lo, None))
        pieces.append((lo, hi, law[:hi - lo]))
        law = law[hi - lo:]
    sums = [checked(_gap_sum(omega, M, lo, hi)) if p is None else p.sum() for lo, hi, p in pieces]
    cdf = np.cumsum(sums + sums[-2:0:-1])
    if not cdf[-1] > 0.0:
        raise ValueError(f"QAE outcome law at omega = {omega} sums to {cdf[-1]}")
    t = u * cdf[-1]
    j = min(int(cdf.searchsorted(t, side="right")), len(cdf) - 1)
    t -= cdf[j - 1] if j else 0.0
    mirror = j >= len(pieces)
    lo, hi, p = pieces[2 * len(pieces) - 2 - j if mirror else j]
    if p is None:
        while hi - lo > _WINDOW:
            mid = (lo + hi) // 2
            first, second = ((mid, hi), (lo, mid)) if mirror else ((lo, mid), (mid, hi))
            s = checked(_gap_sum(omega, M, *first))
            (lo, hi), t = (first, t) if t < s else (second, t - s)
        p = _law(omega, M, np.arange(lo, hi))
        checked(p.sum(), p)
    if mirror:
        p, lo = p[::-1], M - hi + 1
    return lo + min(int(np.cumsum(p).searchsorted(t, side="right")), len(p) - 1)


def qae_estimate(x: float, params: QaeParams) -> float:
    """Amplitude estimate on the grid {sin^2(pi y / M)}.

    exact mode: the grid point nearest to theta = arcsin(sqrt(x)), a
    deterministic surrogate whose error always satisfies qae_error_bound.
    sample mode: one draw from qae_outcome_distribution, deterministic for a
    fixed seed: the outcome rng.choice draws with the same generator, found
    from O(_WINDOW) law values and closed-form gap sums, a gap halved on them
    when the variate falls there (_sample_outcome).
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

"""The blockwise sampled-QAE draw, kept as the oracle for the windowed one.

It computes the doubled outcome law in blocks of ``BLOCK`` grid points over
y <= M/2 and keeps the block sums (pass 1), then recomputes the one block
where u times the total falls and searches its cumulative sum (pass 2).  Its
outcome is the one rng.choice(M, p=qae_outcome_distribution(x, M)) draws for
the variate u, up to rounding of the cumulative sums.  Pass 1 does not depend
on u, so ``BlockwiseDraw`` runs it once per (omega, M) and then draws any
number of u's; ``bounds`` gives the u-interval of one outcome, for choosing a
u that lands on it.  Its kernel is its own copy of the one the blockwise draw
used, so the oracle does not change with the code it checks.
"""

import numpy as np

BLOCK = 1 << 13


def _kernel(omega: float, M: int, k: np.ndarray, lo: int) -> np.ndarray:
    """K(omega - y/M) = sin^2(pi M omega) / (M sin(pi (omega - y/M)))^2 for
    y = lo, lo + 1, ..., in place on k = -y/M; K = 1 at y = rint(M omega) where
    |sin| < 1e-15."""
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


class BlockwiseDraw:
    def __init__(self, omega: float, M: int):
        self.omega, self.M = omega, M
        half = M // 2
        self.steps = np.arange(min(BLOCK, half), dtype=float)
        self.steps /= -M
        self.edges = [0, *range(1, half, BLOCK), half, half + 1]
        sums = np.empty(len(self.edges) - 1)
        for i in range(len(sums)):
            p = self.law2(i)
            sums[i] = p.sum()
            if not (np.isfinite(sums[i]) and p.min() >= 0.0):
                raise ValueError(f"QAE outcome law at omega = {omega} is not finite and non-negative")
        self.nlower = len(sums)
        self.cdf = np.cumsum(np.concatenate([sums, sums[-2:0:-1]]))
        if not self.cdf[-1] > 0.0:
            raise ValueError(f"QAE outcome law at omega = {omega} sums to {self.cdf[-1]}")

    def law2(self, i: int) -> np.ndarray:
        omega, M, half, steps = self.omega, self.M, self.M // 2, self.steps
        lo, hi = self.edges[i], self.edges[i + 1]
        p = _kernel(omega, M, steps[:hi - lo] - lo / M, lo)
        if 0 < lo < half and 0.0 < omega < 0.5:
            p += _kernel(omega, M, steps[:hi - lo] - (M - hi + 1) / M, M - hi + 1)[::-1]
        else:
            p *= 2.0
        return p

    def segment(self, j: int) -> tuple[np.ndarray, int]:
        """Segment j of the CDF in y order: its law and its first outcome."""
        if j < self.nlower:
            return self.law2(j), self.edges[j]
        i = 2 * self.nlower - 2 - j  # the mirror of lower segment i
        return self.law2(i)[::-1], self.M - self.edges[i + 1] + 1

    def __call__(self, u: float) -> int:
        t = u * self.cdf[-1]
        j = int(self.cdf.searchsorted(t, side="right"))
        t -= self.cdf[j - 1] if j else 0.0
        p, first = self.segment(j)
        return first + min(int(np.cumsum(p).searchsorted(t, side="right")), len(p) - 1)

    def bounds(self, y: int) -> tuple[float, float]:
        """The interval of u in which this draw gives outcome y."""
        half = self.M // 2
        lower = y if y <= half else self.M - y
        i = next(i for i in range(self.nlower) if self.edges[i] <= lower < self.edges[i + 1])
        j = i if y <= half else 2 * self.nlower - 2 - i
        p, first = self.segment(j)
        base = self.cdf[j - 1] if j else 0.0
        c = np.cumsum(p)
        k = y - first
        lo, hi = base + (c[k - 1] if k else 0.0), base + c[k]
        return lo / self.cdf[-1], hi / self.cdf[-1]

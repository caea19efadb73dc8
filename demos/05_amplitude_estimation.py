"""Amplitude estimation on a known probability.

exact mode returns the nearest grid value sin^2(pi y / M); sample mode draws
from the canonical outcome distribution.  Both stay within
2 pi sqrt(x(1-x))/M + pi^2/M^2, the sampled one with probability >= 8/pi^2.
"""

import numpy as np

from fidest import QaeParams, qae_estimate, qae_outcome_distribution, qae_error_bound


def main():
    x = 0.3
    print(f"true amplitude x = {x}")
    print(" M    exact estimate   |error|      bound")
    for M in (8, 16, 32, 64, 128, 256):
        xt = qae_estimate(x, QaeParams(M=M))
        print(f"{M:4d}  {xt:14.6f}  {abs(xt - x):.6f}   {qae_error_bound(x, M):.6f}")

    M, trials = 64, 2000
    bound = qae_error_bound(x, M)
    hits = 0
    values = []
    for s in range(trials):
        xt = qae_estimate(x, QaeParams(M=M, mode="sample", seed=s))
        values.append(xt)
        hits += abs(xt - x) <= bound
    print(f"\nsample mode at M={M}: {trials} trials, "
          f"success rate {hits / trials:.3f} (floor 8/pi^2 = {8 / np.pi**2:.3f})")

    p = qae_outcome_distribution(x, M)
    top = np.argsort(-p, kind="stable")[:4]  # p[y] = p[M - y]: ties list the smaller y first
    print("most likely outcomes:")
    for y in top:
        print(f"  y={y:3d} -> estimate {np.sin(np.pi * y / M) ** 2:.4f}  prob {p[y]:.3f}")


if __name__ == "__main__":
    main()

"""Phase-estimation amplitudes with the sine window.

For an eigenvalue lambda the probability of reading grid point k has a
closed form; this script compares it with the amplitudes the circuit
computes (the FFT over the phase register, ``pe_coefficient_direct``), shows
how the mass concentrates on the one or two nearest grid points, and checks
the quadratic tail bound that makes the sine window worthwhile.  Each table
is one array call per function over every grid point k.
"""

import numpy as np

from fidest import (
    SqrtParams,
    grid_eigenvalue,
    pe_coefficient,
    pe_coefficient_direct,
    pe_phase_offset,
    pe_tail_bound,
)


def table(lam, t):
    params = SqrtParams(kappa=1.0, t=t)
    T = params.T
    print(f"\nlambda = {lam}, t = {t} (grid size T = {T})")
    print(" k  grid-lambda     |alpha|^2   closed-vs-direct   tail bound")
    k = np.arange(T)
    a = pe_coefficient(lam, k, params)
    d = pe_coefficient_direct(lam, k, params)
    tail = pe_tail_bound(pe_phase_offset(lam, k, params), T)  # inf near the peak
    rows = zip(k, grid_eigenvalue(k, params), np.abs(a) ** 2, np.abs(a - d), tail)
    for kk, grid, mass, diff, bound in rows:
        print(f"{kk:2d}  {grid:11.4f}  {mass:10.6f}   {diff:.2e}           {min(bound, 9.99):.3f}")
    print(f"sum |alpha|^2 = {np.sum(np.abs(a) ** 2):.12f}")


def main():
    # on a grid point: one dominant coefficient
    params = SqrtParams(kappa=1.0, t=8)
    lam_on = grid_eigenvalue(3, params)
    table(lam_on, 8)
    # midway between grid points: two near-equal dominant coefficients
    lam_mid = 0.5 * (grid_eigenvalue(3, params) + grid_eigenvalue(4, params))
    table(lam_mid, 8)


if __name__ == "__main__":
    main()

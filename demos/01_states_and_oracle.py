"""Density operators, purifications, and the exact fidelity oracle.

Generates random low-rank states, purifies them, checks the round trip, and
compares fidelity with trace distance on a batch of random pairs.

=== EXAMPLE OUTPUT ===
rho: 2 qubits, rank 2, eigenvalues [0.749 0.251 0.    0.   ]
purification round-trip error <= 1e-12: True
F(rho, rho)        = 1.000000000
F(|0><0|, |1><1|)  = 0.000000000
F(|0><0|, I/2)     = 0.707106781
pair  0: F=0.5679  D=0.7623  sqrt(1-F^2)=0.8231  D <= sqrt(1-F^2): True
...
"""

import numpy as np

from fidest import (
    DensityOperator,
    fidelity_exact,
    operator_norm,
    purify,
    random_density,
    trace_distance,
)

ROUND_TRIP_TOL = 1e-12


def main():
    rho = random_density(2, 2, seed=42)
    # eigenvalues clipped at 0: the zero ones come out as +-1e-17 or so
    print(f"rho: {rho.qubits} qubits, rank {rho.rank}, eigenvalues "
          f"{np.round(np.maximum(rho.eigen.values, 0.0), 3)}")

    p = purify(rho, ancilla_qubits=1)
    err = operator_norm(p.traced_matrix() - rho.matrix)
    print(f"purification round-trip error <= {ROUND_TRIP_TOL:g}: {err <= ROUND_TRIP_TOL}")

    z0 = DensityOperator(np.diag([1.0, 0.0]))
    z1 = DensityOperator(np.diag([0.0, 1.0]))
    half = DensityOperator(np.eye(2) / 2)
    print(f"F(rho, rho)        = {fidelity_exact(rho, rho):.9f}")
    print(f"F(|0><0|, |1><1|)  = {fidelity_exact(z0, z1):.9f}")
    print(f"F(|0><0|, I/2)     = {fidelity_exact(z0, half):.9f}")

    for s in range(6):
        a = random_density(2, 1 + s % 4, seed=100 + s)
        b = random_density(2, 1 + (s + 1) % 4, seed=200 + s)
        f = fidelity_exact(a, b)
        d = trace_distance(a, b)
        cap = np.sqrt(max(0.0, 1 - f * f))
        print(f"pair {s:2d}: F={f:.4f}  D={d:.4f}  sqrt(1-F^2)={cap:.4f}  "
              f"D <= sqrt(1-F^2): {d <= cap + 1e-9}")


if __name__ == "__main__":
    main()

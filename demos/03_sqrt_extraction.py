"""Square-root extraction: the filter function, the exact spectral bound, and
circuit-vs-ideal convergence as the phase budget t grows.

One routine runs the extraction at both levels (``circuit=False`` is
perfect phase estimation); it takes M, a factor of A = M M^dagger: the
ancilla-zero slice of a state that block-encodes A.  The traced output of
the extraction block-encodes sqrt(A) with scale 4 sqrt(kappa); its block is
M' M'^dagger for M' the output state's ancilla-zero slice.  With perfect phase estimation
the block error (unscaled) is at most 1/(4 kappa) -- an exact constant,
checked below -- and the circuit converges to the perfect-estimation output
at rate ~ kappa/t.

=== EXAMPLE OUTPUT ===
filter at kappa=8: f(1)=0.297  f(1/kappa)=0.500  f(1/(2 kappa))=0.000
ideal block error * 4 kappa (must be <= 1):
  kappa=   1: 0.575
  ...
circuit vs ideal (pure 1-qubit instance, kappa=8):
  t=   8: ||circuit - ideal|| = 0.070934 (preparer queries: 29)
  ...
"""

import numpy as np

from fidest import (
    SqrtParams,
    build_sqrt_unitary,
    filter_f,
    preparer_queries,
    purify,
    random_density,
)
from fidest.sqrt_extractor import scaled_block_error


def main():
    kappa = 8.0
    print(f"filter at kappa={kappa:g}: f(1)={filter_f(1.0, kappa):.3f}  "
          f"f(1/kappa)={filter_f(1 / kappa, kappa):.3f}  "
          f"f(1/(2 kappa))={filter_f(1 / (2 * kappa), kappa):.3f}")

    print("ideal block error * 4 kappa (must be <= 1):")
    # A = 0.7 rho for a rank-3 rho on 2 qubits: its factor is sqrt(0.7) times rho's
    m = np.sqrt(0.7) * purify(random_density(2, 3, seed=1), 2).factor
    for k in (1.0, 4.0, 16.0, 64.0):
        out = build_sqrt_unitary(m, SqrtParams(kappa=k, t=64), circuit=False)
        err = scaled_block_error(out.block(), out.target_sqrt, k) / (4 * np.sqrt(k))
        print(f"  kappa={k:4g}: {err * 4 * k:.3f}")

    print("circuit vs ideal (pure 1-qubit instance, kappa=8):")
    m = purify(random_density(1, 1, seed=7), 1).factor
    for t in (8, 16, 32, 64, 128):
        params = SqrtParams(kappa=kappa, t=t)
        out = build_sqrt_unitary(m, params)
        # the ideal output has a length-1 pe axis: on the circuit's, pe is exactly |0>
        ideal = np.zeros_like(out.state)
        ideal[:, :1] = build_sqrt_unitary(m, params, circuit=False).state
        print(f"  t={t:4d}: ||circuit - ideal|| = {np.linalg.norm(out.state - ideal):.6f} "
              f"(preparer queries: {preparer_queries(params)})")


if __name__ == "__main__":
    main()

"""Square-root extraction: the filter function, the exact spectral bound, and
circuit-vs-ideal convergence as the phase budget t grows.

The traced output of the extraction circuit block-encodes sqrt(A) with scale
4 sqrt(kappa).  With perfect phase estimation the block error (unscaled) is
at most 1/(4 kappa) -- an exact constant, checked below -- and the assembled
circuit converges to the perfect-estimation output at rate ~ kappa/t.

=== EXAMPLE OUTPUT ===
filter at kappa=8: f(1)=0.297  f(1/kappa)=0.500  f(1/(2 kappa))=0.000
ideal block error * 4 kappa (must be <= 1):
  kappa=  1: 0.342
  ...
circuit vs ideal (pure 1-qubit instance, kappa=8):
  t=   8: ||circuit - ideal|| = 0.070934
  ...
"""

import numpy as np

from fidest import (
    SqrtParams,
    build_sqrt_unitary,
    density_with_block,
    filter_f,
    ideal_sqrt_state,
    purify,
    random_density,
)


def main():
    kappa = 8.0
    print(f"filter at kappa={kappa:g}: f(1)={filter_f(1.0, kappa):.3f}  "
          f"f(1/kappa)={filter_f(1 / kappa, kappa):.3f}  "
          f"f(1/(2 kappa))={filter_f(1 / (2 * kappa), kappa):.3f}")

    print("ideal block error * 4 kappa (must be <= 1):")
    a = 0.7 * random_density(2, 3, seed=1).matrix
    p = purify(density_with_block(a, 1), 3)
    for k in (1.0, 4.0, 16.0, 64.0):
        out = ideal_sqrt_state(p, 1, SqrtParams(kappa=k, t=64))
        print(f"  kappa={k:4g}: {out.unscaled_block_error() * 4 * k:.3f}")

    print("circuit vs ideal (pure 1-qubit instance, kappa=8):")
    p = purify(random_density(1, 1, seed=7), 1).split_system(("system", 1), ("encoding", 0))
    for t in (8, 16, 32, 64, 128):
        params = SqrtParams(kappa=kappa, t=t)
        out = build_sqrt_unitary(p, 0, params)
        # the ideal output on the circuit's registers: pe exactly |0>
        ideal = np.zeros((2, params.T, 4), dtype=complex)
        ideal[:, 0, :] = ideal_sqrt_state(p, 0, params).state.reshape(2, 4)
        ideal = ideal.reshape(-1)
        print(f"  t={t:4d}: ||circuit - ideal|| = {np.linalg.norm(out.state - ideal):.6f} "
              f"(preparer queries: {out.preparer_queries})")


if __name__ == "__main__":
    main()

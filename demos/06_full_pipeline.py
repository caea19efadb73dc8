"""End-to-end fidelity estimation against the exact oracle.

Two regimes are shown.  With kappa_sigma = kappa the whole eta-block spectrum
sits below the filter cutoff 1/(2 kappa) and the estimator degenerates to 0
(the analytic bound still holds -- it is simply wide).  Growing kappa and t
past the cutoff turns the pipeline into a genuine estimator whose error
shrinks as the parameters double; the practical parameter schedule picks such
values automatically for a requested accuracy.
"""

import numpy as np

from fidest import (
    PipelineParams,
    QaeParams,
    ancilla_qubits_for,
    estimate_fidelity,
    purify,
    random_density,
    select_params,
)


def prep(rho):
    return purify(rho, ancilla_qubits_for(rho.rank))


def main():
    rho = random_density(1, 2, seed=41)
    sigma = random_density(1, 2, seed=40)

    print("degenerate regime (kappa_sigma = kappa = 16, t = 256):")
    params = PipelineParams(kappa_sigma=16.0, t_sigma=256, kappa=16.0, t=256,
                            qae=QaeParams(M=1024), sim_level="ideal-spectral")
    rep = estimate_fidelity(prep(rho), prep(sigma), params, seed=0)
    print(f"  estimate {rep.estimate:.4f}  oracle {rep.exact_fidelity:.4f}  "
          f"|error| {rep.abs_error:.4f}  bound {rep.analytic_bound:.4f}")

    print("\nparameter ladder (kappa_sigma=4 fixed, kappa and t doubling):")
    for k, t in [(64.0, 1 << 16), (128.0, 1 << 18), (256.0, 1 << 20), (512.0, 1 << 22)]:
        params = PipelineParams(kappa_sigma=4.0, t_sigma=1 << 20, kappa=k, t=t,
                                qae=QaeParams(M=1 << 15), sim_level="ideal-spectral")
        rep = estimate_fidelity(prep(rho), prep(sigma), params, seed=0)
        print(f"  kappa={k:5g} t=2^{int(np.log2(t)):2d}: estimate {rep.estimate:.4f}  "
              f"|error| {rep.abs_error:.4f}  O_sigma queries {rep.queries_o_sigma:.3e}")

    print("\npractical schedule for eps = 0.4:")
    params = select_params(r=2, eps=0.4, mode="practical", sim_level="ideal-spectral")
    rep = estimate_fidelity(prep(rho), prep(sigma), params, seed=0)
    print(f"  kappa_sigma={params.kappa_sigma:g} t_sigma={params.t_sigma} "
          f"kappa={params.kappa:g} t={params.t} M={params.qae.M}")
    print(f"  estimate {rep.estimate:.4f}  oracle {rep.exact_fidelity:.4f}  "
          f"|error| {rep.abs_error:.4f} (target 0.4)")


if __name__ == "__main__":
    main()

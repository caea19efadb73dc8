"""Acceptance gate: one test per criterion, each printing a pass/fail line
with the measured quantity (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here, not deferred: exact bound constants where the
bounds carry them, calibrated-on-holdout constants where they do not.
"""

import math

import numpy as np

from fidest import (
    DensityOperator,
    PipelineParams,
    QaeParams,
    SqrtParams,
    build_sqrt_unitary,
    estimate_fidelity,
    expm_i,
    fidelity_exact,
    ideal_sqrt_state,
    operator_norm,
    partial_trace,
    purify,
    random_density,
    trace_distance,
)
from fidest.cli import main as cli_main
from fidest.verify import (
    ideal_bound_grid,
    pe_coefficient_deviations,
    qae_exact_worst_excess,
    qae_sample_success,
    weyl_worst_ratio,
)

SUCCESS_FLOOR = 8 / np.pi**2 - 0.03


def _finish(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _prep(rho):
    return purify(rho, max(1, math.ceil(math.log2(max(rho.rank, 2)))))


def test_criterion_01_oracle_correctness():
    z0 = DensityOperator(np.diag([1.0, 0.0]))
    z1 = DensityOperator(np.diag([0.0, 1.0]))
    half = DensityOperator(np.eye(2) / 2)
    closed = max(
        abs(fidelity_exact(random_density(2, 3, seed=1), random_density(2, 3, seed=1)) - 1.0),
        fidelity_exact(z0, z1),
        abs(fidelity_exact(z0, half) - 1 / np.sqrt(2)),
    )
    worst_fvg = -np.inf
    for s in range(200):
        n = 1 + s % 3
        a = random_density(n, 1 + s % (1 << n), seed=10_000 + s)
        b = random_density(n, 1 + (s + 1) % (1 << n), seed=20_000 + s)
        f, d = fidelity_exact(a, b), trace_distance(a, b)
        worst_fvg = max(worst_fvg, d - math.sqrt(max(0.0, 1 - f * f)))
    ok = closed <= 1e-9 and worst_fvg <= 1e-9
    _finish(1, "oracle correctness", ok,
            f"closed-form dev {closed:.2e} (tol 1e-9), "
            f"max D - sqrt(1-F^2) = {worst_fvg:.2e} over 200 pairs (tol 1e-9)")


def test_criterion_02_ideal_block_encoding_bound():
    # unscaled form: ||block - sqrt(A)/(4 sqrt(kappa))|| <= 1/(4 kappa),
    # i.e. the 4*kappa-scaled block error never exceeds 1 (+1e-9 slack only)
    worst = ideal_bound_grid(seed=3, trials=32)
    ok = worst <= 1.0 + 1e-9
    _finish(2, "ideal block-encoding bound", ok,
            f"max 4k*||block - sqrt(A)/(4 sqrt k)|| = {worst:.4f} over "
            f"random A (n<=3, rank 1-4) x kappa in {{1,4,16,64}} (must be <= 1)")


def test_criterion_03_pe_coefficients():
    dev, unit, tail = pe_coefficient_deviations(seed=5, lams_per_T=100)
    ok = dev <= 1e-10 and unit <= 1e-10 and tail <= 1e-12
    _finish(3, "phase-estimation coefficients", ok,
            f"closed-vs-DFT {dev:.2e} (tol 1e-10), unit-mass dev {unit:.2e} "
            f"(tol 1e-10), tail-bound excess {tail:.2e}")


def test_criterion_04_lipschitz_bound():
    rng = np.random.default_rng(6)
    worst_ratio = 0.0
    for kappa in (2.0, 8.0, 32.0):
        from fidest import filter_f

        l1, l2 = rng.uniform(0, 1, 10_000), rng.uniform(0, 1, 10_000)
        f1, f2 = filter_f(l1, kappa), filter_f(l2, kappa)
        dh = np.hypot(f1 - f2, np.sqrt(1 - f1**2) - np.sqrt(1 - f2**2))
        allowed = (np.pi / np.sqrt(3.0)) * kappa * np.abs(l1 - l2) * (1 + 1e-6)
        mask = allowed > 0
        worst_ratio = max(worst_ratio, float(np.max(dh[mask] / allowed[mask])))
    ok = worst_ratio <= 1.0
    _finish(4, "flag-state Lipschitz bound", ok,
            f"max quotient / ((pi/sqrt3) kappa (1+1e-6)) = {worst_ratio:.4f} "
            f"over 1e4 pairs x kappa in {{2,8,32}}")


def test_criterion_05_circuit_vs_ideal_convergence(with_pe):
    # fixed pure 1-qubit instance (rank 1), kappa = 8
    rho = random_density(1, 1, seed=7)
    p = purify(rho, 1).split_system(("system", 1), ("encoding", 0))
    ts = (8, 16, 32, 64, 128, 256)
    dists, transfer_ok = [], True
    for t in ts:
        params = SqrtParams(kappa=8.0, t=t)
        out = build_sqrt_unitary(p, 0, params)
        v = with_pe(ideal_sqrt_state(p, 0, params))
        d = float(np.linalg.norm(out.state - v))
        kept = ["system", "encoding", "pe", "flag"]
        ideal_traced = partial_trace(np.outer(v, v.conj()), out.layout, kept)
        transfer_ok &= operator_norm(out.encoding.carrier - ideal_traced) <= d + 1e-9
        dists.append(d)
    slope = float(np.polyfit(np.log(ts), np.log(dists), 1)[0])
    mono = bool(np.all(np.diff(dists) <= 1e-12))
    ok = mono and slope <= -0.8 and transfer_ok
    _finish(5, "circuit-vs-ideal convergence", ok,
            f"distances {['%.4f' % d for d in dists]}, nonincreasing={mono}, "
            f"log-log slope {slope:.3f} (<= -0.8), operator-norm transfer "
            f"holds at every point: {transfer_ok}")


def test_criterion_06_qae_bound():
    excess = qae_exact_worst_excess(grid=10_000)
    success = qae_sample_success(x=0.5, M=64, trials=1000, seed=8)
    ok = excess <= 1e-12 and success >= SUCCESS_FLOOR
    _finish(6, "amplitude-estimation bound", ok,
            f"exact-mode worst excess {excess:.2e} over 1e4 grid x M in "
            f"{{8..1024}}, sample success {success:.3f} "
            f"(floor {SUCCESS_FLOOR:.3f}, 1000 trials at x=0.5, M=64)")


def test_criterion_07_weyl_trace_bound():
    worst = weyl_worst_ratio(seed=9, trials=500)
    ok = worst <= 1.0
    _finish(7, "Weyl trace perturbation bound", ok,
            f"max |tr sqrt difference| / (r sqrt(3||J||)) = {worst:.4f} over "
            f"500 random rank-<=r pairs, dims <= 16")


def _instance_pair(idx, base):
    """n in {1,2}, ranks <= 2; every third pair is identical or near-identical
    so fidelities near 1 are represented in calibration."""
    n = 1 + idx % 2
    rank = 1 + (idx // 2) % 2
    rho = random_density(n, rank, seed=base + idx)
    kind = idx % 3
    if kind == 0:
        sigma = random_density(n, 1 + idx % 2, seed=base + 100_000 + idx)
    elif kind == 1:
        sigma = rho
    else:
        rng = np.random.default_rng(base + 200_000 + idx)
        h = rng.standard_normal((rho.dim, rho.dim)) + 1j * rng.standard_normal((rho.dim, rho.dim))
        h = (h + h.conj().T) / 2
        h /= np.linalg.norm(h, 2)
        u = expm_i(h, 0.15)
        sigma = DensityOperator(u @ rho.matrix @ u.conj().T)
    return _prep(rho), _prep(sigma)


LEVELS = [(16.0, 256), (64.0, 4096)]


def _run_level(pair, level, bound_constant):
    k, t = level
    params = PipelineParams(
        kappa_sigma=k, t_sigma=t, kappa=k, t=t,
        qae=QaeParams(M=1024, mode="exact"),
        sim_level="ideal-spectral", bound_constant=bound_constant,
    )
    return estimate_fidelity(pair[0], pair[1], params, seed=0)


def test_criterion_08_end_to_end_soundness():
    # calibrate the Theta constant on 20 training instances, then hold out 50
    ratios = []
    for idx in range(20):
        pair = _instance_pair(idx, base=3000)
        for level in LEVELS:
            rep = _run_level(pair, level, 1.0)
            ratios.append(rep.abs_error / rep.analytic_bound)
    bound_constant = 1.25 * max(ratios)

    violations = 0
    errors = {level: [] for level in LEVELS}
    for idx in range(50):
        pair = _instance_pair(idx, base=4000)
        for level in LEVELS:
            rep = _run_level(pair, level, bound_constant)
            errors[level].append(rep.abs_error)
            if rep.abs_error > rep.analytic_bound:
                violations += 1
    med_lo = float(np.median(errors[LEVELS[0]]))
    med_hi = float(np.median(errors[LEVELS[1]]))
    # "decreases" in the nonincreasing sense of the module invariant: at
    # kappa_sigma = kappa the whole block spectrum sits below the filter
    # cutoff 1/(2 kappa), the estimator is exactly 0 at both levels, and the
    # per-instance errors coincide (see the decisions ledger)
    ok = violations == 0 and med_hi <= med_lo + 1e-12
    _finish(8, "end-to-end soundness", ok,
            f"calibrated C = {bound_constant:.4f} on 20 instances; "
            f"{violations}/100 holdout violations; median abs_error "
            f"{med_lo:.4f} -> {med_hi:.4f} across (kappa, t) levels")


def test_criterion_09_query_accounting():
    rho, sigma = random_density(1, 1, seed=60), random_density(1, 2, seed=61)
    ts_values = [256, 512, 1024, 2048, 4096, 8192]
    counts = []
    for ts in ts_values:
        params = PipelineParams(
            kappa_sigma=4.0, t_sigma=ts, kappa=16.0, t=256,
            qae=QaeParams(M=64), sim_level="ideal-spectral",
        )
        rep = estimate_fidelity(_prep(rho), _prep(sigma), params, seed=0)
        counts.append(rep.queries_o_sigma)
    slope = float(np.polyfit(np.log(ts_values), np.log(counts), 1)[0])
    ok = 0.8 <= slope <= 1.2
    _finish(9, "query accounting", ok,
            f"O_sigma counts {counts} over dyadic t_sigma sweep, "
            f"log-log slope {slope:.3f} (must be in [0.8, 1.2])")


def test_criterion_10_sweep_determinism(tmp_path, capsys):
    argv = [
        "sweep", "--n", "1", "--rank-rho", "1", "--rank-sigma", "2", "--seed", "5",
        "--trials", "3", "--kappa-sigma-list", "4,16", "--t-sigma-list", "1024",
        "--kappa-list", "64", "--t-list", "65536", "--qae-m-list", "256",
        "--sim-level", "ideal-spectral",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(argv + ["--output", str(a)]) == 0
    assert cli_main(argv + ["--output", str(b), "--jobs", "2"]) == 0
    capsys.readouterr()
    ok = a.read_bytes() == b.read_bytes()
    _finish(10, "sweep determinism", ok,
            f"byte-identical CSV across repeated runs (and a parallel run): {ok}")

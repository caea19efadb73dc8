import dataclasses
import json
import math

import numpy as np
import pytest

from fidest import (
    DensityOperator,
    PipelineParams,
    QaeParams,
    build_eta,
    build_w_sigma,
    estimate_fidelity,
    filter_f,
    operator_norm,
    purify,
    random_density,
    select_params,
    sqrtm_psd,
    unitarity_defect,
    weyl_trace_bound_check,
)
from fidest.errors import InfeasibleParamsError
from fidest.pipeline import CIRCUIT_T_CEILING, IDEAL_T_CEILING, analytic_error_bound

Z0 = DensityOperator(np.diag([1.0, 0.0]))
Z1 = DensityOperator(np.diag([0.0, 1.0]))
HALF = DensityOperator(np.eye(2) / 2)


def ideal_params(ks=16.0, ts=256, k=16.0, t=256, M=1024, C=1.0):
    return PipelineParams(
        kappa_sigma=ks, t_sigma=ts, kappa=k, t=t,
        qae=QaeParams(M=M), sim_level="ideal-spectral", bound_constant=C,
    )


@pytest.mark.parametrize("sigma,name", [(Z0, "pure"), (HALF, "mixed")])
def test_w_sigma_block_approximates_scaled_sqrt(prep, sigma, name):
    for ks in (4.0, 16.0):
        params = ideal_params(ks=ks)
        w = build_w_sigma(prep(sigma), params)
        target = sqrtm_psd(sigma.matrix) / (4 * math.sqrt(ks))
        # perfect-phase-estimation block sits within 1/(4 kappa) of the target
        assert operator_norm(w.encoding.block() - target) <= 1 / (4 * ks) + 1e-9
        assert unitarity_defect(w.encoding.carrier) <= 1e-9
        assert w.encoding.spec.epsilon <= 1.0 * (ks**-0.5 + ks**1.5 / params.t_sigma)


def test_w_sigma_circuit_level_meets_theta_bound(prep):
    params = PipelineParams(
        kappa_sigma=4.0, t_sigma=8, kappa=16.0, t=256,
        qae=QaeParams(M=64), sim_level="circuit-pe",
    )
    sigma = random_density(1, 2, seed=3)
    w = build_w_sigma(prep(sigma), params)
    assert w.sim_level == "circuit-pe"
    assert unitarity_defect(w.encoding.carrier) <= 1e-9
    assert w.encoding.spec.epsilon <= 1.0 * (4.0**-0.5 + 4.0**1.5 / 8)


@pytest.mark.parametrize("perturbation,level", [(0.0, "circuit-pe"), (0.05, "circuit-pe-perturbed")])
def test_w_sigma_level_labels(perturbation, level):
    # pure sigma purified without ancillas: a 10-qubit circuit W
    params = PipelineParams(
        kappa_sigma=4.0, t_sigma=8, kappa=16.0, t=256,
        qae=QaeParams(M=64), sim_level="circuit-pe", perturbation=perturbation,
    )
    assert build_w_sigma(purify(Z0, 0), params).sim_level == level
    deep = dataclasses.replace(params, t_sigma=1 << 10)
    assert build_w_sigma(purify(Z0, 0), deep).sim_level == "ideal-spectral"


def test_ideal_w_sigma_block_on_diagonal_sigma(prep):
    # sigma = sum lambda P_lambda: the block of W over its ancillas is
    # sum lambda f(lambda)^2 P_lambda, one eigenvalue on the filter's ramp
    lam = np.array([0.6, 0.3, 0.05, 0.05])
    p = prep(DensityOperator(np.diag(lam)))
    w = build_w_sigma(p, ideal_params(ks=16.0))
    assert w.encoding.layout.total_qubits == 2 * (2 + 1) + p.garbage_qubits
    expected = np.diag(lam * filter_f(lam, 16.0) ** 2)
    assert operator_norm(w.encoding.block() - expected) <= 1e-12


def test_w_sigma_falls_back_when_circuit_too_large(prep):
    params = PipelineParams(
        kappa_sigma=4.0, t_sigma=1 << 10, kappa=16.0, t=256,
        qae=QaeParams(M=64), sim_level="circuit-pe",
    )
    w = build_w_sigma(prep(random_density(1, 2, seed=3)), params)
    assert w.sim_level == "ideal-spectral"


def test_eta_equal_pure_states(prep):
    params = ideal_params(ks=16.0)
    w = build_w_sigma(prep(Z0), params)
    eta = build_eta(prep(Z0), w.encoding)
    ref = Z0.matrix / (16 * 16.0)
    bound = 16.0**-1.5 + 16.0**0.5 / 256 + 16.0**2 / 256**2
    assert operator_norm(eta.block - ref) <= bound
    assert abs(np.trace(eta.purification.traced_state().matrix).real - 1) <= 1e-9


def test_eta_orthogonal_pure_states(prep):
    params = ideal_params(ks=16.0)
    w = build_w_sigma(prep(Z1), params)
    eta = build_eta(prep(Z0), w.encoding)
    bound = 16.0**-1.5 + 16.0**0.5 / 256 + 16.0**2 / 256**2
    assert operator_norm(eta.block) <= bound


@pytest.mark.parametrize("ks", [4.0, 16.0, 64.0])
def test_eta_block_error_scaling(prep, ks):
    rho = random_density(1, 2, seed=21)
    sigma = random_density(1, 2, seed=22)
    params = ideal_params(ks=ks, ts=4096)
    w = build_w_sigma(prep(sigma), params)
    eta = build_eta(prep(rho), w.encoding)
    bound = ks**-1.5 + ks**0.5 / 4096 + ks**2 / 4096**2
    assert eta.block_error <= 1.0 * bound
    # the block equals (block of W) rho (block of W) exactly, by construction
    b = w.encoding.block()
    assert operator_norm(eta.block - b @ rho.matrix @ b) <= 1e-12


def test_estimate_self_fidelity_within_bound(prep):
    rho = random_density(1, 1, seed=31)
    rep = estimate_fidelity(prep(rho), prep(rho), ideal_params(), seed=0)
    assert abs(rep.exact_fidelity - 1.0) <= 1e-9
    assert rep.abs_error <= rep.analytic_bound


def test_estimate_orthogonal_states(prep):
    rep = estimate_fidelity(prep(Z0), prep(Z1), ideal_params(), seed=0)
    assert rep.exact_fidelity <= 1e-9
    assert rep.abs_error <= rep.analytic_bound


def test_estimate_pure_vs_mixed_closed_form(prep):
    rep = estimate_fidelity(prep(Z0), prep(HALF), ideal_params(), seed=0)
    assert abs(rep.exact_fidelity - 1 / np.sqrt(2)) <= 1e-9
    assert rep.abs_error <= rep.analytic_bound


def test_estimate_is_accurate_outside_the_cutoff_regime(prep):
    # kappa >> kappa_sigma lets the filter pass the block spectrum
    rho = random_density(1, 2, seed=41)
    sigma = random_density(1, 2, seed=40)
    params = ideal_params(ks=4.0, ts=1 << 20, k=512.0, t=1 << 22, M=1 << 15)
    rep = estimate_fidelity(prep(rho), prep(sigma), params, seed=0)
    assert rep.abs_error <= 0.3
    assert rep.abs_error <= rep.analytic_bound


def test_error_monotone_under_joint_doubling(prep):
    rho = random_density(1, 2, seed=41)
    sigma = random_density(1, 2, seed=40)
    errs = []
    for k, t in [(64.0, 1 << 16), (128.0, 1 << 18), (256.0, 1 << 20), (512.0, 1 << 22)]:
        params = ideal_params(ks=4.0, ts=1 << 20, k=k, t=t, M=1 << 15)
        errs.append(estimate_fidelity(prep(rho), prep(sigma), params, seed=0).abs_error)
    assert all(np.diff(errs) <= 1e-12)


def test_amplitude_stays_below_derived_cap(prep):
    for seed in range(4):
        rho = random_density(1, 1 + seed % 2, seed=800 + seed)
        sigma = random_density(1, 2, seed=900 + seed)
        params = ideal_params(ks=4.0, k=64.0, t=4096)
        rep = estimate_fidelity(prep(rho), prep(sigma), params, seed=seed)
        r = rep.rank_r
        cap = r * (1 / math.sqrt(64.0 * 4.0) + r / 64.0 + 64.0 / 4096)
        assert rep.x <= cap + 1e-12


def test_swap_symmetry_at_equal_ranks(prep):
    a = random_density(1, 2, seed=50)
    b = random_density(1, 2, seed=51)
    rep_ab = estimate_fidelity(prep(a), prep(b), ideal_params(), seed=5)
    rep_ba = estimate_fidelity(prep(b), prep(a), ideal_params(), seed=5)
    da, db = rep_ab.to_dict(), rep_ba.to_dict()
    da.pop("swapped")
    db.pop("swapped")
    assert da == db


def test_report_round_trips_through_json(prep):
    rep = estimate_fidelity(prep(Z0), prep(HALF), ideal_params(), seed=0)
    data = json.loads(rep.to_json())
    assert data["exact_fidelity"] == rep.exact_fidelity
    assert list(data) == list(rep.to_dict())


def test_select_params_paper_example():
    p = select_params(1, 0.5, mode="paper")
    assert (p.kappa_sigma, p.t_sigma, p.kappa, p.t) == (16.0, 256, 64.0, 4096)
    assert p.qae.M == 16  # ceil(r^2.5/eps^3.5) = 12, rounded up to a power of two


def test_select_params_infeasible():
    with pytest.raises(InfeasibleParamsError):
        select_params(2, 0.1, mode="paper", sim_level="circuit-pe")
    with pytest.raises(InfeasibleParamsError):
        select_params(2, 0.1, mode="paper", sim_level="ideal-spectral")


def test_select_params_practical_within_ceiling():
    for r, eps in [(1, 0.5), (2, 0.3), (4, 0.1)]:
        p = select_params(r, eps, mode="practical", sim_level="ideal-spectral")
        assert p.t <= IDEAL_T_CEILING and p.t_sigma <= IDEAL_T_CEILING
        p = select_params(r, eps, mode="practical", sim_level="circuit-pe")
        assert p.t <= CIRCUIT_T_CEILING and p.t_sigma <= CIRCUIT_T_CEILING


def test_select_params_validation():
    with pytest.raises(ValueError):
        select_params(1, 1.5)
    with pytest.raises(ValueError):
        select_params(0, 0.5)
    with pytest.raises(ValueError):
        select_params(1, 0.5, mode="bogus")


def test_query_counts_scale_linearly_in_t_sigma(prep):
    rho, sigma = random_density(1, 1, seed=60), random_density(1, 2, seed=61)
    ts_values = [256, 512, 1024, 2048, 4096, 8192]
    counts = []
    for ts in ts_values:
        params = ideal_params(ks=4.0, ts=ts)
        rep = estimate_fidelity(prep(rho), prep(sigma), params, seed=0)
        counts.append(rep.queries_o_sigma)
    slope = np.polyfit(np.log(ts_values), np.log(counts), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_weyl_zero_perturbation():
    tgt = np.diag([0.5, 0.3, 0.0, 0.0]).astype(complex)
    chk = weyl_trace_bound_check(tgt, tgt, 2)
    assert chk.difference <= 1e-12 and chk.bound == 0.0


def test_weyl_spec_example():
    tgt = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    rng = np.random.default_rng(0)
    j = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    j = (j + j.conj().T) / 2
    j *= 1e-4 / operator_norm(j)
    chk = weyl_trace_bound_check(tgt + j, tgt, 2)
    assert chk.difference <= 2 * math.sqrt(3e-4)


def test_weyl_rank_one_uses_r_one():
    tgt = np.diag([0.7, 0.0]).astype(complex)
    pert = np.diag([0.7005, 0.0]).astype(complex)
    chk = weyl_trace_bound_check(pert, tgt, 1)
    assert chk.difference <= chk.bound


def test_weyl_detects_violation_outside_hypotheses():
    # rank-1 target, but the perturbation creates three new sqrt-scale branches
    tgt = np.diag([0.5, 0.0, 0.0, 0.0]).astype(complex)
    pert = np.diag([0.5, 1e-4, 1e-4, 1e-4]).astype(complex)
    with pytest.raises(ValueError):
        weyl_trace_bound_check(pert, tgt, 1)


def test_analytic_bound_formula():
    params = ideal_params(ks=16.0, ts=256, k=64.0, t=4096, M=1024, C=2.0)
    x, r = 0.01, 2
    delta = 2 * np.pi * np.sqrt(x * (1 - x)) / 1024 + np.pi**2 / 1024**2
    expected = 2.0 * (
        math.sqrt(64.0 * 16.0) * (delta + r / 64.0 + 64.0 / 4096)
        + r * math.sqrt(16.0**-0.5 + 16.0**1.5 / 256)
    )
    assert abs(analytic_error_bound(params, x, r) - expected) <= 1e-12


def test_report_records_stage_levels(prep):
    # ideal W (t_sigma too big for the budget) and circuit eta stage
    params = PipelineParams(
        kappa_sigma=2.0, t_sigma=1 << 18, kappa=4.0, t=12,
        qae=QaeParams(M=256), sim_level="circuit-pe",
    )
    rho, sigma = random_density(1, 1, seed=21), random_density(1, 2, seed=40)
    rep = estimate_fidelity(prep(rho), prep(sigma), params, seed=1)
    assert rep.sim_level_sigma == "ideal-spectral"
    assert rep.sim_level_eta == "circuit-pe"
    assert rep.abs_error <= rep.analytic_bound

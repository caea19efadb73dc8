import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from fidest import (
    DensityOperator,
    PipelineParams,
    Purification,
    QaeParams,
    SqrtParams,
    ancilla_qubits_for,
    build_eta,
    build_sqrt_unitary,
    build_w_sigma,
    estimate_fidelity,
    filter_f,
    operator_norm,
    purification_to_unitary_be,
    purify,
    random_density,
    select_params,
    sqrtm_psd,
    unitarity_defect,
)
import fidest.pipeline as pipeline_module
from circuit_oracles import (dense_circuit, ideal_output, perturbed_circuit_on_whole_factor,
                             w_columns)
from fidest.errors import DimensionMismatchError, InfeasibleParamsError, RegisterTooLargeError
from fidest.pipeline import (
    CIRCUIT_T_CEILING,
    IDEAL_T_CEILING,
    SIM_LEVELS,
    _role_order,
    analytic_error_bound,
)
from fidest.registers import stage_levels
from fidest.verify import weyl_trace_bound_check

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
        w = build_w_sigma(prep(sigma), params, circuit=False)
        target = sqrtm_psd(sigma.matrix) / (4 * math.sqrt(ks))
        # perfect-phase-estimation block sits within 1/(4 kappa) of the target
        assert operator_norm(w.block - target) <= 1 / (4 * ks) + 1e-9
        out = build_sqrt_unitary(prep(sigma).factor, params.sigma, circuit=False)
        assert unitarity_defect(w_columns(out, 1)) <= 1e-9
        assert w.w_sigma_error <= 1.0 * (ks**-0.5 + ks**1.5 / params.t_sigma)


def test_w_sigma_circuit_level_meets_theta_bound(prep):
    params = PipelineParams(
        kappa_sigma=4.0, t_sigma=8, kappa=16.0, t=256,
        qae=QaeParams(M=64), sim_level="circuit-pe",
    )
    sigma = random_density(1, 2, seed=3)
    w = build_w_sigma(prep(sigma), params, circuit=True)
    assert w.sim_level == "circuit-pe"
    out = build_sqrt_unitary(prep(sigma).factor, params.sigma)
    assert unitarity_defect(w_columns(out, 1)) <= 1e-9
    assert w.w_sigma_error <= 1.0 * (4.0**-0.5 + 4.0**1.5 / 8)


@pytest.mark.parametrize("perturbation,level", [(0.0, "circuit-pe"), (0.05, "circuit-pe-perturbed")])
def test_w_sigma_level_labels(perturbation, level):
    # pure sigma purified without ancillas: a 10-qubit circuit W
    params = PipelineParams(
        kappa_sigma=4.0, t_sigma=8, kappa=16.0, t=256,
        qae=QaeParams(M=64), sim_level="circuit-pe", perturbation=perturbation,
    )
    assert stage_levels(1, 0, 0, params)[0]
    assert build_w_sigma(purify(Z0, 0), params, circuit=True).sim_level == level
    deep = dataclasses.replace(params, t_sigma=1 << 10)
    assert not stage_levels(1, 0, 0, deep)[0]
    assert build_w_sigma(purify(Z0, 0), deep, circuit=False).sim_level == "ideal-spectral"


def test_ideal_w_sigma_block_on_diagonal_sigma(prep):
    # sigma = sum lambda P_lambda: the block of W over its ancillas is
    # sum lambda f(lambda)^2 P_lambda, one eigenvalue on the filter's ramp
    lam = np.array([0.6, 0.3, 0.05, 0.05])
    p = prep(DensityOperator(np.diag(lam)))
    w = build_w_sigma(p, ideal_params(ks=16.0), circuit=False)
    assert w.block.shape == (1 << 2, 1 << 2)
    expected = np.diag(lam * filter_f(lam, 16.0) ** 2)
    assert operator_norm(w.block - expected) <= 1e-12


@pytest.mark.parametrize("level,perturbation,label", [
    ("ideal-spectral", 0.0, "ideal-spectral"),
    ("circuit-pe", 0.0, "circuit-pe"),
    ("circuit-pe", 0.05, "circuit-pe-perturbed"),
])
def test_w_sigma_block_is_its_extraction_block(prep, level, perturbation, label):
    # W's block over all its ancillas is the block of the extraction output
    # W is built from, and W's columns on that output are orthonormal
    params = PipelineParams(
        kappa_sigma=4.0, t_sigma=8, kappa=16.0, t=256,
        qae=QaeParams(M=64), sim_level=level, perturbation=perturbation,
    )
    sigma_prep = prep(random_density(1, 2, seed=3))
    circuit = level == "circuit-pe"
    out = build_sqrt_unitary(sigma_prep.factor, params.sigma, circuit, seed=0)
    w = build_w_sigma(sigma_prep, params, circuit, seed=0)
    assert w.sim_level == label
    np.testing.assert_allclose(w.block, out.block(), rtol=0, atol=1e-12)  # shapes too
    factor = out.state.reshape(-1, out.state.shape[-1])  # [system and ancillas, garbage]
    columns, _ = purification_to_unitary_be(Purification(factor))
    assert unitarity_defect(columns) <= 1e-12


def test_w_sigma_falls_back_when_circuit_too_large(prep):
    params = PipelineParams(
        kappa_sigma=4.0, t_sigma=1 << 10, kappa=16.0, t=256,
        qae=QaeParams(M=64), sim_level="circuit-pe",
    )
    # sigma on one system and one garbage qubit, rho without garbage
    w_circuit, _ = stage_levels(1, 0, 1, params)
    assert not w_circuit
    assert build_w_sigma(prep(random_density(1, 2, seed=3)), params, w_circuit).sim_level == (
        "ideal-spectral")


def test_eta_equal_pure_states(prep):
    params = ideal_params(ks=16.0)
    w = build_w_sigma(prep(Z0), params, circuit=False)
    eta = build_eta(prep(Z0), w)
    ref = Z0.matrix / (16 * 16.0)
    bound = 16.0**-1.5 + 16.0**0.5 / 256 + 16.0**2 / 256**2
    assert operator_norm(eta.block - ref) <= bound
    # eta's whole factor, W's columns times rho's factor, is a unit-trace state
    out = build_sqrt_unitary(prep(Z0).factor, params.sigma, circuit=False)
    columns = w_columns(out, 1)
    eta_prep = Purification(columns @ prep(Z0).factor)
    assert abs(np.trace(eta_prep.traced_matrix()).real - 1) <= 1e-9


def test_eta_orthogonal_pure_states(prep):
    params = ideal_params(ks=16.0)
    w = build_w_sigma(prep(Z1), params, circuit=False)
    eta = build_eta(prep(Z0), w)
    bound = 16.0**-1.5 + 16.0**0.5 / 256 + 16.0**2 / 256**2
    assert operator_norm(eta.block) <= bound


@pytest.mark.parametrize("ks", [4.0, 16.0, 64.0])
def test_eta_block_error_scaling(prep, ks):
    rho = random_density(1, 2, seed=21)
    sigma = random_density(1, 2, seed=22)
    params = ideal_params(ks=ks, ts=4096)
    w = build_w_sigma(prep(sigma), params, circuit=False)
    eta = build_eta(prep(rho), w)
    bound = ks**-1.5 + ks**0.5 / 4096 + ks**2 / 4096**2
    assert eta.block_error <= 1.0 * bound
    # the block equals (block of W) rho (block of W) exactly, by construction
    b = w.block
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


def _random_factor(rng, n, rank):
    g = rng.standard_normal((1 << n, rank)) + 1j * rng.standard_normal((1 << n, rank))
    return g / np.linalg.norm(g)


def test_equal_rank_role_order_ignores_phase_and_garbage_order(prep):
    # 50 equal-rank pairs, each purified 20 more times with a unit phase and
    # its garbage columns permuted: the same two states keep one role order
    rng = np.random.default_rng(77)
    for trial in range(50):
        n = 1 + trial % 3
        rank = 1 + trial % min(4, 1 << n)
        pair = [prep(random_density(n, rank, seed=1000 * trial + k)) for k in (1, 2)]
        swapped = _role_order(*pair)[-1]
        for _ in range(20):
            moved = [
                Purification(p.factor[:, rng.permutation(p.factor.shape[1])]
                             * np.exp(2j * np.pi * rng.uniform()))
                for p in pair
            ]
            assert _role_order(*moved)[-1] == swapped


@pytest.mark.parametrize("n", [1, 2, 3])
def test_report_fidelity_is_uhlmann_on_the_factors(n):
    # ||A^dagger B||_1 for the factors A, B the two states are built from
    rng = np.random.default_rng(n)
    for rank_a in range(1, (1 << n) + 1):
        for rank_b in range(1, (1 << n) + 1):
            a, b = _random_factor(rng, n, rank_a), _random_factor(rng, n, rank_b)
            rho, sigma = DensityOperator(a @ a.conj().T), DensityOperator(b @ b.conj().T)
            rep = estimate_fidelity(purify(rho, n), purify(sigma, n), ideal_params(), seed=0)
            uhlmann = np.linalg.svd(a.conj().T @ b, compute_uv=False).sum()
            assert abs(rep.exact_fidelity - uhlmann) <= 1e-12


def test_report_round_trips_through_json(prep):
    rep = estimate_fidelity(prep(Z0), prep(HALF), ideal_params(), seed=0)
    data = json.loads(rep.to_json())
    assert data["exact_fidelity"] == rep.exact_fidelity
    assert list(data) == list(rep.to_dict())


def test_report_to_dict_is_a_lean_copy_of_asdict(prep):
    """to_dict is asdict's result in field order, a copy of the report's
    fields, and small: a report dict kept per call costs at most 400 bytes."""
    rep = estimate_fidelity(prep(Z0), prep(HALF), ideal_params(), seed=0)
    data = rep.to_dict()
    assert data == dataclasses.asdict(rep)
    assert list(data) == [f.name for f in dataclasses.fields(rep)]
    data["estimate"] = -1.0
    del data["x"]
    assert rep.to_dict() == dataclasses.asdict(rep) and rep.estimate != -1.0
    rep.to_dict()  # first-call allocations
    tracemalloc.start()
    try:
        kept = [rep.to_dict() for _ in range(1000)]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(kept) == 1000 and size <= 400 * 1000


@pytest.mark.parametrize("params", [
    ideal_params(),
    PipelineParams(kappa_sigma=2.0, t_sigma=8, kappa=4.0, t=12, qae=QaeParams(M=256),
                   sim_level="circuit-pe"),
    select_params(r=1, eps=0.3, mode="practical", qae_mode="sample"),
])
def test_report_floats_are_python_floats(prep, params):
    rep = estimate_fidelity(prep(random_density(1, 1, seed=21)),
                            prep(random_density(1, 2, seed=40)), params, seed=1)
    floats = [f.name for f in dataclasses.fields(rep) if f.type == "float"]
    assert {"delta", "delta_from_estimate", "analytic_bound", "x"} <= set(floats)
    for name in floats:
        assert type(getattr(rep, name)) is float, name


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


@pytest.mark.parametrize("level, ceiling", [
    ("ideal-spectral", IDEAL_T_CEILING), ("circuit-pe", CIRCUIT_T_CEILING),
])
def test_select_params_raises_no_arithmetic_error_for_any_eps(level, ceiling):
    # the paper laws overflowed (r^11 / eps^12 divided by an underflowed 0 at
    # eps 1e-30) and the practical ones too ((3 sqrt(2) r / eps)^4 at eps 1e-80)
    tiny = [5e-324, 1e-300, 1e-160, 1e-80, 1e-30, 1e-12, float(np.nextafter(1.0, 0.0))]
    for eps in tiny + np.logspace(-320, -0.01, 60).tolist():
        for r in (1, 2, 3, 1 << 10):
            try:
                select_params(r, eps, mode="paper", sim_level=level)
            except InfeasibleParamsError as exc:
                assert "nan" not in str(exc)
            p = select_params(r, eps, mode="practical", sim_level=level)
            assert p.kappa_sigma <= ceiling and p.kappa <= ceiling
            assert p.t <= ceiling and p.t_sigma <= ceiling and p.qae.M <= 1 << 26
    # the caps bind at every knob once eps is small enough
    p = select_params(1, 5e-324, mode="practical", sim_level=level)
    assert (p.kappa_sigma, p.t_sigma, p.kappa, p.t, p.qae.M) == (
        float(ceiling), ceiling, float(ceiling), ceiling, 1 << 26)


@pytest.mark.parametrize("knobs", [
    {"kappa_sigma": 1e250, "kappa": 1.0},  # kappa_sigma^1.5 overflows the bound
    {"kappa_sigma": 1e200, "kappa": 1e200},  # the scale overflows
    {"kappa_sigma": 1e10, "bound_constant": 1e308},  # the bound overflows
    {"kappa_sigma": 1e250, "kappa": 1.0, "bound_constant": 0.0},  # 0 times inf
])
def test_pipeline_params_refuse_a_knob_set_that_overflows_a_float(knobs):
    with pytest.raises(ValueError, match="overflow the scale or bound"):
        dataclasses.replace(ideal_params(), **knobs)
    # large knobs whose scale and bound are floats still construct
    big = dataclasses.replace(ideal_params(), kappa_sigma=1e100, kappa=1e100)
    assert math.isfinite(analytic_error_bound(big, 0.5, 1)) and math.isclose(big.scale, 16e100)


def test_estimate_refuses_a_bound_that_overflows_at_its_rank(prep):
    # finite at rank 1, so the record constructs; a rank-3 pair overflows it
    params = dataclasses.replace(ideal_params(), kappa=1.0, kappa_sigma=1.0, t=1 << 20,
                                 t_sigma=1 << 20, bound_constant=7e307)
    assert math.isinf(analytic_error_bound(params, 0.5, 3))
    rho = prep(random_density(2, 3, seed=1))
    with pytest.raises(ValueError, match="analytic bound overflows a float at rank 3"):
        estimate_fidelity(rho, rho, params, seed=0)
    rho = prep(random_density(2, 1, seed=1))
    assert math.isfinite(estimate_fidelity(rho, rho, params, seed=0).analytic_bound)


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


def test_perturbed_sampled_estimates_share_no_random_stream(prep, monkeypatch):
    """Every generator an estimate seeds, named by its seed's entropy and
    spawn key: W's perturbation, eta's perturbation and the sampled QAE draw
    each get their own stream, and consecutive seeds (a sweep's trials)
    share none."""
    params = PipelineParams(
        kappa_sigma=2.0, t_sigma=8, kappa=64.0, t=12, qae=QaeParams(M=256, mode="sample"),
        sim_level="circuit-pe", qubit_budget=17, perturbation=0.05,
    )
    rho, sigma = prep(random_density(1, 1, seed=3)), prep(random_density(1, 2, seed=4))
    default_rng, streams = np.random.default_rng, []

    def recording_rng(seed=None):
        s = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        streams.append((s.entropy, s.spawn_key))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    seeded = {}
    for seed in (5, 6):
        rep = estimate_fidelity(rho, sigma, params, seed=seed)
        assert rep.sim_level_sigma == rep.sim_level_eta == "circuit-pe-perturbed"
        seeded[seed], streams[:] = list(streams), []
    assert [len(set(s)) for s in seeded.values()] == [3, 3]
    assert not set(seeded[5]) & set(seeded[6])
    assert (5, ()) in seeded[5] and (6, ()) in seeded[6]  # the QAE draw: default_rng(seed)


def test_eta_rejects_a_w_for_another_system_size(prep):
    w = build_w_sigma(prep(random_density(1, 2, seed=3)), ideal_params(), circuit=False)
    with pytest.raises(ValueError, match="rho prepares 2 qubits, W encodes on 1"):
        build_eta(prep(random_density(2, 2, seed=4)), w)


def test_estimate_refuses_roles_of_different_sizes_before_anything_runs(prep, monkeypatch):
    def unrun(*args, **kwargs):
        raise AssertionError("the roles were ordered")

    monkeypatch.setattr(pipeline_module, "_role_order", unrun)
    one, two = prep(random_density(1, 1, seed=3)), prep(random_density(2, 2, seed=4))
    for rho, sigma, message in [(one, two, "rho prepares 1 qubits, sigma prepares 2"),
                                (two, one, "rho prepares 2 qubits, sigma prepares 1")]:
        with pytest.raises(DimensionMismatchError) as exc:
            estimate_fidelity(rho, sigma, ideal_params(), seed=0)
        assert str(exc.value) == message


def test_negative_bound_constant_raises():
    with pytest.raises(ValueError, match="bound_constant"):
        ideal_params(C=-1.0)
    assert ideal_params(C=0.0).bound_constant == 0.0


def test_unknown_sim_level_raises_at_construction():
    # the level is validated where it is set, not when a stage reads it
    with pytest.raises(ValueError, match="sim_level 'bogus'"):
        dataclasses.replace(ideal_params(), sim_level="bogus")


@pytest.mark.parametrize("knob, value, message", [
    ("kappa_sigma", 0.5, "kappa_sigma must be finite and >= 1, got 0.5"),
    ("t_sigma", 5, "t_sigma must be an integer >= 6, got 5"),
    ("kappa", 0.1, "kappa must be finite and >= 1, got 0.1"),
    ("t", 3, "t must be an integer >= 6, got 3"),
    ("perturbation", -0.1, "perturbation must be finite and >= 0, got -0.1"),
    ("qubit_budget", 0, "qubit_budget must be >= 1, got 0"),
])
def test_bad_knob_raises_at_construction(knob, value, message):
    # each knob is validated where it is set, not when a stage reads it
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(ideal_params(), **{knob: value})


def test_eta_over_budget_names_its_register():
    # an ideal W on one system and one garbage qubit: 2 (1 + 1) + 1 = 5 qubits,
    # and rho's garbage qubit makes eta's register 6
    for budget, message in [(4, "construction needs 5 qubits, budget is 4"),
                            (5, "eta register needs 6 qubits, budget is 5")]:
        with pytest.raises(RegisterTooLargeError) as exc:
            stage_levels(1, 1, 1, dataclasses.replace(ideal_params(), qubit_budget=budget))
        assert str(exc.value) == message
    assert stage_levels(1, 1, 1, dataclasses.replace(ideal_params(), qubit_budget=6)) == (
        False, False)


def _inline_level_rule(n, rho_garbage, sigma_garbage, params):
    """The level rule as the pipeline applied it inline before
    ``stage_levels``: in build_w_sigma, in its extraction and construction,
    in build_eta, then in estimate_fidelity.  Returns both stages' levels,
    or the first refusal's message.  An output's main register is system, pe
    (circuit only) and flag; W is twice that plus sigma's garbage; eta is W
    plus rho's garbage; eta's circuit adds its pe register and flag.  The
    extraction's own check on its circuit is left out: a circuit W fits the
    budget only when that smaller circuit does."""
    budget, circuit = params.qubit_budget, params.sim_level == "circuit-pe"
    ls, l = params.sigma.l, params.eta.l
    w_circuit = circuit and 2 * (n + ls + 1) + sigma_garbage + rho_garbage <= budget
    w = 2 * (n + (ls if w_circuit else 0) + 1) + sigma_garbage
    if w > budget:
        return f"construction needs {w} qubits, budget is {budget}"
    if w + rho_garbage > budget:
        return f"eta register needs {w + rho_garbage} qubits, budget is {budget}"
    return w_circuit, circuit and w + rho_garbage + l + 1 <= budget


def test_stage_levels_are_the_inline_rule():
    """Both levels and every refusal, over n 1-4, garbage 0-3 for each role,
    t_sigma and t in {8, 2^10, 2^20}, budgets 5-22 and both levels."""
    seen = set()
    depths = (8, 1 << 10, 1 << 20)
    for level, t_sigma, t, budget in itertools.product(SIM_LEVELS, depths, depths, range(5, 23)):
        params = dataclasses.replace(ideal_params(), sim_level=level, t_sigma=t_sigma, t=t,
                                     qubit_budget=budget)
        for n, g_rho, g_sigma in itertools.product(range(1, 5), range(4), range(4)):
            try:
                got = stage_levels(n, g_rho, g_sigma, params)
            except RegisterTooLargeError as exc:
                got = str(exc)
            assert got == _inline_level_rule(n, g_rho, g_sigma, params), (level, n, g_rho, g_sigma)
            seen.add(got if isinstance(got, tuple) else got.split(" needs")[0])
    assert seen == {(False, False), (False, True), (True, False), (True, True),
                    "construction", "eta register"}


def test_estimate_refuses_an_unrunnable_pair_before_building(prep, monkeypatch):
    """A pair that no level can run is refused with the register check's
    message before any extraction runs."""
    def unbuilt(*args, **kwargs):
        raise AssertionError("an extraction ran")

    monkeypatch.setattr(pipeline_module, "build_sqrt_unitary", unbuilt)
    pair = [prep(random_density(2, 2, seed=s)) for s in (1, 2)]  # W 2 (2 + 1) + 1 = 7 qubits
    params = dataclasses.replace(ideal_params(), sim_level="circuit-pe", qubit_budget=7)
    with pytest.raises(RegisterTooLargeError, match="^eta register needs 8 qubits, budget is 7$"):
        estimate_fidelity(*pair, params, seed=0)


def test_estimate_refuses_over_budget_calls_with_the_level_rules_messages(monkeypatch):
    """Over n 1-4, garbage 0-3 for each role, t_sigma in {8, 2^10, 2^20},
    budgets 5-22 and both levels, ``estimate_fidelity`` refuses exactly the
    calls the inline level rule refuses, with its message, before either
    builder runs; every other call reaches the extraction."""
    class Built(Exception):
        pass

    def unbuilt(*args, **kwargs):
        raise Built

    monkeypatch.setattr(pipeline_module, "build_sqrt_unitary", unbuilt)
    monkeypatch.setattr(pipeline_module, "purification_to_unitary_be", unbuilt)
    rng = np.random.default_rng(27)
    preps = {}
    for n, garbage in itertools.product(range(1, 5), range(4)):
        g = rng.standard_normal((2, 1 << n, 1 << garbage))
        preps[n, garbage] = Purification((g[0] + 1j * g[1]) / np.linalg.norm(g))
    seen = set()
    for level, t_sigma, budget in itertools.product(SIM_LEVELS, (8, 1 << 10, 1 << 20),
                                                    range(5, 23)):
        params = dataclasses.replace(ideal_params(), sim_level=level, t_sigma=t_sigma,
                                     qubit_budget=budget)
        for n, g_rho, g_sigma in itertools.product(range(1, 5), range(4), range(4)):
            rho, sigma = preps[n, g_rho], preps[n, g_sigma]
            roles = _role_order(rho, sigma)
            want = _inline_level_rule(n, roles[0].garbage_qubits, roles[1].garbage_qubits, params)
            if isinstance(want, tuple):
                with pytest.raises(Built):
                    estimate_fidelity(rho, sigma, params, seed=0)
                continue
            with pytest.raises(RegisterTooLargeError) as exc:
                estimate_fidelity(rho, sigma, params, seed=0)
            assert str(exc.value) == want, (level, budget, n, g_rho, g_sigma)
            seen.add(want.split(" needs")[0])
    assert seen == {"construction", "eta register"}


def _counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call's arguments."""
    calls, inner = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("ancillas, rank_sigma, t_sigma, t, perturbation, sigma_circuits, level", [
    (0, 1, 8, 1 << 16, 0.0, 1, "ideal-spectral"),  # circuit sigma stage; 10-qubit eta falls back
    (1, 2, 1 << 20, 12, 0.0, 0, "circuit-pe"),  # ideal sigma stage, an 11-qubit eta circuit
    (1, 2, 1 << 20, 12, 0.05, 0, "circuit-pe-perturbed"),
])
def test_estimate_builds_circuits_and_densities_only_where_needed(
    monkeypatch, ancillas, rank_sigma, t_sigma, t, perturbation, sigma_circuits, level
):
    """The circuit-pe calls of the benchmark: an unperturbed estimate forms no
    density operator and runs an extraction circuit only for a circuit-level
    sigma stage; a perturbed eta stage still runs its circuit, on eta's rows
    with W's ancillas zero, and forms no purification.  No estimate builds a
    stage's SqrtParams: both are built once, with the PipelineParams."""
    rho_prep = purify(random_density(1, 1, seed=3), ancillas)
    sigma_prep = purify(random_density(1, rank_sigma, seed=4), ancillas)
    params = PipelineParams(
        kappa_sigma=4.0, t_sigma=t_sigma, kappa=256.0, t=t, qae=QaeParams(M=1024),
        sim_level="circuit-pe", perturbation=perturbation,
    )
    densities = _counting(monkeypatch, DensityOperator, "__post_init__")
    circuits = _counting(monkeypatch, pipeline_module, "build_sqrt_unitary")
    purifications = _counting(monkeypatch, Purification, "__post_init__")
    stage_records = _counting(monkeypatch, SqrtParams, "__post_init__")
    rep = estimate_fidelity(rho_prep, sigma_prep, params, seed=1)
    assert rep.sim_level_eta == level
    assert len(densities) == len(stage_records) == 0
    # the sigma stage runs on a state's factor at its level, the eta stage
    # on eta's zero rows; the third argument is the level, true for a circuit
    factors = [rho_prep.factor, sigma_prep.factor]
    assert [(any(args[0] is f for f in factors), args[2]) for args in circuits] == (
        [(True, bool(sigma_circuits))] + [(False, True)] * (perturbation > 0)
    )
    assert [args[0].shape for args in circuits[1:]] == [(2, 1 << ancillas)] * (perturbation > 0)
    # the sigma stage's output state only
    assert len(purifications) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_factor_rank_is_the_density_rank(n):
    for rank in range(1, (1 << n) + 1):
        rho = random_density(n, rank, seed=100 * n + rank)
        for ancillas in sorted({math.ceil(math.log2(rank)), n}):
            assert purify(rho, ancillas).rank == rho.rank == rank


def test_perturbed_eta_circuit_on_its_zero_rows_gives_the_whole_factors_x():
    """Every gate of the eta circuit, the perturbation unitaries included, is
    the identity on W's ancillas, so the circuit on eta's rows with them zero
    gives the x of the circuit on eta's whole factor (W's columns times rho's
    factor), built here as the pipeline built it before: 60 drawn estimates,
    n 1-2, ranks 1-3, W at both levels."""
    rng = np.random.default_rng(22)
    for trial in range(60):
        n, circuit_w = 1 + trial % 2, trial % 4 < 2
        ranks = [int(rng.integers(1, min(3, 1 << n) + 1)) for _ in range(2)]
        rho, sigma = (purify(random_density(n, r, seed=100 * trial + i), ancilla_qubits_for(r))
                      for i, r in enumerate(ranks))
        params = PipelineParams(
            kappa_sigma=4.0, t_sigma=8 if circuit_w else 1 << 20, kappa=float(rng.choice([16, 64])),
            t=int(rng.choice([6, 8])), qae=QaeParams(M=64), sim_level="circuit-pe",
            qubit_budget=24, perturbation=float(rng.uniform(0.01, 0.1)),
        )
        rep = estimate_fidelity(rho, sigma, params, seed=trial)
        assert rep.sim_level_eta == "circuit-pe-perturbed"
        assert rep.sim_level_sigma == ("circuit-pe-perturbed" if circuit_w else "ideal-spectral")
        rho, sigma, *_ = _role_order(rho, sigma)
        w_seed, eta_seed = np.random.SeedSequence(trial).spawn(2)
        out = build_sqrt_unitary(sigma.factor, params.sigma, circuit_w, seed=w_seed)
        eta_prep = Purification(w_columns(out, n) @ rho.factor)  # eta's whole factor
        state = perturbed_circuit_on_whole_factor(
            eta_prep, eta_prep.system_qubits - n, params.eta, eta_seed
        )
        zero = state[:, 0, 0, 0, :]  # W's ancillas, pe and flag zero
        assert math.isclose(rep.x, np.vdot(zero, zero).real, rel_tol=1e-12, abs_tol=0)


def test_w_block_is_the_extraction_block_on_drawn_calls():
    """W's kept block, from the two-query construction, equals the block of
    the extraction output it is built from within 1e-13: 120 drawn calls, n
    1-3, ranks 1-3, both levels (a circuit W at n <= 2: at n = 3 it exceeds
    the default budget), perturbation 0 and 0.05.  This is the lemma that
    lets W's block be read off the output without building W."""
    rng = np.random.default_rng(26)
    worst, seen = 0.0, set()
    for trial in range(120):
        n, perturbation = 1 + trial % 3, (0.0, 0.05)[trial // 2 % 2]
        circuit = trial % 2 == 0 and n < 3
        rank = int(rng.integers(1, min(3, 1 << n) + 1))
        sigma = purify(random_density(n, rank, seed=trial), ancilla_qubits_for(rank))
        params = PipelineParams(
            kappa_sigma=float(rng.choice([4, 16])), t_sigma=8, kappa=16.0, t=8,
            qae=QaeParams(M=64), sim_level="circuit-pe", perturbation=perturbation,
        )
        seed = np.random.SeedSequence(trial)
        w = build_w_sigma(sigma, params, circuit, seed=seed)
        out = build_sqrt_unitary(sigma.factor, params.sigma, circuit, seed=seed)
        assert w.block.shape == out.block().shape
        worst = max(worst, float(np.max(np.abs(w.block - out.block()))))
        seen.add((n, circuit, perturbation))
    assert worst <= 1e-13
    assert len(seen) == 10  # each n at each level it fits, perturbed and not


def test_perturbed_reports_match_dense_gate_products():
    """A perturbed estimate's w_sigma_error (circuit W, ideal eta) and x
    (ideal W, perturbed eta circuit) against the same stage multiplied out of
    dense gates of at most 2^9 dimensions (``dense_circuit``), each drawing
    its noise from the estimate's own SeedSequence(seed).spawn(2) child: 20
    seeds each, n 1-2, agreeing within 1e-10."""
    rng = np.random.default_rng(8)
    for seed in range(40):
        circuit_w, n = seed % 2 == 0, 1 + seed // 2 % 2
        ranks = [int(rng.integers(1, (2 if circuit_w else min(3, 1 << n)) + 1)) for _ in range(2)]
        rho, sigma = (purify(random_density(n, r, seed=100 * seed + i), ancilla_qubits_for(r))
                      for i, r in enumerate(ranks))
        params = PipelineParams(
            kappa_sigma=float(rng.choice([4, 16])), t_sigma=8 if circuit_w else 1 << 20,
            kappa=float(rng.choice([16, 64])), t=1 << 20 if circuit_w else 8,
            qae=QaeParams(M=64), sim_level="circuit-pe",
            perturbation=float(rng.uniform(0.01, 0.1)),
        )
        rep = estimate_fidelity(rho, sigma, params, seed=seed)
        assert (rep.sim_level_sigma, rep.sim_level_eta) == (
            ("circuit-pe-perturbed", "ideal-spectral") if circuit_w
            else ("ideal-spectral", "circuit-pe-perturbed"))
        rho, sigma, *_ = _role_order(rho, sigma)
        w_seed, eta_seed = np.random.SeedSequence(seed).spawn(2)
        if circuit_w:
            # the circuit on sigma's state, no encoding qubits: its first column
            u = dense_circuit(sigma, 0, params.sigma, seed=w_seed)
            zero = u[:, 0].reshape(1 << n, params.sigma.T, 2, -1)[:, 0, 0, :]
            block = zero @ zero.conj().T
            target = sqrtm_psd(sigma.traced_matrix())
            error = operator_norm(4 * math.sqrt(params.kappa_sigma) * block - target)
            assert abs(rep.w_sigma_error - error) <= 1e-10
            continue
        # the ideal W's block from the spectral sum, eta's rows under it, and a
        # state on [system, encoding, garbage] whose encoding-zero rows they are
        w_zero = ideal_output(sigma.factor, params.sigma)[:, 0, 0, :]
        m = w_zero @ w_zero.conj().T @ rho.factor
        state = np.zeros((1 << n, 2, m.shape[1]), dtype=complex)
        state[:, 0, :] = m
        state[0, 1, 0] = math.sqrt(1.0 - np.vdot(m, m).real)
        p = Purification(state.reshape(2 << n, -1))
        u = dense_circuit(p, 1, params.eta, seed=eta_seed)
        zero = u[:, 0].reshape(1 << n, 2, params.eta.T, 2, -1)[:, 0, 0, 0, :]
        assert abs(rep.x - np.vdot(zero, zero).real) <= 1e-10


def test_perturbed_eta_circuit_memory_follows_the_rows_it_reads():
    """At t = 512 after a circuit W (n = 1, ranks 1 and 2) the perturbed eta
    circuit commits 22 qubits, but its array has 1 system, 9 pe, 1 flag and
    1 garbage qubit: the estimate peaks under 8 MB (about 200 MB on eta's
    whole factor, a 2^11 x 2 matrix run through the circuit)."""
    rho, sigma = (purify(random_density(1, r, seed=r), 1) for r in (1, 2))
    params = PipelineParams(
        kappa_sigma=4.0, t_sigma=8, kappa=64.0, t=512, qae=QaeParams(M=64),
        sim_level="circuit-pe", qubit_budget=30, perturbation=0.05,
    )
    # eta's circuit, 22 qubits: W's (twice 1 system, 3 pe and 1 flag qubit, then sigma's
    # garbage qubit), rho's garbage qubit, 9 pe qubits and the flag
    for budget, levels in [(21, (True, False)), (22, (True, True))]:
        assert stage_levels(1, 1, 1, dataclasses.replace(params, qubit_budget=budget)) == levels
    estimate_fidelity(rho, sigma, dataclasses.replace(params, t=8), seed=1)  # first-call costs
    tracemalloc.start()
    try:
        rep = estimate_fidelity(rho, sigma, params, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.sim_level_sigma == rep.sim_level_eta == "circuit-pe-perturbed"
    assert peak < 8 << 20

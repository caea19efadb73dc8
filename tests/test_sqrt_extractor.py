import numpy as np
import pytest

from fidest import (
    DensityOperator,
    SqrtParams,
    build_sqrt_unitary,
    density_with_block,
    exact_amplitude,
    filter_f,
    grid_eigenvalue,
    h_vector,
    ideal_sqrt_state,
    layout,
    operator_norm,
    partial_trace,
    pe_coefficient,
    pe_coefficient_direct,
    pe_phase_offset,
    pe_tail_bound,
    preparer_queries,
    purify,
    random_density,
    rotation_gate,
    sine_state,
    unitarity_defect,
)
from fidest.errors import (
    IndexOutOfRangeError,
    NotPowerOfTwoError,
    RegisterTooLargeError,
    SpectrumOutOfRangeError,
)
from fidest.sqrt_extractor import block_spectrum
from fidest.verify import ideal_bound_grid

PURE = DensityOperator(np.diag([1.0, 0.0]))


def pure_prep():
    return purify(PURE, 1).split_system(("system", 1), ("encoding", 0))


def test_params_validation():
    with pytest.raises(ValueError):
        SqrtParams(kappa=0.5, t=64)
    with pytest.raises(ValueError):
        SqrtParams(kappa=2.0, t=5)
    with pytest.raises(ValueError):
        SqrtParams(kappa=2.0, t=64, sim_level="bogus")
    p = SqrtParams(kappa=2.0, t=6)
    assert p.l == 3 and p.T == 8  # T >= 8 for every allowed t


def test_sine_state_t2_closed_form():
    np.testing.assert_allclose(sine_state(2), [1 / np.sqrt(2)] * 2, atol=1e-15)


@pytest.mark.parametrize("T", [2, 8, 32, 256, 4096])
def test_sine_state_normalized(T):
    assert abs(np.linalg.norm(sine_state(T)) - 1) <= 1e-12


def test_sine_state_shape_t8():
    s = sine_state(8)
    assert np.all(np.diff(s[:4]) > 0) and np.all(np.diff(s[4:]) < 0)
    np.testing.assert_allclose(s, s[::-1], atol=1e-15)


def test_sine_state_rejects_non_power():
    with pytest.raises(NotPowerOfTwoError):
        sine_state(6)


@pytest.mark.parametrize("kappa", [1.0, 2.0, 8.0, 64.0])
def test_filter_branch_values(kappa):
    assert abs(filter_f(1.0, kappa) - 0.5 * kappa**-0.25) <= 1e-15
    assert filter_f(1 / (2 * kappa), kappa) <= 1e-15
    assert abs(filter_f(1 / kappa, kappa) - 0.5) <= 1e-12  # both branches meet at 1/2
    assert filter_f(-0.3, kappa) == 0.0
    assert abs(filter_f(2.5, kappa) - 0.5 * kappa**-0.25) <= 1e-15


@pytest.mark.parametrize("kappa", [2.0, 8.0, 32.0])
def test_filter_power_law_plateau_and_range(kappa):
    lam = np.linspace(1 / kappa, 1.0, 200)
    np.testing.assert_allclose(lam**0.25 * filter_f(lam, kappa), 0.5 * kappa**-0.25, atol=1e-14)
    xs = np.linspace(-1, 2, 2000)
    fv = filter_f(xs, kappa)
    assert np.all((fv >= 0) & (fv <= 1))


def test_filter_continuity():
    for kappa in (1.0, 4.0, 16.0):
        for edge in (1 / (2 * kappa), 1 / kappa, 1.0):
            left = filter_f(edge - 1e-9, kappa)
            right = filter_f(edge + 1e-9, kappa)
            assert abs(left - right) < 1e-6


def test_h_vector_lipschitz_sampled():
    rng = np.random.default_rng(0)
    for kappa in (2.0, 8.0, 32.0):
        l1, l2 = rng.uniform(0, 1, 2000), rng.uniform(0, 1, 2000)
        f1, f2 = filter_f(l1, kappa), filter_f(l2, kappa)
        s1 = np.sqrt(1 - f1**2)
        s2 = np.sqrt(1 - f2**2)
        dh = np.hypot(f1 - f2, s1 - s2)
        assert np.all(dh <= (np.pi / np.sqrt(3)) * kappa * np.abs(l1 - l2) * (1 + 1e-6))


def test_rotation_gate_zero_branch_and_consistency():
    params = SqrtParams(kappa=4.0, t=64)
    r0 = rotation_gate(0, params)  # grid eigenvalue is negative there
    assert grid_eigenvalue(0, params) < 0
    np.testing.assert_allclose(r0[:, 0], [0.0, 1.0], atol=1e-15)
    for k in range(params.T):
        r = rotation_gate(k, params)
        assert unitarity_defect(r) <= 1e-12
        np.testing.assert_allclose(
            r[:, 0].real, h_vector(grid_eigenvalue(k, params), params.kappa), atol=1e-12
        )
    with pytest.raises(IndexOutOfRangeError):
        rotation_gate(params.T, params)


def test_h_vector_at_lambda_one():
    kappa = 16.0
    f, s = h_vector(1.0, kappa)
    assert abs(f - 0.5 * kappa**-0.25) <= 1e-15
    assert abs(s - np.sqrt(1 - 0.25 * kappa**-0.5)) <= 1e-15


@pytest.mark.parametrize("t", [8, 16, 32])
def test_pe_coefficient_matches_direct_sum(t):
    rng = np.random.default_rng(t)
    params = SqrtParams(kappa=4.0, t=t)
    for lam in rng.uniform(0, 1, 20):
        closed = np.array([pe_coefficient(lam, k, params) for k in range(params.T)])
        direct = np.array([pe_coefficient_direct(lam, k, params) for k in range(params.T)])
        assert np.max(np.abs(closed - direct)) <= 1e-10
        assert abs(np.sum(np.abs(closed) ** 2) - 1) <= 1e-10


def test_pe_coefficient_at_removable_singularity():
    params = SqrtParams(kappa=4.0, t=16)
    T = params.T
    # engineer lambda so that delta == pi/T exactly at some grid point
    for k in range(T):
        lam = (np.pi / T - 2 * np.pi / 3 + 2 * np.pi * k / T) * 3 * T / params.t
        if 0 <= lam <= 1:
            a = pe_coefficient(lam, k, params)
            d = pe_coefficient_direct(lam, k, params)
            assert abs(a - d) <= 1e-12
            break
    else:
        pytest.fail("no singular grid point found in [0, 1]")


def test_pe_tail_bound_holds():
    params = SqrtParams(kappa=4.0, t=32)
    rng = np.random.default_rng(1)
    for lam in rng.uniform(0, 1, 25):
        for k in range(params.T):
            d = pe_phase_offset(lam, k, params)
            if abs(d) > 2 * np.pi / params.T:
                assert abs(pe_coefficient(lam, k, params)) <= pe_tail_bound(d, params.T) + 1e-12


def test_build_unitary_is_unitary_and_meets_theta_bound():
    # spec example instance: A = |0><0| (pure, no encoding ancillas), kappa=4
    out = build_sqrt_unitary(pure_prep(), 0, SqrtParams(kappa=4.0, t=64))
    assert unitarity_defect(out.unitary) <= 1e-9
    # measured constant ratio <= 0.44 over the probed grid; assert with C = 1
    assert out.encoding.spec.epsilon <= 1.0 * (4.0**-0.5 + 4.0**1.5 / 64)
    assert out.preparer_queries == preparer_queries(out.params)


def test_build_unitary_uncompute_weight():
    # pe register returns to |0> up to (kappa/t)^2; measured ratios <= 0.95,
    # asserted with constant 3
    for kappa, t in [(4.0, 64), (2.0, 16), (8.0, 64)]:
        p = purify(random_density(1, 2, seed=5), 1).split_system(("system", 1), ("encoding", 0))
        out = build_sqrt_unitary(p, 0, SqrtParams(kappa=kappa, t=t))
        weight = exact_amplitude(out.state, out.layout, ["pe"])
        assert weight >= 1 - 3.0 * (kappa / t) ** 2


def test_build_unitary_register_budget():
    with pytest.raises(RegisterTooLargeError):
        build_sqrt_unitary(pure_prep(), 0, SqrtParams(kappa=4.0, t=1 << 12), qubit_budget=14)


def test_spectrum_guard():
    with pytest.raises(SpectrumOutOfRangeError):
        block_spectrum(np.diag([1.2, 0.0]))
    with pytest.raises(SpectrumOutOfRangeError):
        block_spectrum(np.diag([0.5, -0.1]))


def test_ideal_state_pure_branch():
    # single eigenvalue lambda = 1: block entry is f(1)^2 = kappa^{-1/2}/4
    kappa = 16.0
    out = ideal_sqrt_state(pure_prep(), 0, SqrtParams(kappa=kappa, t=64))
    blk = out.encoding.block()
    assert abs(blk[0, 0] - 0.25 * kappa**-0.5) <= 1e-12
    assert abs(blk[1, 1]) <= 1e-12


def test_ideal_state_zero_operator():
    rho = density_with_block(np.zeros((2, 2)), 1)
    out = ideal_sqrt_state(purify(rho, 2), 1, SqrtParams(kappa=4.0, t=64))
    assert operator_norm(out.encoding.block()) <= 1e-12


def test_ideal_state_uniform_spectrum():
    # A = s I has every branch at lambda = s, so the block is s f(s)^2 I
    s = 0.4
    rho = density_with_block(s * np.eye(2), 1)
    out = ideal_sqrt_state(purify(rho, 2), 1, SqrtParams(kappa=4.0, t=64))
    np.testing.assert_allclose(
        out.encoding.block(), s * filter_f(s, 4.0) ** 2 * np.eye(2), atol=1e-12
    )


def test_ideal_block_bound_constant():
    assert ideal_bound_grid(seed=2, trials=12) <= 1.0 + 1e-9


def test_ideal_vector_matches_ideal_state(with_pe):
    # the ideal state and the density-level construction agree: tracing the
    # full-register vector (pe exactly |0>) reproduces lift rho lift^dagger,
    # lift = sum_j u_j u_j^dagger (x) h(lambda_j), and the pe-omitted carrier
    rho = random_density(1, 2, seed=9)
    p = purify(rho, 1).split_system(("system", 1), ("encoding", 0))
    params = SqrtParams(kappa=4.0, t=16)
    ideal = ideal_sqrt_state(p, 0, params)
    v = with_pe(ideal)
    assert abs(np.linalg.norm(v) - 1) <= 1e-12
    full = layout(("system", 1), ("encoding", 0), ("pe", params.l), ("flag", 1), ("garbage", 1))
    traced = partial_trace(np.outer(v, v.conj()), full, ["system", "encoding", "flag"])
    lam, vecs = np.linalg.eigh(rho.matrix)
    lift = sum(
        np.kron(np.outer(u, u.conj()), h_vector(max(w, 0.0), params.kappa)[:, None])
        for w, u in zip(lam, vecs.T)
    )
    assert operator_norm(traced - lift @ rho.matrix @ lift.conj().T) <= 1e-12
    assert operator_norm(traced - ideal.encoding.carrier) <= 1e-12


def test_circuit_converges_to_ideal(with_pe):
    p = pure_prep()
    params = SqrtParams(kappa=8.0, t=128)
    out = build_sqrt_unitary(p, 0, params)
    v = with_pe(ideal_sqrt_state(p, 0, params))
    dist = np.linalg.norm(out.state - v)
    assert dist <= 1.0 * params.kappa / params.t
    # density-vs-purification transfer
    traced_ideal = partial_trace(
        np.outer(v, v.conj()), out.layout, ["system", "encoding", "pe", "flag"]
    )
    assert operator_norm(out.encoding.carrier - traced_ideal) <= dist + 1e-9


def test_perturbed_mode_is_seeded_and_distinct():
    p = pure_prep()
    params = SqrtParams(kappa=4.0, t=16, perturbation=1e-2)
    a = build_sqrt_unitary(p, 0, params, seed=3)
    b = build_sqrt_unitary(p, 0, params, seed=3)
    c = build_sqrt_unitary(p, 0, params, seed=4)
    clean = build_sqrt_unitary(p, 0, SqrtParams(kappa=4.0, t=16))
    assert np.array_equal(a.unitary, b.unitary)
    assert not np.array_equal(a.unitary, c.unitary)
    drift = operator_norm(a.unitary - clean.unitary)
    assert 0 < drift < 1.0  # bounded by the perturbation times the circuit depth


def test_query_count_grows_linearly_in_t():
    counts = [preparer_queries(SqrtParams(kappa=4.0, t=t)) for t in (64, 128, 256, 512)]
    ratios = np.array(counts[1:]) / np.array(counts[:-1])
    assert np.all((ratios > 1.6) & (ratios < 2.4))

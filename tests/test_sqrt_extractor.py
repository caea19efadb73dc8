import math
import tracemalloc

import numpy as np
import pytest

from fidest import (
    DensityOperator,
    Purification,
    SqrtParams,
    build_sqrt_unitary,
    filter_f,
    grid_eigenvalue,
    h_vector,
    operator_norm,
    pe_coefficient,
    pe_coefficient_direct,
    pe_phase_offset,
    pe_tail_bound,
    preparer_queries,
    purification_to_unitary_be,
    purify,
    random_density,
    sine_state,
    stage_gain,
    unitarity_defect,
)
from fidest.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotPowerOfTwoError,
    OutOfRangeError,
    SpectrumOutOfRangeError,
)
from circuit_oracles import dense_circuit, ideal_output, pe_coefficient_sum, rotation_gate
from register_oracles import density_with_block, layout, partial_trace, project_zero
from fidest.sqrt_extractor import (SqrtOutput, _branch_amplitudes, block_spectrum,
                                   scaled_block_error)
from fidest.verify import ideal_bound_grid

PURE = DensityOperator(np.diag([1.0, 0.0]))


def pure_prep():
    return purify(PURE, 1)


def zero_slice(p, n_enc):
    """M: the state ``p`` prepares on [system, encoding, garbage] with the
    encoding qubits zero, on [system, garbage]."""
    return p.factor.reshape(1 << (p.system_qubits - n_enc), 1 << n_enc, -1)[:, 0, :]


def test_params_validation():
    with pytest.raises(ValueError):
        SqrtParams(kappa=0.5, t=64)
    with pytest.raises(ValueError):
        SqrtParams(kappa=2.0, t=5)
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


@pytest.mark.parametrize("shape", [(3, 2), (2, 3), (0, 2), (2, 0), (4,), (2, 2, 2)])
def test_extraction_takes_a_power_of_two_factor(shape):
    # M is checked on entry, at both levels; a zero-length axis is no power of two either
    for circuit in (True, False):
        with pytest.raises(DimensionMismatchError, match="not a power-of-two factor"):
            build_sqrt_unitary(np.full(shape, 0.1), SqrtParams(kappa=4.0, t=8), circuit)


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
    """The closed form and the circuit's FFT each match the DFT sum, row by row."""
    rng = np.random.default_rng(t)
    params = SqrtParams(kappa=4.0, t=t)
    k = np.arange(params.T)
    for lam in rng.uniform(0, 1, 20):
        oracle = np.array([pe_coefficient_sum(lam, j, params) for j in k])
        closed = pe_coefficient(lam, k, params)
        assert np.max(np.abs(closed - oracle)) <= 1e-10
        assert np.max(np.abs(pe_coefficient_direct(lam, k, params) - oracle)) <= 1e-10
        assert abs(np.sum(np.abs(closed) ** 2) - 1) <= 1e-10


def test_pe_coefficient_at_removable_singularity():
    params = SqrtParams(kappa=4.0, t=16)
    T = params.T
    # engineer lambda so that delta == pi/T exactly at some grid point
    for k in range(T):
        lam = (np.pi / T - 2 * np.pi / 3 + 2 * np.pi * k / T) * 3 * T / params.t
        if 0 <= lam <= 1:
            oracle = pe_coefficient_sum(lam, k, params)
            assert abs(pe_coefficient(lam, k, params) - oracle) <= 1e-12
            assert abs(pe_coefficient_direct(lam, k, params) - oracle) <= 1e-12
            # the singular entry of a whole row takes the same value
            assert pe_coefficient(lam, np.arange(T), params)[k] == pe_coefficient(lam, k, params)
            break
    else:
        pytest.fail("no singular grid point found in [0, 1]")


def test_pe_functions_broadcast_over_lambda_and_k():
    """A whole table in one call equals the scalar calls entry by entry, and
    a k outside [0, T) anywhere in the array is refused."""
    params = SqrtParams(kappa=4.0, t=16)
    lam = np.array([0.0, 0.3, 0.75, 1.0])[:, None]
    k = np.arange(params.T)[None, :]
    for fn in (pe_coefficient, pe_coefficient_direct, pe_phase_offset):
        table = fn(lam, k, params)
        assert table.shape == (4, params.T)
        for i, j in np.ndindex(table.shape):
            assert table[i, j] == fn(float(lam[i, 0]), int(j), params)
        for bad in (-1, params.T, np.array([0, params.T])):
            with pytest.raises(IndexOutOfRangeError):
                fn(0.3, bad, params)
    assert isinstance(pe_coefficient(0.3, 2, params), complex)
    assert isinstance(pe_coefficient_direct(0.3, 2, params), complex)
    assert isinstance(pe_phase_offset(0.3, 2, params), float)


@pytest.mark.parametrize("k", [1.5, 2.0, np.array([0, 1.5]), np.arange(4.0)])
def test_pe_functions_refuse_a_non_integer_grid_point(k):
    """A k that is not of an integer type is no grid point: each function
    refuses it, where the closed form used to answer for 1.5 and the FFT's
    entry to raise numpy's IndexError."""
    params = SqrtParams(kappa=4.0, t=16)
    for fn in (pe_coefficient, pe_coefficient_direct, pe_phase_offset):
        with pytest.raises(IndexOutOfRangeError, match="not a grid point"):
            fn(0.3, k, params)


def test_pe_tail_bound_holds():
    params = SqrtParams(kappa=4.0, t=32)
    rng = np.random.default_rng(1)
    k = np.arange(params.T)
    for lam in rng.uniform(0, 1, 25):
        bound = pe_tail_bound(pe_phase_offset(lam, k, params), params.T)
        assert np.all(np.abs(pe_coefficient(lam, k, params)) <= bound + 1e-12)


@pytest.mark.parametrize("lam", [12.566, 20.0, -8.0])
def test_pe_tail_bound_holds_where_delta_wraps(lam):
    """alpha is 2 pi-periodic in delta, so the bound is read at delta's
    distance to the nearest multiple of 2 pi; at the raw delta these rows
    have |alpha| up to 0.85 above it."""
    params = SqrtParams(kappa=1.0, t=8)
    k = np.arange(params.T)
    delta = pe_phase_offset(lam, k, params)
    assert np.any(np.abs(delta) > np.pi)
    bound = pe_tail_bound(delta, params.T)
    assert np.all(np.abs(pe_coefficient(lam, k, params)) <= bound + 1e-12)
    # the rows that need no wrap keep the bits of the bound at the raw delta
    T, inside = params.T, np.abs(delta) <= np.pi
    raw = 3.0 * np.sqrt(2.0) * np.pi**3 / (T * T * delta * delta)
    raw = np.where(np.abs(delta) > 2 * np.pi / T, raw, np.inf)
    assert np.array_equal(bound[inside], raw[inside])


def test_pe_tail_bound_is_inf_where_it_says_nothing():
    T = 16
    edge = 2 * np.pi / T
    delta = np.array([0.0, 0.5 * edge, -edge, edge, np.nextafter(edge, 4.0), -2 * edge])
    bound = pe_tail_bound(delta, T)
    assert np.all(np.isinf(bound[:4]))
    np.testing.assert_allclose(bound[4:], 3 * np.sqrt(2) * np.pi**3 / (T * delta[4:]) ** 2,
                               rtol=1e-15)
    assert pe_tail_bound(0.0, T) == math.inf and isinstance(pe_tail_bound(1.0, T), float)


def test_build_unitary_is_unitary_and_meets_theta_bound():
    # spec example instance: A = |0><0| (pure, no encoding ancillas), kappa=4
    out = build_sqrt_unitary(pure_prep().factor, SqrtParams(kappa=4.0, t=64))
    u = dense_circuit(pure_prep(), 0, out.params)
    assert unitarity_defect(u) <= 1e-9
    assert np.max(np.abs(out.state.reshape(-1) - u[:, 0])) <= 1e-12
    # measured constant ratio <= 0.44 over the probed grid; assert with C = 1
    err = scaled_block_error(out.block(), out.target_sqrt, out.params.kappa)
    assert err <= 1.0 * (4.0**-0.5 + 4.0**1.5 / 64)


def test_build_unitary_uncompute_weight():
    # pe register returns to |0> up to (kappa/t)^2; measured ratios <= 0.95,
    # asserted with constant 3
    for kappa, t in [(4.0, 64), (2.0, 16), (8.0, 64)]:
        p = purify(random_density(1, 2, seed=5), 1)
        out = build_sqrt_unitary(p.factor, SqrtParams(kappa=kappa, t=t))
        weight = np.linalg.norm(out.state[:, 0]) ** 2
        assert weight >= 1 - 3.0 * (kappa / t) ** 2


def test_zero_probability_is_the_all_ancillas_zero_weight():
    # the weight of the slice block() reads, against the layout oracle's
    # projection of the flat output; out of [0, 1] it raises
    p = purify(density_with_block(0.6 * random_density(1, 2, seed=13).matrix, 1), 2)
    out = build_sqrt_unitary(zero_slice(p, 1), SqrtParams(kappa=4.0, t=8))
    lay = layout(("system", 1), ("pe", 3), ("flag", 1), ("garbage", 2))
    v = project_zero(out.state.reshape(-1), lay, ["pe", "flag"])
    assert out.zero_probability() == np.vdot(v, v).real
    assert abs(out.zero_probability() - np.trace(out.block()).real) <= 1e-15
    with pytest.raises(OutOfRangeError):
        SqrtOutput(out.params, np.ones_like(out.state), out.target_sqrt).zero_probability()


def test_spectrum_guard():
    with pytest.raises(SpectrumOutOfRangeError):
        block_spectrum(np.diag([1.2, 0.0]))
    with pytest.raises(SpectrumOutOfRangeError):
        block_spectrum(np.diag([0.5, -0.1]))


def test_ideal_state_pure_branch():
    # single eigenvalue lambda = 1: block entry is f(1)^2 = kappa^{-1/2}/4
    kappa = 16.0
    out = build_sqrt_unitary(pure_prep().factor, SqrtParams(kappa=kappa, t=64), circuit=False)
    blk = out.block()
    assert abs(blk[0, 0] - 0.25 * kappa**-0.5) <= 1e-12
    assert abs(blk[1, 1]) <= 1e-12


def test_ideal_state_zero_operator():
    rho = density_with_block(np.zeros((2, 2)), 1)
    m = zero_slice(purify(rho, 2), 1)
    out = build_sqrt_unitary(m, SqrtParams(kappa=4.0, t=64), circuit=False)
    assert operator_norm(out.block()) <= 1e-12


def test_ideal_state_uniform_spectrum():
    # A = s I has every branch at lambda = s, so the block is s f(s)^2 I
    s = 0.4
    rho = density_with_block(s * np.eye(2), 1)
    m = zero_slice(purify(rho, 2), 1)
    out = build_sqrt_unitary(m, SqrtParams(kappa=4.0, t=64), circuit=False)
    np.testing.assert_allclose(
        out.block(), s * filter_f(s, 4.0) ** 2 * np.eye(2), atol=1e-12
    )


def test_ideal_block_bound_constant():
    assert ideal_bound_grid(seed=2, trials=12) <= 1.0 + 1e-9


def test_ideal_vector_matches_ideal_state(with_pe):
    # the ideal state and the density-level construction agree: tracing the
    # full-register vector (pe exactly |0>) reproduces lift rho lift^dagger,
    # lift = sum_j u_j u_j^dagger (x) h(lambda_j), and the pe-omitted state traced
    rho = random_density(1, 2, seed=9)
    p = purify(rho, 1)
    params = SqrtParams(kappa=4.0, t=16)
    ideal = build_sqrt_unitary(p.factor, params, circuit=False)
    v = with_pe(ideal)
    assert abs(np.linalg.norm(v) - 1) <= 1e-12
    full = layout(("system", 1), ("pe", params.l), ("flag", 1), ("garbage", 1))
    traced = partial_trace(np.outer(v, v.conj()), full, ["system", "flag"])
    lam, vecs = np.linalg.eigh(rho.matrix)
    lift = sum(
        np.kron(np.outer(u, u.conj()), h_vector(max(w, 0.0), params.kappa)[:, None])
        for w, u in zip(lam, vecs.T)
    )
    assert operator_norm(traced - lift @ rho.matrix @ lift.conj().T) <= 1e-12
    kept = ["system", "flag"]
    ideal_lay = layout(("system", 1), ("pe", 0), ("flag", 1), ("garbage", 1))
    traced_ideal = partial_trace(np.outer(ideal.state, ideal.state.conj()), ideal_lay, kept)
    assert operator_norm(traced - traced_ideal) <= 1e-12


def test_ideal_level_is_the_spectral_sum():
    """At the ideal level the routine's output is sum_j (u_j u_j^dagger M)
    (x) h(lambda_j) on a length-1 pe axis, for any t and perturbation, and
    its register is not checked: 40 drawn factors, n 1-3, garbage 0-2."""
    rng = np.random.default_rng(25)
    for trial in range(40):
        n, garbage = 1 + trial % 3, int(rng.integers(0, 3))
        g = rng.standard_normal((2, 1 << n, 1 << garbage))
        m = (g[0] + 1j * g[1]) * math.sqrt(rng.uniform(0.2, 1.0)) / np.linalg.norm(g)
        params = SqrtParams(kappa=float(rng.choice([1, 4, 64])), t=int(rng.choice([8, 1 << 30])),
                            perturbation=float(rng.choice([0.0, 0.1])))
        out = build_sqrt_unitary(m, params, circuit=False, seed=trial)
        assert out.state.shape == (1 << n, 1, 2, 1 << garbage)
        assert np.max(np.abs(out.state - ideal_output(m, params))) <= 1e-13


@pytest.mark.parametrize("circuit", [True, False])
@pytest.mark.parametrize("t", [6, 100, 4000])
def test_stage_gain_is_the_branch_rules_zero_entry(circuit, t):
    """G(lambda) is the all-zeros entry of the branch rule's amplitudes at
    both levels, up to T = 2^12, though the gain does not build them."""
    params = SqrtParams(kappa=4.0, t=t)
    lam = np.concatenate([[0.0, 0.125, 0.25, 1.0], np.random.default_rng(t).uniform(0, 1, 20)])
    zero = _branch_amplitudes(lam, params, circuit)[:, 0, 0]
    assert np.max(np.abs(stage_gain(lam, params, circuit) - zero)) <= 1e-12


def test_circuit_converges_to_ideal(with_pe):
    p = pure_prep()
    params = SqrtParams(kappa=8.0, t=128)
    out = build_sqrt_unitary(p.factor, params)
    v = with_pe(build_sqrt_unitary(p.factor, params, circuit=False))
    dist = np.linalg.norm(out.state - v)
    assert dist <= 1.0 * params.kappa / params.t
    # density-vs-purification transfer
    full = layout(("system", 1), ("pe", params.l), ("flag", 1), ("garbage", 1))
    kept = ["system", "pe", "flag"]
    traced_ideal = partial_trace(np.outer(v, v.conj()), full, kept)
    traced = partial_trace(np.outer(out.state, out.state.conj()), full, kept)
    assert operator_norm(traced - traced_ideal) <= dist + 1e-9


def test_perturbed_mode_is_seeded_and_distinct():
    p = pure_prep()
    params = SqrtParams(kappa=4.0, t=16, perturbation=1e-2)
    a = build_sqrt_unitary(p.factor, params, seed=3)
    b = build_sqrt_unitary(p.factor, params, seed=3)
    c = build_sqrt_unitary(p.factor, params, seed=4)
    clean = build_sqrt_unitary(p.factor, SqrtParams(kappa=4.0, t=16))
    assert np.array_equal(a.state, b.state)
    assert not np.array_equal(a.state, c.state)
    u_a, u_clean = dense_circuit(p, 0, params, seed=3), dense_circuit(p, 0, clean.params)
    assert np.max(np.abs(a.state.reshape(-1) - u_a[:, 0])) <= 1e-12
    assert np.max(np.abs(clean.state.reshape(-1) - u_clean[:, 0])) <= 1e-12
    drift = operator_norm(u_a - u_clean)
    assert 0 < drift < 1.0  # bounded by the perturbation times the circuit depth


def _equal_weight_block(n, rank, weight, seed):
    g = np.random.default_rng(seed).standard_normal((2, 1 << n, rank))
    q = np.linalg.qr(g[0] + 1j * g[1])[0]
    return weight * q @ q.conj().T


@pytest.mark.parametrize("a, garbage, perturbation", [
    # a mixed block under one encoding qubit; two garbage qubits; 8 qubits in all
    pytest.param(0.6 * random_density(1, 2, seed=13).matrix, 2, 0.0, id="0.0"),
    pytest.param(0.6 * random_density(1, 2, seed=13).matrix, 2, 0.05, id="0.05"),
    # eigenvalues 0.6 and 0
    pytest.param(0.6 * random_density(1, 1, seed=13).matrix, 2, 0.0, id="zero-eigenvalue"),
    # eigenvalues 0.4, 0.4, 0, 0 on n = 2; three garbage qubits; 10 qubits in all
    pytest.param(_equal_weight_block(2, 2, 0.4, 5), 3, 0.0, id="repeated-eigenvalue"),
])
def test_circuit_matches_dense_oracle_with_encoding_and_garbage(a, garbage, perturbation):
    # every gate after the preparer is the identity on the encoding qubits, so
    # the dense circuit's output rows with them zero are the circuit on M alone
    p = purify(density_with_block(a, 1), garbage)
    params = SqrtParams(kappa=4.0, t=8, perturbation=perturbation)
    out = build_sqrt_unitary(zero_slice(p, 1), params, seed=7)
    u = dense_circuit(p, 1, params, seed=7)
    assert unitarity_defect(u) <= 1e-12
    rows = u[:, 0].reshape(len(a), 2, params.T, 2, 1 << garbage)[:, 0]  # encoding zero
    assert np.max(np.abs(out.state - rows)) <= 1e-12


def test_unperturbed_circuit_peak_memory():
    """An unperturbed circuit runs one eigenbranch of A at a time on [pe, flag]:
    at 16 qubits it peaks within 2.5 times its 1 MB output state."""
    m = np.sqrt(0.6) * purify(random_density(2, 2, seed=13), 4).factor  # A = 0.6 rho
    params = SqrtParams(kappa=4.0, t=512)  # 2 system, 9 pe, 1 flag, 4 garbage
    build_sqrt_unitary(m, SqrtParams(kappa=4.0, t=8))  # first-call allocations
    tracemalloc.start()
    try:
        out = build_sqrt_unitary(m, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.state.nbytes == 16 << 16
    assert peak <= 2.5 * out.state.nbytes


def test_w_block_same_from_dense_circuit_or_reflection():
    # W = (I x U^dagger) SWAP (I x U) with U the dense circuit, against the
    # matrix-free W whose preparer is the reflection of U's first column
    p = purify(random_density(1, 1, seed=17), 0)
    params = SqrtParams(kappa=4.0, t=8)
    out = build_sqrt_unitary(p.factor, params)
    u = dense_circuit(p, 0, params)
    dm = u.shape[0]  # a 5-qubit output, no garbage: W has 10 qubits
    swap = np.eye(dm * dm)[np.arange(dm * dm).reshape(dm, dm).T.reshape(-1)]
    lift = np.kron(np.eye(dm), u)
    w_dense = lift.conj().T @ swap @ lift
    _, w_block = purification_to_unitary_be(Purification(out.state.reshape(-1, 1)))
    lay = layout(("system", 5), ("mirror", 5), ("enc_garbage", 0))
    block = project_zero(w_dense, lay, ["mirror", "enc_garbage"])
    assert np.max(np.abs(w_block - block)) <= 1e-12


def test_query_count_grows_linearly_in_t():
    counts = [preparer_queries(SqrtParams(kappa=4.0, t=t)) for t in (64, 128, 256, 512)]
    ratios = np.array(counts[1:]) / np.array(counts[:-1])
    assert np.all((ratios > 1.6) & (ratios < 2.4))


def _select_filter(lam, kappa):
    """filter_f as one np.select over the four branches, each evaluated on
    every entry: the reference for the branch-wise kernel."""
    lam = np.asarray(lam, dtype=float)
    lo, hi = 1.0 / (2.0 * kappa), 1.0 / kappa
    c = 0.5 * kappa ** -0.25
    with np.errstate(invalid="ignore"):
        return np.select(
            [lam > 1.0, lam >= hi, lam >= lo],
            [c, c * np.where(lam > 0, lam, 1.0) ** -0.25,
             0.5 * np.sin(0.5 * np.pi * (lam - lo) / (hi - lo))],
            default=0.0,
        )


@pytest.mark.parametrize("kappa", [1.0, 4.0, 256.0, 2.0**30])
def test_filter_is_bitwise_the_select_reference(kappa):
    rng = np.random.default_rng(int(kappa) % 1000)
    edges = [0.0, -0.0, 1.0, 1 / kappa, 1 / (2 * kappa), np.nan, np.inf, -np.inf]
    for size in (0, 1, 2, 7, 64, 1000):
        lam = np.concatenate([rng.uniform(-0.5, 1.5, size), rng.uniform(0, 2 / kappa, size), edges])
        assert np.array_equal(filter_f(lam, kappa).view(np.uint64),
                              _select_filter(lam, kappa).view(np.uint64))
    grid = grid_eigenvalue(np.arange(1 << 12), SqrtParams(kappa=kappa, t=4000))
    assert np.array_equal(filter_f(grid, kappa), _select_filter(grid, kappa))
    for v in edges:
        got = filter_f(v, kappa)
        assert type(got) is float and np.array_equal(got, _select_filter(v, kappa))


@pytest.mark.parametrize("t", [6, 12, 100, 1000])
def test_stage_gain_gives_the_circuit_zero_probability(t):
    """sum_lambda lambda F~(lambda)^2 over the encoded block's spectrum is the
    all-zeros probability of the state-level circuit."""
    rng = np.random.default_rng(t)
    for n in (1, 2, 3):
        for enc in (0, 1, 2):
            garbage = int(rng.integers(0, 3))
            shape = (1 << (n + enc), 1 << garbage)
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            m = zero_slice(Purification(g / np.linalg.norm(g)), enc)
            params = SqrtParams(kappa=4.0, t=t)
            x = build_sqrt_unitary(m, params).zero_probability()
            lam = block_spectrum(m @ m.conj().T).values
            gain = stage_gain(lam, params, circuit=True)
            assert math.isclose(np.sum(lam * gain**2), x, rel_tol=1e-12)


@pytest.mark.parametrize("t", [6, 12, 100])
def test_stage_gain_is_the_pe_coefficient_sum(t):
    params = SqrtParams(kappa=4.0, t=t)
    lam = np.array([0.0, 0.05, 0.125, 0.25, 0.3, 0.5, 0.99, 1.0])
    k = np.arange(params.T)
    f = filter_f(grid_eigenvalue(k, params), params.kappa)
    closed = [np.sum(np.abs(pe_coefficient(v, k, params)) ** 2 * f) for v in lam]
    assert np.max(np.abs(stage_gain(lam, params, circuit=True) - closed)) <= 1e-12
    assert stage_gain(0.3, params, circuit=True).shape == ()
    assert stage_gain(0.3, params, circuit=False) == filter_f(0.3, params.kappa)

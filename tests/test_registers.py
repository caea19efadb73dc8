import numpy as np
import pytest

from fidest import (
    PipelineParams,
    Purification,
    QaeParams,
    build_eta,
    build_sqrt_unitary,
    build_w_sigma,
    purify,
    random_density,
)
from fidest.errors import DimensionMismatchError
from fidest.registers import stage_levels
from circuit_oracles import w_columns
from register_oracles import (
    UnknownSegmentError,
    layout,
    partial_trace,
    project_zero,
    zero_block_indices,
)


def test_layout_rejects_duplicate_names():
    with pytest.raises(ValueError):
        layout(("a", 1), ("a", 2))


def test_layout_totals_and_lookup():
    lay = layout(("sys", 2), ("anc", 0), ("gar", 1))
    assert lay.total_qubits == 3
    assert lay.dim == 8
    assert lay.qubits("anc") == 0
    with pytest.raises(UnknownSegmentError):
        lay.qubits("nope")


def test_partial_trace_product_state():
    lay = layout(("a", 1), ("b", 2))
    rho = random_density(1, 2, seed=1).matrix
    sig = random_density(2, 3, seed=2).matrix
    np.testing.assert_allclose(partial_trace(np.kron(rho, sig), lay, ["a"]), rho, atol=1e-12)
    np.testing.assert_allclose(partial_trace(np.kron(rho, sig), lay, ["b"]), sig, atol=1e-12)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    lay = layout(("a", 1), ("b", 1))
    np.testing.assert_allclose(
        partial_trace(np.outer(bell, bell.conj()), lay, ["a"]), np.eye(2) / 2, atol=1e-12
    )


def test_partial_trace_keep_all_and_trace_preservation():
    lay = layout(("a", 2), ("b", 1))
    m = random_density(3, 5, seed=3).matrix
    np.testing.assert_allclose(partial_trace(m, lay, ["a", "b"]), m, atol=1e-15)
    reduced = partial_trace(m, lay, ["b"])
    assert abs(np.trace(reduced) - np.trace(m)) < 1e-12


def test_project_zero_matches_brute_force():
    # cross-oracle at small dimension: explicit index loop
    lay = layout(("sys", 2), ("anc", 2))
    m = random_density(4, 6, seed=4).matrix
    block = project_zero(m, lay, ["anc"])
    brute = np.empty((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            brute[i, j] = m[i * 4 + 0, j * 4 + 0]
    np.testing.assert_allclose(block, brute, atol=0)


def test_project_zero_middle_segment():
    lay = layout(("a", 1), ("z", 1), ("b", 1))
    m = np.arange(64, dtype=complex).reshape(8, 8)
    block = project_zero(m, lay, ["z"])
    idx = [0, 1, 4, 5]  # indices with the middle qubit 0
    np.testing.assert_allclose(block, m[np.ix_(idx, idx)], atol=0)
    np.testing.assert_array_equal(zero_block_indices(lay, ["z"]), idx)
    # only square matrices and vectors: a column block is rejected
    for cols in (idx, [0, 1, 2]):
        with pytest.raises(DimensionMismatchError):
            project_zero(m[:, cols], lay, ["z"])


def test_project_zero_vector():
    lay = layout(("a", 1), ("b", 1))
    v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    np.testing.assert_allclose(project_zero(v, lay, ["b"]), [1.0, 3.0])


def test_zero_qubit_segments_are_transparent():
    lay = layout(("sys", 1), ("anc", 0))
    m = random_density(1, 2, seed=5).matrix
    np.testing.assert_allclose(project_zero(m, lay, ["anc"]), m, atol=0)
    np.testing.assert_allclose(partial_trace(m, lay, ["sys"]), m, atol=1e-15)


@pytest.mark.parametrize("level, perturbation, label", [
    ("ideal-spectral", 0.0, "ideal-spectral"),
    ("circuit-pe", 0.0, "circuit-pe"),
    ("circuit-pe", 0.05, "circuit-pe-perturbed"),
])
def test_register_rule_counts_the_arrays_built(level, perturbation, label):
    """The rule that sizes W, eta and each extraction circuit equals the
    qubit counts of the arrays the stages commit; the eta-stage circuit runs
    on eta's rows with W's ancillas zero, a smaller array.  The counts are
    written out here: an extraction output is [system, pe, flag, garbage],
    W is a mirror of the output's main register, then main and garbage, and
    eta is W's register and rho's garbage."""
    rho_prep = purify(random_density(1, 2, seed=1), 1)
    sigma_prep = purify(random_density(1, 2, seed=2), 1)
    params = PipelineParams(
        kappa_sigma=4.0, t_sigma=8, kappa=4.0, t=8, qae=QaeParams(M=16),
        sim_level=level, perturbation=perturbation,
    )
    n, g_sigma, g_rho = 1, sigma_prep.garbage_qubits, rho_prep.garbage_qubits
    sp, ep = params.sigma, params.eta
    w_circuit, _ = stage_levels(n, g_rho, g_sigma, params)
    assert w_circuit == (level == "circuit-pe")
    w = build_w_sigma(sigma_prep, params, w_circuit, seed=1)
    assert w.sim_level == label
    # the sigma stage's output: a circuit's, or one with a length-1 pe axis
    out = build_sqrt_unitary(sigma_prep.factor, sp, w_circuit, seed=1)
    l = sp.l if w_circuit else 0
    assert out.state.size == 1 << n + l + 1 + g_sigma
    w_register = 2 * (n + l + 1) + g_sigma
    columns = w_columns(out, n)
    assert 1 << w_register == columns.shape[0]
    # eta's whole factor, the register the level rule counts
    eta_prep = Purification(columns @ rho_prep.factor)
    assert eta_prep.factor.size == 1 << w_register + g_rho
    # the eta-stage circuit runs on eta's rows with W's ancillas zero
    eta = build_eta(rho_prep, w)
    eta_out = build_sqrt_unitary(eta.m, ep, seed=2)
    assert eta_out.state.size == 1 << n + ep.l + 1 + g_rho

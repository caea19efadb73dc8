import json

import numpy as np
import pytest

from fidest import (
    DensityOperator,
    Purification,
    ancilla_qubits_for,
    fidelity_exact,
    operator_norm,
    purify,
    random_density,
    trace_distance,
    uhlmann_fidelity,
)
from fidest.errors import (
    DimensionMismatchError,
    InsufficientAncillaError,
    NegativeEigenvalueError,
    NotHermitianError,
    RankOutOfRangeError,
)

Z0 = DensityOperator(np.diag([1.0, 0.0]))
Z1 = DensityOperator(np.diag([0.0, 1.0]))
HALF = DensityOperator(np.eye(2) / 2)


def test_density_validation():
    with pytest.raises(NotHermitianError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        DensityOperator(np.diag([0.9, 0.9]))


def test_density_rejects_a_non_square_or_negative_matrix():
    with pytest.raises(DimensionMismatchError, match=r"not a square power-of-two matrix: \(2, 4\)"):
        DensityOperator(np.eye(2, 4) / 2)
    with pytest.raises(DimensionMismatchError, match=r"not a square power-of-two matrix: \(\)"):
        DensityOperator(np.array(1.0))
    with pytest.raises(NegativeEigenvalueError, match="eigenvalue -1.000e-06 below -1.0e-09"):
        DensityOperator(np.diag([1.0 + 1e-6, -1e-6]))


def test_random_density_rank_and_trace():
    rho = random_density(2, 4, seed=1)
    assert rho.rank == 4
    assert abs(np.trace(rho.matrix).real - 1) < 1e-12
    pure = random_density(1, 1, seed=2)
    np.testing.assert_allclose(np.sort(pure.eigen.values), [0.0, 1.0], atol=1e-12)


def test_random_density_bitwise_determinism():
    a = random_density(2, 3, seed=7)
    b = random_density(2, 3, seed=7)
    assert a.matrix.tobytes() == b.matrix.tobytes()


@pytest.mark.parametrize("qubits", range(1, 6))
def test_random_density_matches_the_full_qr_construction(qubits):
    # the first rank columns of the full QR, from the same draws
    d = 1 << qubits
    for rank in range(1, min(6, d) + 1):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, r = np.linalg.qr(g)
            q = q[:, :rank] * (np.diagonal(r)[:rank] / np.abs(np.diagonal(r)[:rank]))
            while True:
                p = rng.exponential(size=rank)
                p /= p.sum()
                if p.min() > 1e-6:
                    break
            full = (q * np.sort(p)[::-1]) @ q.conj().T
            got = random_density(qubits, rank, seed=seed).matrix
            assert np.max(np.abs(got - full)) <= 1e-12


def test_random_density_rank_range():
    with pytest.raises(RankOutOfRangeError):
        random_density(1, 3, seed=0)
    with pytest.raises(RankOutOfRangeError):
        random_density(1, 0, seed=0)


def test_purify_pure_state_is_product():
    p = purify(Z0, 1)
    amps = np.abs(p.factor.reshape(-1)) ** 2
    assert abs(amps[0] - 1.0) < 1e-12  # |0>|0> up to phase


def test_purify_maximally_mixed_schmidt():
    p = purify(HALF, 1)
    sv = np.linalg.svd(p.factor, compute_uv=False)
    np.testing.assert_allclose(sv, [1 / np.sqrt(2)] * 2, atol=1e-12)


@pytest.mark.parametrize("qubits,rank,anc", [(1, 2, 1), (2, 3, 2), (2, 4, 2), (3, 5, 3)])
def test_purify_round_trip(qubits, rank, anc):
    rho = random_density(qubits, rank, seed=rank * 10 + qubits)
    p = purify(rho, anc)
    assert operator_norm(p.traced_matrix() - rho.matrix) <= 1e-9


def test_purification_is_its_factor():
    rho = random_density(2, 3, seed=3)
    p = purify(rho, 2)
    assert p.factor.shape == (4, 4) and (p.system_qubits, p.garbage_qubits) == (2, 2)
    # row-major: the purified vector is sum_j sqrt(p_j) |u_j>|j>
    w, v = rho.eigen.values, rho.eigen.vectors
    psi = sum(np.sqrt(w[j]) * np.kron(v[:, j], np.eye(4)[j]) for j in range(3))
    np.testing.assert_allclose(p.factor.reshape(-1), psi, atol=1e-14)
    assert operator_norm(p.traced_matrix() - rho.matrix) <= 1e-14
    with pytest.raises(DimensionMismatchError):
        Purification(np.ones(4) / 2)
    with pytest.raises(DimensionMismatchError):
        Purification(np.ones((3, 2)) / np.sqrt(6))
    with pytest.raises(ValueError):
        Purification(np.ones((2, 2)))


def test_purify_insufficient_ancilla():
    with pytest.raises(InsufficientAncillaError):
        purify(random_density(2, 3, seed=1), 1)


def test_ancilla_qubits_for_a_rank():
    # ceil(log2 rank) qubits, and at least one
    assert [ancilla_qubits_for(r) for r in range(1, 10)] == [1, 1, 2, 2, 3, 3, 3, 3, 4]
    for rank in (1, 2, 3, 4):
        purify(random_density(2, rank, seed=rank), ancilla_qubits_for(rank))


def test_fidelity_closed_forms():
    rho = random_density(2, 3, seed=5)
    assert abs(fidelity_exact(rho, rho) - 1.0) <= 1e-9
    assert fidelity_exact(Z0, Z1) <= 1e-9
    assert abs(fidelity_exact(Z0, HALF) - 1 / np.sqrt(2)) <= 1e-9


def test_fidelity_symmetry_and_dimension_check():
    a = random_density(2, 2, seed=8)
    b = random_density(2, 4, seed=9)
    assert abs(fidelity_exact(a, b) - fidelity_exact(b, a)) <= 1e-9
    with pytest.raises(DimensionMismatchError):
        fidelity_exact(a, random_density(1, 1, seed=0))


@pytest.mark.parametrize("seed", range(10))
def test_uhlmann_fidelity_agrees_with_the_density_oracle(seed):
    n = 1 + seed % 3
    a = random_density(n, 1 + seed % (1 << n), seed=300 + seed)
    b = random_density(n, 1 + (seed + 1) % (1 << n), seed=350 + seed)
    pa, pb = purify(a, n), purify(b, n)
    # fidelity_exact takes square roots of rounding eigenvalues: ~1e-8 off here
    assert abs(uhlmann_fidelity(pa, pb) - fidelity_exact(a, b)) <= 1e-7
    assert abs(uhlmann_fidelity(pa, pb) - uhlmann_fidelity(pb, pa)) <= 1e-14
    with pytest.raises(DimensionMismatchError):
        uhlmann_fidelity(pa, purify(random_density(n + 1, 1, seed=0), 1))


def test_trace_distance_needs_equal_qubit_counts():
    with pytest.raises(DimensionMismatchError, match="1 vs 2 qubits"):
        trace_distance(Z0, random_density(2, 1, seed=1))


def test_trace_distance_examples():
    assert trace_distance(Z0, Z0) <= 1e-12
    assert abs(trace_distance(Z0, Z1) - 1.0) <= 1e-12


@pytest.mark.parametrize("seed", range(25))
def test_fuchs_van_de_graaf_and_faithfulness(seed):
    n = 1 + seed % 3
    a = random_density(n, 1 + seed % (1 << n), seed=400 + seed)
    b = random_density(n, 1 + (seed + 2) % (1 << n), seed=500 + seed)
    f = fidelity_exact(a, b)
    d = trace_distance(a, b)
    assert d <= np.sqrt(max(0.0, 1 - f * f)) + 1e-9
    assert -1e-9 <= f <= 1 + 1e-9
    # F = 1 iff zero trace distance, within tolerance
    if d < 1e-10:
        assert f > 1 - 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_purification_norm_dominates_operator_norm(seed):
    n = 1 + seed % 2
    a = random_density(n, 1 + seed % (1 << n), seed=600 + seed)
    b = random_density(n, 1 + (seed + 1) % (1 << n), seed=700 + seed)
    pa, pb = purify(a, n), purify(b, n)
    assert operator_norm(a.matrix - b.matrix) <= np.linalg.norm(pa.factor - pb.factor) + 1e-9


def test_serialization_round_trip(tmp_path):
    rho = random_density(2, 3, seed=11)
    text = json.dumps(rho.to_json_dict())
    back = DensityOperator.from_json_dict(json.loads(text))
    assert operator_norm(rho.matrix - back.matrix) <= 1e-15
    path = tmp_path / "rho.json"
    rho.save(str(path))
    assert operator_norm(DensityOperator.load(str(path)).matrix - rho.matrix) <= 1e-15

import json

import numpy as np
import pytest

from fidest import (
    DensityOperator,
    fidelity_exact,
    operator_norm,
    purify,
    random_density,
    trace_distance,
)
from fidest.errors import (
    DimensionMismatchError,
    InsufficientAncillaError,
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


def test_random_density_rank_range():
    with pytest.raises(RankOutOfRangeError):
        random_density(1, 3, seed=0)
    with pytest.raises(RankOutOfRangeError):
        random_density(1, 0, seed=0)


def test_purify_pure_state_is_product():
    p = purify(Z0, 1)
    amps = np.abs(p.state) ** 2
    assert abs(amps[0] - 1.0) < 1e-12  # |0>|0> up to phase


def test_purify_maximally_mixed_schmidt():
    p = purify(HALF, 1)
    sv = np.linalg.svd(p.state.reshape(2, 2), compute_uv=False)
    np.testing.assert_allclose(sv, [1 / np.sqrt(2)] * 2, atol=1e-12)


@pytest.mark.parametrize("qubits,rank,anc", [(1, 2, 1), (2, 3, 2), (2, 4, 2), (3, 5, 3)])
def test_purify_round_trip(qubits, rank, anc):
    rho = random_density(qubits, rank, seed=rank * 10 + qubits)
    p = purify(rho, anc)
    assert operator_norm(p.traced_matrix() - rho.matrix) <= 1e-9


def test_purify_insufficient_ancilla():
    with pytest.raises(InsufficientAncillaError):
        purify(random_density(2, 3, seed=1), 1)


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
    assert operator_norm(a.matrix - b.matrix) <= np.linalg.norm(pa.state - pb.state) + 1e-9


def test_serialization_round_trip(tmp_path):
    rho = random_density(2, 3, seed=11)
    text = json.dumps(rho.to_json_dict())
    back = DensityOperator.from_json_dict(json.loads(text))
    assert operator_norm(rho.matrix - back.matrix) <= 1e-15
    path = tmp_path / "rho.json"
    rho.save(str(path))
    assert operator_norm(DensityOperator.load(str(path)).matrix - rho.matrix) <= 1e-15


def test_purification_serialization_round_trip(tmp_path):
    from fidest import Purification

    p = purify(random_density(2, 3, seed=13), 2).split_system(("system", 1), ("encoding", 1))
    path = tmp_path / "prep.json"
    p.save(str(path))
    back = Purification.load(str(path))
    assert back.layout == p.layout and back.garbage == p.garbage
    assert np.array_equal(back.state, p.state)
    with pytest.raises(ValueError):
        Purification.from_json_dict({"kind": "density"})
    short = dict(p.to_json_dict(), entries=p.to_json_dict()["entries"][:-1])
    with pytest.raises(ValueError):
        Purification.from_json_dict(short)


def test_split_system_relabels_the_same_matrix():
    rho = random_density(2, 2, seed=12)
    p = purify(rho, 1)
    q = p.split_system(("system", 1), ("encoding", 1))
    assert q.layout.names == ("system", "encoding", "garbage")
    assert np.array_equal(q.state, p.state)
    with pytest.raises(DimensionMismatchError):
        p.split_system(("system", 3),)

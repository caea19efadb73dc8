"""The verification suites' own helpers: the random pairs the Weyl suite
draws, and the phase-estimation grid the coefficient suites share."""

import numpy as np

from fidest import verify


def test_low_rank_pair_is_a_unitary_rotation_and_a_jitter_apart():
    """The perturbed operator is the target's eigenvectors rotated by a
    unitary, with each eigenvalue moved by at most ``scale``: so its sorted
    spectrum is within ``scale`` of the target's, and its rank is at most
    ``rank``."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim, rank, scale = 8, 4, 0.05
        target, perturbed = verify.random_low_rank_pair(dim, rank, scale, rng)
        w_target = np.linalg.eigvalsh(target)[::-1]
        w_perturbed = np.linalg.eigvalsh(perturbed)[::-1]
        assert np.max(np.abs(w_perturbed - w_target)) <= scale + 1e-12
        assert np.max(np.abs(w_perturbed[rank:])) <= 1e-12


def test_verify_all_computes_the_pe_grid_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return closed(*args)

    closed = verify.pe_coefficient
    monkeypatch.setattr(verify, "pe_coefficient", counted)
    verify.pe_coefficient_deviations.cache_clear()
    results = verify.run_suite("all")
    assert all(r.passed for r in results) and len(results) == 19
    assert len(calls) == 100 * 3  # one row of k per lambda, 100 lambdas at each t = 8, 16, 32

"""The reference model on cases with closed forms, and the report checks."""

import math

import numpy as np
import pytest

import reference as R


def _diagonal_factors(p, q):
    return np.diag(np.sqrt(p)).astype(complex), np.diag(np.sqrt(q)).astype(complex)


@pytest.mark.parametrize("seed", range(5))
def test_uhlmann_matches_commuting_closed_form(seed):
    rng = np.random.default_rng(seed)
    p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
    a, b = _diagonal_factors(p, q)
    assert R.uhlmann_fidelity(a, b) == pytest.approx(np.sum(np.sqrt(p * q)), abs=1e-14)


def test_uhlmann_is_frame_and_factor_invariant():
    rng = np.random.default_rng(7)
    a, b = R.random_factor(rng, 2, 2), R.random_factor(rng, 2, 3)
    u, v = R.haar_unitary(rng, 4), R.haar_unitary(rng, 3)
    assert R.uhlmann_fidelity(u @ a, u @ b) == pytest.approx(R.uhlmann_fidelity(a, b), abs=1e-13)
    assert R.uhlmann_fidelity(a, b @ v) == pytest.approx(R.uhlmann_fidelity(a, b), abs=1e-13)


def test_ideal_stages_on_the_main_branch_give_the_fidelity():
    # Commuting states, every eigenvalue above both cutoffs: x = F / (16 sqrt(k k_s)).
    p, q = np.array([0.6, 0.4]), np.array([0.7, 0.3])
    a, b = _diagonal_factors(p, q)
    kappa_sigma, kappa = 64.0, 1 << 16
    pred = R.predict(a, b, kappa_sigma, 1 << 20, kappa, 1 << 20, False, False)
    scale = 16.0 * math.sqrt(kappa * kappa_sigma)
    assert pred.x * scale == pytest.approx(np.sum(np.sqrt(p * q)), rel=1e-12)
    assert pred.w_sigma_error == pytest.approx(0.0, abs=1e-15)


def test_cutoff_discards_the_spectrum():
    # kappa_sigma = 2^26, kappa = 2^30: block eigenvalues mu / 2^30 < 1/(2 kappa)
    # whenever mu < 1/2, so x is exactly 0 (the practical-schedule fault).
    p, q = np.array([0.5, 0.5]), np.array([0.5, 0.5])
    a, b = _diagonal_factors(p, q)
    pred = R.predict(a, b, float(1 << 26), 1 << 30, float(1 << 30), 1 << 30, False, False)
    assert pred.x == 0.0


def _pe_direct(lam, t):
    """QFT^dagger applied to the phased sine window, one term at a time."""
    T = 1 << R.pe_register(t)
    theta = t / (3.0 * T) * lam + 2.0 * math.pi / 3.0
    out = []
    for k in range(T):
        acc = 0j
        for tau in range(T):
            window = math.sqrt(2.0 / T) * math.sin(math.pi * (tau + 0.5) / T)
            acc += np.exp(-2j * math.pi * k * tau / T) / math.sqrt(T) * np.exp(1j * tau * theta) * window
        out.append(acc)
    return np.array(out)


@pytest.mark.parametrize("t", [6, 8, 12, 16, 100])
def test_pe_amplitudes_match_direct_dft_sum(t):
    lams = np.array([0.0, 0.013, 0.25, 0.5, 0.999])
    amps = R.pe_amplitudes(lams, t)
    for row, lam in zip(amps, lams):
        np.testing.assert_allclose(row, _pe_direct(lam, t), atol=1e-13)
        assert np.sum(np.abs(row) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_circuit_gain_tends_to_the_filter_as_t_grows():
    lam = np.array([0.3, 0.7])
    ideal = R.stage_gain(lam, 4.0, 1 << 20, circuit=False)
    assert np.max(np.abs(R.stage_gain(lam, 4.0, 1 << 12, circuit=True) - ideal)) < 1e-2


def test_qae_law_and_outcome_sets():
    m, x = 64, 0.3
    law = R.qae_law(x, m)
    assert law.sum() == pytest.approx(1.0)
    peak = int(np.argmax(law))
    assert R.likely_outcomes(x, m)[peak]
    assert abs(math.sin(math.pi * peak / m) ** 2 - x) <= R.qae_error_bound(x, m)
    assert R.grid_outcomes(math.sin(math.pi * 5 / m) ** 2, m) == (5, m - 5)
    assert R.grid_outcomes(0.3, m) == ()
    # On a grid point the law is a point mass on y and M - y.
    on_grid = R.qae_law(math.sin(math.pi * 5 / m) ** 2, m)
    assert on_grid[5] + on_grid[m - 5] == pytest.approx(1.0)


def test_query_model():
    # t = 8: l = 3, T = 8, t/3T = 1/3, so ceil(2^i / 3) + 1 = 2, 2, 3.
    assert R.preparer_queries(8) == 1 + 4 * 7
    assert R.oracle_queries(8, 8, 4) == (9 * 29, 9 * 29 * 2 * 29)

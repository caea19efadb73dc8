import tracemalloc

import numpy as np
import pytest

from fidest import (
    QaeParams,
    basis_state,
    exact_amplitude,
    layout,
    qae_estimate,
    qae_outcome_distribution,
    qae_error_bound,
)
from fidest.errors import OutOfRangeError, UnknownSegmentError


def test_params_validation():
    with pytest.raises(ValueError):
        QaeParams(M=1)
    with pytest.raises(ValueError):
        QaeParams(M=24, mode="sample")  # power of two required when sampling
    with pytest.raises(ValueError):
        QaeParams(M=8, mode="bogus")
    QaeParams(M=24, mode="exact")  # any M >= 2 in exact mode


def test_exact_amplitude_all_zeros():
    lay = layout(("a", 1), ("b", 1))
    assert exact_amplitude(basis_state(lay), lay, ["a", "b"]) == 1.0


def test_exact_amplitude_born_rule():
    lay = layout(("q", 1),)
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    assert abs(exact_amplitude(v, lay, ["q"]) - 0.5) <= 1e-12


def test_exact_amplitude_density_path():
    lay = layout(("a", 1), ("b", 1))
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    assert abs(exact_amplitude(rho, lay, ["b"]) - (0.1 + 0.3)) <= 1e-12
    with pytest.raises(UnknownSegmentError):
        exact_amplitude(rho, lay, ["nope"])


def test_qae_endpoints():
    for mode in ("exact", "sample"):
        qp = QaeParams(M=64, mode=mode, seed=1)
        assert qae_estimate(0.0, qp) == 0.0
        assert qae_estimate(1.0, qp) == 1.0
    with pytest.raises(OutOfRangeError):
        qae_estimate(1.5, QaeParams(M=8))


@pytest.mark.parametrize("M", [8, 64, 1024])
def test_exact_mode_error_bound(M):
    xs = np.linspace(0, 1, 1500)
    for x in xs:
        xt = qae_estimate(float(x), QaeParams(M=M))
        assert abs(xt - x) <= qae_error_bound(float(x), M) + 1e-12


def test_sample_estimates_lie_on_grid():
    M = 32
    grid = np.sin(np.pi * np.arange(M) / M) ** 2
    for seed in range(50):
        xt = qae_estimate(0.37, QaeParams(M=M, mode="sample", seed=seed))
        assert np.min(np.abs(grid - xt)) <= 1e-15


def test_sample_mode_deterministic_per_seed():
    qp = QaeParams(M=64, mode="sample", seed=11)
    assert qae_estimate(0.3, qp) == qae_estimate(0.3, qp)


def test_outcome_distribution_normalized_and_peaked():
    p = qae_outcome_distribution(0.5, 64)
    assert abs(p.sum() - 1) <= 1e-12
    # x = 0.5 sits exactly on the grid: the two eigenphase outcomes y=16, 48
    # split the mass and both decode to 0.5
    assert p[16] > 0.49 and p[48] > 0.49
    assert abs(qae_estimate(0.5, QaeParams(M=64, mode="sample", seed=0)) - 0.5) <= 1e-12


@pytest.mark.parametrize("x", [0.5, 0.31])
def test_sample_success_probability(x):
    M, trials = 64, 600
    bound = qae_error_bound(x, M)
    hits = sum(
        abs(qae_estimate(x, QaeParams(M=M, mode="sample", seed=s)) - x) <= bound
        for s in range(trials)
    )
    assert hits / trials >= 8 / np.pi**2 - 0.05


def _loop_law(x, M):
    """The outcome law one grid point at a time: the reference for the
    vectorised qae_outcome_distribution."""
    def kernel(d):
        s = np.sin(np.pi * d)
        return 1.0 if abs(s) < 1e-15 else float((np.sin(np.pi * M * d) / (M * s)) ** 2)

    omega = np.arcsin(np.sqrt(x)) / np.pi
    if x in (0.0, 1.0):
        p = np.array([kernel(omega - y / M) for y in range(M)])
    else:
        p = np.array([0.5 * (kernel(omega - y / M) + kernel(-omega - y / M)) for y in range(M)])
    return p / p.sum()


@pytest.mark.parametrize("x,M", [(0.0, 8), (1.0, 64), (0.5, 64), (0.31, 64), (1e-9, 1024)])
def test_outcome_distribution_matches_loop_reference(x, M):
    law, ref = qae_outcome_distribution(x, M), _loop_law(x, M)
    assert np.max(np.abs(law - ref)) <= 1e-15  # a few ulp: sin may round differently in bulk
    for seed in range(200):
        draws = [int(np.random.default_rng(seed).choice(M, p=p)) for p in (law, ref)]
        assert draws[0] == draws[1]


@pytest.mark.parametrize("M", [8, 64, 1024, 4096])
def test_sample_draws_match_the_loop_law(M):
    """Each seed draws the outcome rng.choice draws from the loop law: at the
    endpoints, on grid points (a zero kernel denominator) and at random x."""
    xs = [0.0, 1.0, 0.5, 1e-9] + [float(np.sin(np.pi * k / M) ** 2) for k in (1, 3, M // 4 - 1)]
    xs += [float(v) for v in np.random.default_rng(M).random(8)]
    for x in xs:
        ref = _loop_law(x, M)
        for seed in range(30):
            y = int(np.random.default_rng(seed).choice(M, p=ref))
            got = qae_estimate(x, QaeParams(M=M, mode="sample", seed=seed))
            assert got == float(np.sin(np.pi * y / M) ** 2), (x, seed)


def test_sampled_estimate_peak_memory():
    """The law is built in place: one sampled estimate holds at most three
    M-length float arrays at once, the law and rng.choice's cumulative sum
    included."""
    M = 1 << 20
    qae_estimate(0.31, QaeParams(M=8, mode="sample"))  # first-call allocations
    tracemalloc.start()
    try:
        qae_estimate(0.31, QaeParams(M=M, mode="sample", seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * M

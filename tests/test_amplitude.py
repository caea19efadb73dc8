import math
import tracemalloc

import numpy as np
import pytest
from blockwise_draw import BLOCK, BlockwiseDraw

from fidest import (
    QaeParams,
    qae_estimate,
    qae_outcome_distribution,
    qae_error_bound,
)
from fidest import amplitude
from fidest.errors import OutOfRangeError


def test_params_validation():
    with pytest.raises(ValueError):
        QaeParams(M=1)
    with pytest.raises(ValueError):
        QaeParams(M=24, mode="sample")  # power of two required when sampling
    with pytest.raises(ValueError):
        QaeParams(M=8, mode="bogus")
    QaeParams(M=24, mode="exact")  # any M >= 2 in exact mode


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


@pytest.mark.parametrize("M", [24, 100, 101])
def test_outcome_distribution_on_any_grid_size(M):
    """For M not a power of two, even or odd, the law has M outcomes, is
    symmetric bit for bit, sums to 1 and gives the loop law's rng.choice draws
    (whose own values err by about 3e-13 at M = 101, so they are not compared
    at 1e-15): at the endpoints, on a grid point and at random x."""
    xs = [0.0, 1.0, 0.5, 1e-9, 1 - 1e-9, float(np.sin(np.pi * 3 / M) ** 2)]
    xs += [float(v) for v in np.random.default_rng(M).random(4)]
    for x in xs:
        law, ref = qae_outcome_distribution(x, M), _loop_law(x, M)
        assert len(law) == M
        assert np.array_equal(law[1:], law[:0:-1]), x
        assert abs(law.sum() - 1.0) <= 1e-15, x
        for seed in range(200):
            draws = [int(np.random.default_rng(seed).choice(M, p=p)) for p in (law, ref)]
            assert draws[0] == draws[1], (x, seed)


def _addition_formula_law(omega, M, y):
    """The doubled law with kernel B's sine taken by the addition formula,
    sin(pi (omega + y/M)) = sin(pi omega) cos(pi y/M) + cos(pi omega) sin(pi y/M),
    a sum of two non-negative terms for small y: accurate to a few ulp
    without any rule for the angle."""
    num = (np.sin(np.pi * M * omega) / M) ** 2
    a = np.sin(np.pi * (omega - y / M))
    b = np.sin(np.pi * omega) * np.cos(np.pi * y / M) + np.cos(np.pi * omega) * np.sin(np.pi * y / M)
    return num / a**2 + num / b**2


@pytest.mark.parametrize("x", [1e-9, 4.904e-7, 1 - 1e-9])
@pytest.mark.parametrize("M", [1 << 16, 1 << 17, 1 << 22])
def test_law_near_y0_matches_addition_formula(x, M):
    """Near y = 0 kernel B's angle must be taken as omega + y/M: as omega -
    (M - y)/M, near -1, it carries an absolute rounding of 1e-16 against an
    angle of order y/M, 6e-12 relative in the law at x = 1e-9, M = 2^22."""
    omega, y = _omega(x), np.arange(256)
    want = _addition_formula_law(omega, M, y)
    assert np.max(np.abs(amplitude._law(omega, M, y) / want - 1.0)) <= 1e-15


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


@pytest.mark.parametrize("M", [1 << 15, 1 << 17])
def test_multi_block_draws_match_rng_choice(M):
    """Draws whose law spans several blocks are the ones rng.choice draws
    from the whole law: at the endpoints, next to them, on grid points with
    k at block edges and at window edges (where the pole's window meets an
    end window or leaves a gap of one window), and at random x."""
    block, w, half = BLOCK, amplitude._WINDOW, M // 2
    edges = (1, block - 1, block, block + 1, 2 * block, 2 * block + 1, M // 2 - 1, M // 2)
    edges += (w, w + 1, w + 2, 3 * w + 1, 3 * w + 2, half - w - 1, half - w, half - 3 * w - 2,
              half - 3 * w - 1)
    xs = [0.0, 1.0, 0.5, 1e-9, 1 - 1e-9]
    xs += [float(np.sin(np.pi * k / M) ** 2) for k in edges if k <= M // 2]
    xs += [float(v) for v in np.random.default_rng(M).random(6)]
    for x in xs:
        law = qae_outcome_distribution(x, M)
        for seed in range(25):
            y = int(np.random.default_rng(seed).choice(M, p=law))
            got = qae_estimate(x, QaeParams(M=M, mode="sample", seed=seed))
            assert got == float(np.sin(np.pi * y / M) ** 2), (x, seed)


def test_sampled_estimate_peak_memory():
    """A sampled estimate computes the law on windows of a few hundred
    points, never an M-length array: its peak does not grow with M."""
    qae_estimate(0.31, QaeParams(M=8, mode="sample"))  # first-call allocations
    for M in (1 << 20, 1 << 22):
        tracemalloc.start()
        try:
            qae_estimate(0.31, QaeParams(M=M, mode="sample", seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20, M


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0, 0.0])
def test_sampled_draw_rejects_a_bad_law(monkeypatch, value):
    """The checks rng.choice made are kept: the law is finite and
    non-negative, and its total is positive, for the points computed one by
    one and for the gaps summed in closed form."""
    monkeypatch.setattr(amplitude, "_law", lambda omega, M, y: np.full(len(y), value))
    monkeypatch.setattr(amplitude, "_gap_sum", lambda omega, M, lo, hi: value)
    with pytest.raises(ValueError):
        qae_estimate(0.31, QaeParams(M=1 << 15, mode="sample"))


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
def test_sampled_draw_rejects_a_bad_gap_sum(monkeypatch, value):
    """A gap sum is checked on its own: with the kernel values intact, a gap
    sum that is not finite and non-negative raises."""
    monkeypatch.setattr(amplitude, "_gap_sum", lambda omega, M, lo, hi: value)
    with pytest.raises(ValueError):
        qae_estimate(0.31, QaeParams(M=1 << 15, mode="sample"))


def _omega(x):
    return float(np.arcsin(np.sqrt(x)) / np.pi)


def _gaps(omega, M):
    """The gaps [lo, hi) between the windows a sampled draw computes point by
    point."""
    w = amplitude._windows(omega, M)
    return [(a[1], b[0]) for a, b in zip(w, w[1:])]


def test_windowed_draw_matches_blockwise_oracle():
    """The windowed draw gives the blockwise draw's outcome for 2,016 random
    (x, M, u), M from 2^3 to 2^26."""
    rng = np.random.default_rng(14)
    cases = 0
    for e in range(3, 27):
        M = 1 << e
        for x in rng.random(4 if e <= 22 else 1):
            omega = _omega(x)
            oracle = BlockwiseDraw(omega, M)
            for u in rng.random(24):
                assert amplitude._sample_outcome(omega, M, u) == oracle(u), (x, M, u)
                cases += 1
    assert cases >= 2000


def _edge_and_gap_outcomes(omega, M):
    """Outcomes that force each path: both sides of every window edge, and
    points inside every gap, with their mirror images."""
    half, ys = M // 2, set()
    for lo, hi in amplitude._windows(omega, M):
        ys.update({lo - 1, lo, lo + 1, hi - 2, hi - 1, hi})
    for lo, hi in _gaps(omega, M):
        ys.update({lo + (hi - lo) // 3, hi - 1 - (hi - lo) // 5})
    ys = {y for y in ys if 0 <= y <= half}
    return sorted(ys | {M - y for y in ys if 0 < y < half})


@pytest.mark.parametrize("M", [1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 21])
def test_gap_and_window_edge_draws_match_blockwise_oracle(M):
    """A u chosen in the middle of one outcome's share of the blockwise law
    draws that outcome from the windowed law too: outcomes in every gap and
    mirror gap (the gap scan), on both sides of each window edge, at x = 0,
    1, 1e-9, 1 - 1e-9, on grid points and at random x."""
    xs = [0.0, 1.0, 1e-9, 1 - 1e-9, 0.5, float(np.sin(np.pi * 3 / M) ** 2)]
    xs += [float(np.sin(np.pi * k / M) ** 2) for k in (M // 8, 3 * amplitude._WINDOW + 2)]
    xs += [float(v) for v in np.random.default_rng(M).random(2)]
    gap_draws = 0
    for x in xs:
        omega = _omega(x)
        oracle = BlockwiseDraw(omega, M)
        gaps = _gaps(omega, M)
        for y in _edge_and_gap_outcomes(omega, M):
            lo, hi = oracle.bounds(y)
            if not hi > lo:
                continue  # no u draws y: a zero-probability outcome
            u = (lo + hi) / 2
            assert oracle(u) == y
            assert amplitude._sample_outcome(omega, M, u) == y, (x, y)
            gap_draws += any(a <= min(y, M - y) < b for a, b in gaps)
    assert gap_draws >= (4 if M > 8 * amplitude._WINDOW else 0)  # no gaps below


def test_large_grid_gap_draws_agree_up_to_rounding():
    """At M = 2^24 one outcome in a far gap holds about 1e-15 of the law,
    which a float64 cumulative sum over 2^23 points does not resolve, so the
    two draws may differ there by a grid point (where they differed, a
    correctly rounded cumulative sum sided with the windowed draw in four of
    four cases inspected).  The windowed outcome is the blockwise one for a
    u within 4e-15 of the given one."""
    M = 1 << 24
    omega = _omega(0.31)
    oracle = BlockwiseDraw(omega, M)
    for lo, hi in _gaps(omega, M):
        for y in ((lo + hi) // 2, M - (lo + hi) // 2):
            a, b = oracle.bounds(y)
            u = (a + b) / 2
            a, b = oracle.bounds(amplitude._sample_outcome(omega, M, u))
            assert a - 4e-15 <= u < b + 4e-15, y


def _direct_gap_sum(omega, M, lo, hi):
    """The doubled law over a gap, point by point, summed exactly (fsum) on
    the same exact-near-the-pole angles as the closed form."""
    y = np.arange(lo, hi, dtype=float)
    terms = np.sin(np.pi * (omega - y / M)) ** -2
    if 0.0 < omega < 0.5:
        d = np.where(omega + y / M <= 0.5, omega + y / M, omega - (M - y) / M)
        terms = np.concatenate([terms, np.sin(np.pi * d) ** -2])
    else:
        terms = 2.0 * terms
    return float((np.sin(np.pi * M * omega) / M) ** 2) * math.fsum(terms.tolist())


def test_gap_sum_matches_direct_sums():
    rng = np.random.default_rng(3)
    checked = 0
    for e in range(10, 19):
        M = 1 << e
        for x in [1.0, 1e-9, 1 - 1e-9, *rng.random(6)]:
            omega = _omega(x)
            for lo, hi in _gaps(omega, M):
                want = _direct_gap_sum(omega, M, lo, hi)
                assert abs(amplitude._gap_sum(omega, M, lo, hi) - want) <= 1e-15 * want, (x, M, lo)
                checked += 1
    assert checked >= 100


def test_gap_draw_peak_memory():
    """A draw that falls in a gap halves it on closed-form sums: its
    tracemalloc peak stays under 2 MB at M = 2^22 (the gap spans about 10^6
    points)."""
    M, omega = 1 << 22, _omega(0.31)
    lo, hi = max(_gaps(omega, M), key=lambda g: g[1] - g[0])
    a, b = BlockwiseDraw(omega, M).bounds((lo + hi) // 2)
    amplitude._sample_outcome(omega, M, (a + b) / 2)  # first-call allocations
    tracemalloc.start()
    try:
        assert amplitude._sample_outcome(omega, M, (a + b) / 2) == (lo + hi) // 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def _gap_middle_u(omega, M, lo, hi):
    """The u at the middle of gap [lo, hi)'s share of the law: the doubled
    law's mass below lo plus half the gap's, over its total of 2 (each kernel
    sums to 1 over the M outcomes)."""
    windows = amplitude._windows(omega, M)
    below = amplitude._law(omega, M, np.arange(1)).sum()
    below += sum(amplitude._law(omega, M, np.arange(a, b)).sum() for a, b in windows if b <= lo)
    below += sum(amplitude._gap_sum(omega, M, a, b) for a, b in _gaps(omega, M) if b <= lo)
    return (below + amplitude._gap_sum(omega, M, lo, hi) / 2) / 2.0


def test_gap_draw_computes_few_law_points(monkeypatch):
    """A draw that falls in the largest gap at M = 2^26 (about 2^24 points)
    computes the law only on its windows and on the at most _WINDOW points
    that halving the gap leaves: under 6 _WINDOW points, not O(M)."""
    M, omega = 1 << 26, _omega(0.31)
    lo, hi = max(_gaps(omega, M), key=lambda g: g[1] - g[0])
    u, law, computed = _gap_middle_u(omega, M, lo, hi), amplitude._law, []

    def counting_law(omega, M, y):
        computed.append(len(y))
        return law(omega, M, y)

    monkeypatch.setattr(amplitude, "_law", counting_law)
    assert lo <= amplitude._sample_outcome(omega, M, u) < hi
    assert sum(computed) < 6 * amplitude._WINDOW

import math
import tracemalloc

import numpy as np
import pytest

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
        qp = QaeParams(M=64, mode=mode)
        assert qae_estimate(0.0, qp, seed=1) == 0.0
        assert qae_estimate(1.0, qp, seed=1) == 1.0
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
        xt = qae_estimate(0.37, QaeParams(M=M, mode="sample"), seed)
        assert np.min(np.abs(grid - xt)) <= 1e-15


def test_sample_mode_deterministic_per_seed():
    qp = QaeParams(M=64, mode="sample")
    assert qae_estimate(0.3, qp, seed=11) == qae_estimate(0.3, qp, seed=11)


@pytest.mark.parametrize("x", [-0.1, 1.5])
def test_outcome_distribution_rejects_x_outside_unit_interval(x):
    with pytest.raises(OutOfRangeError, match=f"x={x} outside"):
        qae_outcome_distribution(x, 64)


def test_outcome_distribution_normalized_and_peaked():
    p = qae_outcome_distribution(0.5, 64)
    assert abs(p.sum() - 1) <= 1e-12
    # x = 0.5 sits exactly on the grid: the two eigenphase outcomes y=16, 48
    # split the mass and both decode to 0.5
    assert p[16] > 0.49 and p[48] > 0.49
    assert abs(qae_estimate(0.5, QaeParams(M=64, mode="sample"), seed=0) - 0.5) <= 1e-12


@pytest.mark.parametrize("x", [0.5, 0.31])
def test_sample_success_probability(x):
    M, trials = 64, 600
    bound = qae_error_bound(x, M)
    qp = QaeParams(M=M, mode="sample")
    hits = sum(abs(qae_estimate(x, qp, s) - x) <= bound for s in range(trials))
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




def _omega(x):
    return float(np.arcsin(np.sqrt(x)) / np.pi)


def _chi2_sf(stat, dof):
    """P(chi^2 with dof degrees of freedom >= stat): the regularised upper
    gamma function Q(dof/2, stat/2), from Q(1/2, z) = erfc(sqrt z) or
    Q(1, z) = exp(-z) by Q(a + 1, z) = Q(a, z) + z^a exp(-z) / Gamma(a + 1)."""
    z, a = stat / 2.0, 0.5 if dof % 2 else 1.0
    q = math.erfc(math.sqrt(z)) if dof % 2 else math.exp(-z)
    term = math.exp(a * math.log(z) - z - math.lgamma(a + 1.0)) if z > 0 else 0.0
    while a < dof / 2:
        q, a = q + term, a + 1.0
        term *= z / a
    return q


def _chi2_p(draws, law):
    """Pearson's chi^2 p-value of the draws' outcome counts against the law:
    each outcome expected 5 or more times is a bin, the rest pool into one,
    folded into the smallest bin when it is expected fewer than 5 times."""
    counts, expected = np.bincount(draws, minlength=len(law)), len(draws) * law
    big = expected >= 5
    obs = [*counts[big], counts[~big].sum()]
    exp = [*expected[big], expected[~big].sum()]
    if exp[-1] < 5:
        k = int(np.argmin(exp[:-1]))
        obs[k], exp[k] = obs[k] + obs.pop(), exp[k] + exp.pop()
    if len(exp) == 1:
        return 1.0  # one bin holds the whole law: nothing to compare
    obs, exp = np.array(obs), np.array(exp)
    return _chi2_sf(float(np.sum((obs - exp) ** 2 / exp)), len(exp) - 1)


def test_chi2_sf_matches_known_quantiles():
    """chi^2 upper quantiles at 1e-3 (odd and even dof) and the exact tails
    at dof 1 and 2."""
    for dof, q in ((1, 10.828), (2, 13.816), (7, 24.322), (30, 59.703)):
        assert abs(_chi2_sf(q, dof) / 1e-3 - 1.0) <= 1e-3, dof
    assert abs(_chi2_sf(3.0, 1) - math.erfc(math.sqrt(1.5))) <= 1e-15
    assert abs(_chi2_sf(3.0, 2) - math.exp(-1.5)) <= 1e-15


@pytest.mark.parametrize("M", [2, 8, 64, 1024, 4096])
def test_sample_draws_match_the_loop_law(M):
    """20,000 draws at each x, from the endpoints to 1e-6 of them, follow
    the loop law: none falls on an outcome of probability below 1e-12, and
    Pearson's chi^2 p >= 1e-3 over outcomes pooled to an expected count of 5.  A sampler without the -omega branch, one that
    proposes floor(c) on both sides, and one that keeps offsets outside
    (-M/2, M/2] each fail it, by chi^2 or by the envelope check."""
    rng = np.random.default_rng(M)
    for x in (0.0, 1e-6, 1e-3, 0.31, 0.5, 1 - 1e-6, 1.0):
        draws, law = amplitude._outcomes(_omega(x), M, rng, 20_000), _loop_law(x, M)
        assert len(draws) == 20_000
        assert law[draws].min() >= 1e-12, x  # none where the law is nil
        assert _chi2_p(draws, law) >= 1e-3, x


@pytest.mark.parametrize("M", [2, 8, 1 << 12, 1 << 26])
def test_kernel_stays_under_its_envelope(M):
    """K(d) <= 1 / max(1, j (j + 1)) for the offsets d = f + j and f - 1 - j
    with |d| <= M/2 (d = +-M/2 included): j up to 2,000, then log-spaced and
    the last three before M/2, for fractional parts f of the poles +-M omega
    at x = 0, 1e-9, 1 - 1e-9 and 1, of d -> 0 (f = 0, 1e-200, 1e-12) and
    dense in [0, 1)."""
    j = np.unique(np.concatenate([np.arange(2001), np.geomspace(1, M, 200).astype(int),
                                  M // 2 - np.arange(3)]))
    poles = [s * M * _omega(x) % 1.0 for x in (0.0, 1e-9, 1 - 1e-9, 1.0) for s in (1, -1)]
    for f in poles + [0.0, 1e-200, 1e-12, 1 - 2**-53, *np.linspace(0, 1, 200, endpoint=False)]:
        for d in (f + j, f - 1.0 - j):
            keep = np.abs(d) <= M / 2
            ratio = amplitude._fejer(d[keep], M) * np.maximum(j[keep] * (j[keep] + 1.0), 1.0)
            assert np.all(ratio <= 1.0 + 1e-12), (f, d[keep][np.argmax(ratio)])


@pytest.mark.parametrize("value,raises", [(1 + 1e-13, False), (1 + 1e-9, True), (2.0, True),
                                          (np.inf, True), (np.nan, True)])
def test_sampled_draw_rejects_a_kernel_above_its_envelope(monkeypatch, value, raises):
    """The draw is exact only while K <= envelope: a kernel more than 1e-12
    relative above it, or not a number, raises; one within 1e-12 draws."""
    def kernel(d, M):
        j = np.where(d >= 0, np.floor(d), np.ceil(-d) - 1.0)  # the proposal's j
        return value / np.maximum(j * (j + 1.0), 1.0)

    monkeypatch.setattr(amplitude, "_fejer", kernel)
    qp = QaeParams(M=1 << 15, mode="sample")
    if raises:
        with pytest.raises(ValueError):
            qae_estimate(0.31, qp)
    else:
        qae_estimate(0.31, qp)


def test_sampled_estimate_peak_memory():
    """A sampled estimate proposes a few dozen offsets, never an M-length
    array: its peak does not grow with M."""
    qae_estimate(0.31, QaeParams(M=8, mode="sample"))  # first-call allocations
    for M in (1 << 20, 1 << 22):
        tracemalloc.start()
        try:
            qae_estimate(0.31, QaeParams(M=M, mode="sample"), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20, M

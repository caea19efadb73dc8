"""Workload definitions and the instances the benchmark feeds the program.

Every pair (rho, sigma) is a fixed base pair seen in a frame drawn from the
run's seed: rho = U A0 A0^dagger U^dagger and sigma = U B0 B0^dagger U^dagger
with U a Haar-random unitary.  The factors A0, B0 are drawn once from
BASE_SEED.  A common unitary leaves the fidelity, both spectra and every
quantity the estimator reads (x, the QAE outcome law, the estimate) unchanged,
so accuracy figures and sample-mode draws repeat from seed to seed while the
matrices the program works on change.  Per-seed instance variation would
otherwise dominate them: a run affords only a few costly estimates, and one
sampled amplitude-estimation outcome has 1/k^2 tails.

Only numpy is imported here; the parent process uses these factors to check
the program's reports and never imports the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reference import haar_unitary, random_factor

BASE_SEED = 2103_09076


@dataclass(frozen=True)
class Case:
    """One estimate_fidelity call of a round.

    ``eps`` set: parameters from the practical schedule for that target
    error.  ``explicit`` set: (kappa_sigma, t_sigma, kappa, t, qae_m).
    ``check_eps``: the estimate must land within eps of F_ref; an estimate
    that does not is a failed operation.
    """

    n: int
    rank_rho: int
    rank_sigma: int
    sim_level: str = "ideal-spectral"
    qae_mode: str = "exact"
    eps: float | None = None
    explicit: tuple | None = None
    ancillas: tuple[int, int] | None = None  # (rho, sigma); None: ceil(log2 rank), at least 1
    check_eps: bool = False


def ancillas(case: Case) -> tuple[int, int]:
    if case.ancillas is not None:
        return case.ancillas
    return tuple(max(1, (max(r, 2) - 1).bit_length()) for r in (case.rank_rho, case.rank_sigma))


def _practical(n, rr, rs, eps):
    return Case(n, rr, rs, eps=eps, check_eps=True)


# ideal-practical: ideal-spectral level, practical schedule, exact QAE but
# for the last call.  The two eps = 0.1, rank-2 pairs hit the
# practical-schedule fault (kappa capped at 2^30, the filter cutoff discards
# the whole eta spectrum, estimate 0); they stay in the round and count as
# failed until the schedule is fixed.  The last call samples its QAE outcome
# (M = 2^17), which puts the amplitude layer's Python loop on the estimate
# path; its eps is not checked, since one sampled outcome has 1/k^2 tails.
IDEAL_PRACTICAL = (
    _practical(1, 1, 2, 0.5),
    _practical(1, 2, 2, 0.3),
    _practical(1, 1, 1, 0.2),
    _practical(2, 1, 2, 0.4),
    _practical(2, 2, 4, 0.5),
    _practical(2, 1, 4, 0.2),
    _practical(3, 1, 2, 0.3),
    _practical(3, 2, 4, 0.5),
    _practical(1, 2, 2, 0.1),
    _practical(2, 2, 2, 0.1),
    Case(1, 1, 2, qae_mode="sample", eps=0.6),
)

# circuit-pe: one circuit-level sigma stage (pure states purified without
# ancillas: a 10-qubit W from the extraction circuit, eta at 10 qubits falls
# back to ideal) and one circuit-level eta stage (t_sigma too deep for a
# circuit W, so W is ideal; eta circuit at 11 qubits).
CIRCUIT_PE = (
    Case(1, 1, 1, sim_level="circuit-pe", explicit=(4.0, 8, 256.0, 1 << 16, 1024),
         ancillas=(0, 0)),
    Case(1, 1, 2, sim_level="circuit-pe", explicit=(4.0, 1 << 20, 256.0, 12, 1024)),
)

WORKLOADS = {
    "ideal-practical": IDEAL_PRACTICAL,
    "circuit-pe": CIRCUIT_PE,
}


@dataclass(frozen=True)
class Pair:
    index: int
    case: Case
    a: np.ndarray  # rho = a a^dagger
    b: np.ndarray  # sigma = b b^dagger
    estimate_seed: int


def make_pairs(workload: str, seed: int) -> list[Pair]:
    """The round of ``workload`` for ``seed``: base factors rotated into a
    seed-drawn frame.  Same seed, same matrices."""
    key = list(WORKLOADS).index(workload)
    out = []
    for i, case in enumerate(WORKLOADS[workload]):
        base = np.random.default_rng([BASE_SEED, key, i])
        a0 = random_factor(base, case.n, case.rank_rho)
        b0 = random_factor(base, case.n, case.rank_sigma)
        u = haar_unitary(np.random.default_rng([seed, i]), 1 << case.n)
        out.append(Pair(index=i, case=case, a=u @ a0, b=u @ b0, estimate_seed=i))
    return out

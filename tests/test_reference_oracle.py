"""Drawn instances checked against the benchmark's independent reference
model (``perfbench/reference.py``, which imports nothing from fidest), and a
ledger naming the check that covers every report field.

Hypothesis draws the calls, derandomized so every run checks the same
examples: n 1-3, each rank 1-3, both levels, both QAE modes, perturbation 0,
and knobs from small sets that put each stage at either level.  The factors
come from ``reference.random_factor`` and are purified as the benchmark's
child process purifies them.
"""

import math
import os
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from fidest import (  # noqa: E402
    DensityOperator, PipelineParams, QaeParams, estimate_fidelity, purify,
)
from fidest.errors import RegisterTooLargeError  # noqa: E402
from fidest.pipeline import SIM_LEVELS, EstimationReport  # noqa: E402
from fidest.registers import DEFAULT_QUBIT_BUDGET  # noqa: E402

CHECK = "run.check_report: "
FORMULA = "formula in this file: "
ECHO = "echo of the input"
LEDGER = {
    "n": ECHO,
    "rank_rho": FORMULA + "the smaller input rank",
    "rank_sigma": FORMULA + "the larger input rank",
    "rank_r": FORMULA + "equals rank_rho",
    "swapped": CHECK + "the role order of the x and w_sigma_error predictions; "
    + FORMULA + "rho's rank is the larger, when the ranks differ",
    "sim_level_sigma": CHECK + "the sigma-stage gain of the predictions; "
    + FORMULA + "the register rule",
    "sim_level_eta": CHECK + "the eta-stage gain of the x prediction; " + FORMULA
    + "the register rule",
    "kappa_sigma": ECHO,
    "t_sigma": ECHO,
    "kappa": ECHO,
    "t": ECHO,
    "qae_m": ECHO,
    "qae_mode": ECHO,
    "seed": ECHO,
    "x": CHECK + "reference.predict",
    "x_tilde": CHECK + "a grid point, within the QAE bound (exact) or in the likely set (sampled)",
    "estimate": CHECK + "16 sqrt(kappa kappa_sigma) x_tilde",
    "exact_fidelity": CHECK + "reference.uhlmann_fidelity",
    "abs_error": FORMULA + "|estimate - F_ref|",
    "delta": FORMULA + "reference.qae_error_bound(x, M)",
    "delta_from_estimate": FORMULA + "reference.qae_error_bound(x_tilde, M)",
    "analytic_bound": FORMULA + "analytic_error_bound's docstring",
    "bound_constant": ECHO,
    "w_sigma_error": CHECK + "reference.predict",
    "eta_block_error": FORMULA + "|| D C C^dagger D - S C C^dagger S / (16 kappa_sigma) ||",
    "queries_o_rho": CHECK + "reference.oracle_queries",
    "queries_o_sigma": CHECK + "reference.oracle_queries",
}


@st.composite
def drawn_pairs(draw):
    """A benchmark pair: an instance with its level, QAE mode and knobs."""
    n = draw(st.integers(1, 3))
    rank_rho = draw(st.integers(1, min(3, 1 << n)))
    rank_sigma = draw(st.integers(1, min(3, 1 << n)))
    case = workloads.Case(
        n, rank_rho, rank_sigma,
        sim_level=draw(st.sampled_from(SIM_LEVELS)),
        qae_mode=draw(st.sampled_from(["exact", "sample"])),
        explicit=(  # kappa_sigma, t_sigma, kappa, t, M
            draw(st.sampled_from([1.0, 2.0, 4.0, 16.0])),
            draw(st.sampled_from([6, 8, 16, 64, 4096])),
            draw(st.sampled_from([4.0, 64.0, 256.0])),
            draw(st.sampled_from([6, 12, 64, 1024])),
            draw(st.sampled_from([16, 256, 1024])),
        ),
    )
    seed = draw(st.integers(0, 1 << 16))
    rng = np.random.default_rng(seed)
    a = reference.random_factor(rng, n, rank_rho)
    b = reference.random_factor(rng, n, rank_sigma)
    return workloads.Pair(index=0, case=case, a=a, b=b, estimate_seed=seed)


def _estimate(pair: workloads.Pair, qubit_budget: int = DEFAULT_QUBIT_BUDGET) -> EstimationReport:
    kappa_sigma, t_sigma, kappa, t, qae_m = pair.case.explicit
    params = PipelineParams(
        kappa_sigma=kappa_sigma, t_sigma=t_sigma, kappa=kappa, t=t,
        qae=QaeParams(M=qae_m, mode=pair.case.qae_mode), sim_level=pair.case.sim_level,
        qubit_budget=qubit_budget,
    )
    rho_anc, sigma_anc = workloads.ancillas(pair.case)
    rho = purify(DensityOperator(pair.a @ pair.a.conj().T), rho_anc)
    sigma = purify(DensityOperator(pair.b @ pair.b.conj().T), sigma_anc)
    return estimate_fidelity(rho, sigma, params, seed=pair.estimate_seed)


def _expected_levels(pair: workloads.Pair, swapped: bool) -> tuple[str, str]:
    """The register rule: a stage runs its circuit when every register that
    choice commits the estimate to fits the budget.  W's register is
    2 (n + l_sigma + 1) plus sigma's garbage (l_sigma = 0 for an ideal W),
    eta's is W's plus rho's garbage, and eta's circuit adds l + 1."""
    if pair.case.sim_level != "circuit-pe":
        return "ideal-spectral", "ideal-spectral"
    n, (_, t_sigma, _, t, _) = pair.case.n, pair.case.explicit
    b_rho, b_sigma = workloads.ancillas(pair.case)[::-1 if swapped else 1]
    w_circuit = 2 * (n + reference.pe_register(t_sigma) + 1) + b_sigma
    sigma_circuit = w_circuit + b_rho <= DEFAULT_QUBIT_BUDGET
    w = w_circuit if sigma_circuit else 2 * (n + 1) + b_sigma
    eta_circuit = w + b_rho + reference.pe_register(t) + 1 <= DEFAULT_QUBIT_BUDGET
    return tuple("circuit-pe" if c else "ideal-spectral" for c in (sigma_circuit, eta_circuit))


def _eta_block_error(a: np.ndarray, b: np.ndarray, kappa_sigma: float, t_sigma: int,
                     sigma_circuit: bool) -> float:
    """|| D C C^dagger D - S C C^dagger S / (16 kappa_sigma) || with C = U^dagger A,
    D = diag(lambda G_sigma(lambda)^2) and S = diag(sqrt(lambda)), for
    sigma = B B^dagger = U diag(lambda) U^dagger and rho = A A^dagger."""
    u, s, _ = np.linalg.svd(b, full_matrices=False)
    lam = s**2
    c = u.conj().T @ a
    cc = c @ c.conj().T
    d = lam * reference.stage_gain(lam, kappa_sigma, t_sigma, sigma_circuit) ** 2
    r = np.sqrt(lam)
    diff = np.outer(d, d) * cc - np.outer(r, r) * cc / (16.0 * kappa_sigma)
    return float(np.linalg.norm(diff, 2))


def test_ledger_names_every_report_field():
    assert set(LEDGER) == {f.name for f in EstimationReport.__dataclass_fields__.values()}


@settings(max_examples=600, derandomize=True, deadline=None)
@given(pair=drawn_pairs())
def test_drawn_reports_match_the_reference_model(pair):
    rep = _estimate(pair)
    problems, err = run.check_report(pair, rep.to_dict())
    assert problems == []
    case = pair.case
    kappa_sigma, t_sigma, kappa, t, qae_m = case.explicit
    assert (rep.n, rep.kappa_sigma, rep.t_sigma, rep.kappa, rep.t, rep.qae_m, rep.qae_mode,
            rep.seed, rep.bound_constant) == (case.n, *case.explicit, case.qae_mode,
                                              pair.estimate_seed, 1.0)
    r = min(case.rank_rho, case.rank_sigma)
    assert (rep.rank_rho, rep.rank_sigma, rep.rank_r) == (r, max(case.rank_rho, case.rank_sigma), r)
    if case.rank_rho != case.rank_sigma:
        assert rep.swapped == (case.rank_rho > case.rank_sigma)
    assert (rep.sim_level_sigma, rep.sim_level_eta) == _expected_levels(pair, rep.swapped)

    assert abs(rep.abs_error - err) <= 1e-7
    for got, at in ((rep.delta, rep.x), (rep.delta_from_estimate, rep.x_tilde)):
        want = reference.qae_error_bound(at, qae_m)
        assert abs(got - want) <= 1e-12 * want
    bound = math.sqrt(kappa * kappa_sigma) * (reference.qae_error_bound(rep.x, qae_m)
                                              + r / kappa + kappa / t)
    bound += r * math.sqrt(kappa_sigma**-0.5 + kappa_sigma**1.5 / t_sigma)
    assert abs(rep.analytic_bound - bound) <= 1e-12 * bound
    a, b = (pair.b, pair.a) if rep.swapped else (pair.a, pair.b)
    want = _eta_block_error(a, b, kappa_sigma, t_sigma, rep.sim_level_sigma != "ideal-spectral")
    assert abs(rep.eta_block_error - want) <= 1e-9


@settings(max_examples=200, derandomize=True, deadline=None)
@given(pair=drawn_pairs(), budget=st.integers(8, 13))
def test_a_call_that_runs_at_a_budget_runs_at_the_next(pair, budget):
    try:
        _estimate(pair, budget)
    except RegisterTooLargeError:
        return
    _estimate(pair, budget + 1)

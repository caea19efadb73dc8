"""End-to-end fidelity estimation.

Stages: from a purification of sigma build a unitary W that block-encodes
sqrt(sigma) (scale 4 sqrt(kappa_sigma)); apply it to a purification of rho
to get eta, whose ancilla-zero block is sqrt(sigma) rho sqrt(sigma) /
(16 kappa_sigma); extract the square root of that block; estimate the
all-zeros amplitude x by amplitude estimation; report 16 sqrt(kappa
kappa_sigma) x~ against the exact-oracle fidelity together with an analytic
error bound and measured query counts.

Each stage runs at the circuit or the ideal-spectral level: the circuit
level is used when the dense-matrix qubit budget allows, otherwise the stage
falls back to ideal-spectral, and the report records the level actually used
(circuit-pe-perturbed for a circuit run with perturbation > 0).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .amplitude import QaeParams, exact_amplitude, qae_estimate, qae_error_bound
from .block_encoding import (
    BlockEncodingSpec,
    EncodedOperator,
    purification_to_unitary_be,
)
from .errors import InfeasibleParamsError, RegisterTooLargeError
from .linalg import eig_hermitian, operator_norm
from .registers import (
    DEFAULT_QUBIT_BUDGET,
    embed_operator,
    layout,
    project_zero,
)
from .sqrt_extractor import (
    SqrtParams,
    block_spectrum,
    build_sqrt_unitary,
    filter_f,
    ideal_sqrt_state,
    preparer_queries,
)
from .states import DensityOperator, Purification, fidelity_exact

CIRCUIT_T_CEILING = 1 << 20
IDEAL_T_CEILING = 1 << 30


@dataclass(frozen=True)
class PipelineParams:
    """Stage parameters: (kappa_sigma, t_sigma) for the sqrt(sigma) stage,
    (kappa, t) for the sqrt-of-eta-block stage, the amplitude-estimation
    settings, and the calibrated constant multiplying every Theta bound."""

    kappa_sigma: float
    t_sigma: int
    kappa: float
    t: int
    qae: QaeParams
    sim_level: str = "circuit-pe"
    bound_constant: float = 1.0
    qubit_budget: int = DEFAULT_QUBIT_BUDGET
    perturbation: float = 0.0

    def sigma_params(self) -> SqrtParams:
        return SqrtParams(
            kappa=self.kappa_sigma,
            t=self.t_sigma,
            sim_level=self.sim_level,
            perturbation=self.perturbation,
        )

    def eta_params(self) -> SqrtParams:
        return SqrtParams(
            kappa=self.kappa,
            t=self.t,
            sim_level=self.sim_level,
            perturbation=self.perturbation,
        )


@dataclass(frozen=True)
class EstimationReport:
    """Flat record of one estimation run; field order is the CSV/JSON order."""

    n: int
    rank_rho: int
    rank_sigma: int
    rank_r: int
    swapped: bool
    sim_level_sigma: str
    sim_level_eta: str
    kappa_sigma: float
    t_sigma: int
    kappa: float
    t: int
    qae_m: int
    qae_mode: str
    seed: int
    x: float
    x_tilde: float
    estimate: float
    exact_fidelity: float
    abs_error: float
    delta: float
    delta_from_estimate: float
    analytic_bound: float
    bound_constant: float
    w_sigma_error: float
    eta_block_error: float
    queries_o_rho: int
    queries_o_sigma: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class WSigmaResult:
    encoding: EncodedOperator  # unitary carrier, target sqrt(sigma)
    sim_level: str
    o_sigma_queries_per_use: int  # one W use = two extraction-circuit uses


def build_w_sigma(
    sigma_prep: Purification,
    params: PipelineParams,
    seed: int = 0,
) -> WSigmaResult:
    """Unitary block-encoding of sqrt(sigma) with scale 4 sqrt(kappa_sigma).

    The extraction runs on sigma's purification, as a circuit or (at the
    ideal level, or as the fallback when the circuit exceeds the qubit
    budget) as perfect phase estimation, which is small regardless of
    t_sigma.  Its output state's preparer then goes through the two-query
    purified-state-to-unitary construction.
    """
    n = sigma_prep.system_qubits
    sp = params.sigma_params()
    # the circuit itself (n + n_sigma + l + 1 qubits) is always smaller than W
    w_qubits = 2 * (n + sp.l + 1) + sigma_prep.garbage_qubits
    if sp.sim_level == "circuit-pe" and w_qubits <= params.qubit_budget:
        out = build_sqrt_unitary(sigma_prep, 0, sp, qubit_budget=params.qubit_budget, seed=seed)
    else:
        out = ideal_sqrt_state(sigma_prep, 0, sp)
    w_enc = purification_to_unitary_be(out.purification(), qubit_budget=params.qubit_budget)
    m = w_enc.system_qubits
    b = w_enc.layout.qubits("enc_garbage")
    relayout = layout(
        ("system", n), ("sqrt_anc", m - n), ("mirror", m), ("enc_garbage", b)
    )
    encoding = EncodedOperator(
        carrier=w_enc.carrier,
        layout=relayout,
        spec=BlockEncodingSpec(
            alpha=4.0 * math.sqrt(params.kappa_sigma), ancilla_qubits=relayout.total_qubits - n
        ),
        target=out.target_sqrt,
        kind="unitary",
    )
    return WSigmaResult(
        encoding=encoding,
        sim_level=out.sim_level,
        o_sigma_queries_per_use=2 * out.preparer_queries,
    )


@dataclass(frozen=True)
class EtaResult:
    purification: Purification
    block: np.ndarray  # <0|eta|0> over W's ancillas, ~ sqrt(s) rho sqrt(s) / (16 k_s)
    block_error: float  # distance of the block from its target


def build_eta(
    rho_prep: Purification,
    w_sigma: EncodedOperator,
    qubit_budget: int = DEFAULT_QUBIT_BUDGET,
) -> EtaResult:
    """Apply the sqrt(sigma) encoding to rho's purification.

    Returns eta's purification (registers [system, w_anc, garbage]) and the
    w_anc-zero block of its traced state, which approximates
    sqrt(sigma) rho sqrt(sigma) / (16 kappa_sigma).  The traced state needs
    no validation of its own: it is a partial trace of the pure state whose
    preparer Purification has just checked for unitarity.
    """
    n = w_sigma.system_qubits
    if rho_prep.system_qubits != n:
        raise ValueError(
            f"rho prepares {rho_prep.system_qubits} qubits, W encodes on {n}"
        )
    a_w = w_sigma.layout.total_qubits - n
    n_rho = rho_prep.garbage_qubits
    total = n + a_w + n_rho
    if total > qubit_budget:
        raise RegisterTooLargeError(
            f"eta register needs {total} qubits, budget is {qubit_budget}"
        )
    full = layout(("system", n), ("w_anc", a_w), ("garbage", n_rho))
    u_eta = embed_operator(w_sigma.carrier, full, ["system", "w_anc"]) @ embed_operator(
        rho_prep.preparer, full, ["system", "garbage"]
    )
    purif = Purification(u_eta, full, garbage="garbage")
    eta = purif.traced_matrix()
    block = project_zero(eta, layout(("system", n), ("w_anc", a_w)), ["w_anc"])
    alpha = w_sigma.spec.alpha
    kappa_sigma = (alpha / 4.0) ** 2
    ref = w_sigma.target @ rho_prep.traced_matrix() @ w_sigma.target / (16.0 * kappa_sigma)
    block_error = operator_norm(block - ref)
    return EtaResult(purification=purif, block=block, block_error=block_error)


def analytic_error_bound(
    params: PipelineParams, x: float, rank_r: int, delta: float | None = None
) -> float:
    """bound_constant * ( sqrt(k k_s) (delta + r/k + k/t)
                          + r sqrt(k_s^{-1/2} + k_s^{3/2}/t_s) )."""
    if delta is None:
        delta = qae_error_bound(x, params.qae.M)
    ks, k = params.kappa_sigma, params.kappa
    return params.bound_constant * (
        math.sqrt(k * ks) * (delta + rank_r / k + k / params.t)
        + rank_r * math.sqrt(ks**-0.5 + ks**1.5 / params.t_sigma)
    )


def _role_order(
    rho_prep: Purification, sigma_prep: Purification
) -> tuple[Purification, Purification, DensityOperator, DensityOperator, bool]:
    """Ensure rank(rho) <= rank(sigma); on equal ranks break the tie by the
    matrix bytes so both call orders execute the identical computation.
    Returns both purifications and both states in role order."""
    m_rho, m_sigma = rho_prep.traced_matrix(), sigma_prep.traced_matrix()
    rho, sigma = DensityOperator(m_rho), DensityOperator(m_sigma)
    if rho.rank > sigma.rank or (rho.rank == sigma.rank and m_rho.tobytes() > m_sigma.tobytes()):
        return sigma_prep, rho_prep, sigma, rho, True
    return rho_prep, sigma_prep, rho, sigma, False


def estimate_fidelity(
    rho_prep: Purification,
    sigma_prep: Purification,
    params: PipelineParams,
    seed: int = 0,
) -> EstimationReport:
    """Run the full pipeline and report the estimate against the oracle."""
    rho_prep, sigma_prep, rho, sigma, swapped = _role_order(rho_prep, sigma_prep)
    n = rho.qubits

    w = build_w_sigma(sigma_prep, params, seed=seed)
    eta = build_eta(rho_prep, w.encoding, qubit_budget=params.qubit_budget)
    a_w = w.encoding.layout.total_qubits - n

    ep = params.eta_params()
    eta_circuit_qubits = n + a_w + rho_prep.garbage_qubits + ep.l + 1
    if ep.sim_level == "circuit-pe" and eta_circuit_qubits <= params.qubit_budget:
        out = build_sqrt_unitary(
            eta.purification, a_w, ep, qubit_budget=params.qubit_budget, seed=seed + 1
        )
        x = exact_amplitude(out.state, out.layout, ["encoding", "pe", "flag"])
        level_eta = out.sim_level
    else:
        g = block_spectrum(eta.block).values
        x = float(np.sum(g * filter_f(g, params.kappa) ** 2))
        level_eta = "ideal-spectral"

    qae = QaeParams(M=params.qae.M, mode=params.qae.mode, seed=seed)
    x_tilde = qae_estimate(x, qae)
    scale = 16.0 * math.sqrt(params.kappa * params.kappa_sigma)
    estimate = scale * x_tilde

    exact = fidelity_exact(rho, sigma)
    delta = qae_error_bound(x, qae.M)
    q_eta = preparer_queries(ep)
    qae_uses = 2 * params.qae.M + 1
    return EstimationReport(
        n=n,
        rank_rho=rho.rank,
        rank_sigma=sigma.rank,
        rank_r=rho.rank,
        swapped=swapped,
        sim_level_sigma=w.sim_level,
        sim_level_eta=level_eta,
        kappa_sigma=params.kappa_sigma,
        t_sigma=params.t_sigma,
        kappa=params.kappa,
        t=params.t,
        qae_m=params.qae.M,
        qae_mode=params.qae.mode,
        seed=seed,
        x=x,
        x_tilde=x_tilde,
        estimate=estimate,
        exact_fidelity=exact,
        abs_error=abs(estimate - exact),
        delta=delta,
        delta_from_estimate=qae_error_bound(x_tilde, qae.M),
        analytic_bound=analytic_error_bound(params, x, rho.rank, delta),
        bound_constant=params.bound_constant,
        w_sigma_error=w.encoding.spec.epsilon,
        eta_block_error=eta.block_error,
        queries_o_rho=qae_uses * q_eta,
        queries_o_sigma=qae_uses * q_eta * w.o_sigma_queries_per_use,
    )


def _next_pow2(x: float) -> int:
    return 1 << max(1, math.ceil(math.log2(max(x, 2.0))))


def select_params(
    r: int,
    eps: float,
    mode: str = "practical",
    sim_level: str = "ideal-spectral",
    bound_constant: float = 1.0,
    qae_mode: str = "exact",
    qubit_budget: int = DEFAULT_QUBIT_BUDGET,
) -> PipelineParams:
    """Parameter schedules for a target additive error.

    paper mode: the literal power laws with constant and polylog factor 1:
    kappa_sigma = r^4/eps^4, t_sigma = r^8/eps^8, kappa = r^6/eps^6,
    t = r^11/eps^12, M = r^2.5/eps^3.5 rounded up to a power of two.  Values
    beyond the ceiling for the requested level raise InfeasibleParamsError
    instead of running.

    practical mode: a geometric (powers-of-two) search that grows each knob
    until its a-priori stage-error term (with constant 1 and the estimator
    scale 16 sqrt(kappa kappa_sigma) made explicit) falls below eps/3, capped
    at the ceiling: kappa_sigma = (3 sqrt(2) r / eps)^4 handles the sigma
    stage with t_sigma = kappa_sigma^2; kappa = kappa_sigma (12 r / eps)^2
    keeps the filter-cutoff loss below eps/3; t and M cover the remaining
    phase-grid and amplitude-grid terms.  When the caps bind (small eps or
    large r) the returned parameters are the feasible maximum and the
    reported analytic bound widens accordingly.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    ceiling = IDEAL_T_CEILING if sim_level == "ideal-spectral" else CIRCUIT_T_CEILING
    if mode == "paper":
        kappa_sigma = r**4 / eps**4
        t_sigma = max(6, math.ceil(r**8 / eps**8))
        kappa = r**6 / eps**6
        t = max(6, math.ceil(r**11 / eps**12))
        m = _next_pow2(math.ceil(r**2.5 / eps**3.5))
        if max(t, t_sigma) > ceiling:
            raise InfeasibleParamsError(
                f"paper-mode t={t}, t_sigma={t_sigma} exceed the "
                f"{sim_level} ceiling {ceiling}"
            )
    elif mode == "practical":
        kappa_sigma = min(float(_next_pow2((3 * math.sqrt(2) * r / eps) ** 4)), float(ceiling))
        t_sigma = min(_next_pow2(kappa_sigma**2), ceiling)
        kappa = min(float(_next_pow2(kappa_sigma * (12 * r / eps) ** 2)), float(ceiling))
        t = min(_next_pow2(48 * kappa**1.5 * math.sqrt(kappa_sigma) / eps), ceiling)
        m = min(
            _next_pow2(
                max(
                    48 * math.pi * (kappa * kappa_sigma) ** 0.25 / eps,
                    math.sqrt(96.0) * math.pi * (kappa * kappa_sigma) ** 0.25 / math.sqrt(eps),
                )
            ),
            1 << 26,
        )
    else:
        raise ValueError(f"mode must be 'paper' or 'practical', got {mode!r}")
    return PipelineParams(
        kappa_sigma=float(kappa_sigma),
        t_sigma=int(t_sigma),
        kappa=float(kappa),
        t=int(t),
        qae=QaeParams(M=int(m), mode=qae_mode),
        sim_level=sim_level,
        bound_constant=bound_constant,
        qubit_budget=qubit_budget,
    )


def trace_sqrt(m: np.ndarray) -> float:
    """tr sqrt(m) with negative eigenvalues clamped to zero."""
    w = eig_hermitian(m, tol=1e-7).values
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


@dataclass(frozen=True)
class WeylCheck:
    difference: float
    bound: float
    norm_j: float


def weyl_trace_bound_check(eta_block: np.ndarray, target: np.ndarray, r: int) -> WeylCheck:
    """|tr sqrt(eta_block) - tr sqrt(target)| against r sqrt(3 ||difference||).

    Valid when both operators have rank <= r (eigenvalue perturbation keeps
    every branch within sqrt(3 ||J||) of its mate and the other branches are
    zero on both sides).  Raises ValueError if the bound is violated.
    """
    norm_j = operator_norm(eta_block - target)
    diff = abs(trace_sqrt(eta_block) - trace_sqrt(target))
    bound = r * math.sqrt(3.0 * norm_j)
    if diff > bound + 1e-9:
        raise ValueError(
            f"trace-sqrt difference {diff:.3e} exceeds r sqrt(3||J||) = {bound:.3e}"
        )
    return WeylCheck(difference=diff, bound=bound, norm_j=norm_j)

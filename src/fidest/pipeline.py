"""End-to-end fidelity estimation.

Stages: from a purification of sigma build a unitary W that block-encodes
sqrt(sigma) (scale 4 sqrt(kappa_sigma)); apply it to a purification of rho
to get eta, whose ancilla-zero block is sqrt(sigma) rho sqrt(sigma) /
(16 kappa_sigma); extract the square root of that block; estimate the
all-zeros amplitude x by amplitude estimation; report 16 sqrt(kappa
kappa_sigma) x~ against the exact-oracle fidelity together with an analytic
error bound and measured query counts.

Both stages' levels are decided once, from the factors' shapes and the knobs,
before anything is built (``registers.stage_levels``): circuit-pe where every
register a stage commits the estimate to fits the qubit budget (for W, eta's
register: W's plus rho's garbage), else ideal-spectral; a call no level can run
is refused there.  The knobs are checked once, when ``PipelineParams`` is built,
which also builds each stage's extraction record (``sigma``, ``eta``) for the
stages to read.  The report records the level used (circuit-pe-perturbed for a
circuit run with perturbation > 0).  Both levels work on arrays: each
purification is its factor, W is its block over its ancillas, eta's rows with
W's ancillas zero are that block times rho's factor, each block is M M^dagger
of a slice M, and each block error is one operator norm.  The eta stage needs
only the all-zeros probability x of its output, so unperturbed it reads
x = sum_g g G(g)^2 off the block's spectrum, G the per-eigenvalue gain at its
level (``stage_gain``); only a perturbed eta circuit runs on a state, and that
state is eta's rows with W's ancillas zero: every gate of the circuit, the
perturbations included, is the identity on W's ancillas, so the all-zeros
output reads those rows alone.  Neither W's columns nor eta's whole factor is
formed.  The roles and ranks come from the factors, so no density operator is
formed.  The reported exact fidelity is Uhlmann's || M_rho^dagger M_sigma ||_1
on the two factors the estimate was given.  This module holds the estimate path
and the parameter schedules; the bound checks live in ``verify``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .amplitude import QaeParams, checked_probability, qae_estimate, qae_error_bound
from .block_encoding import purification_to_unitary_be
from .errors import DimensionMismatchError, InfeasibleParamsError, Range, check_ranges
from .linalg import operator_norm
from .registers import DEFAULT_QUBIT_BUDGET, stage_label, stage_levels
from .sqrt_extractor import (
    SqrtParams,
    block_spectrum,
    build_sqrt_unitary,
    preparer_queries,
    scaled_block_error,
    stage_gain,
)
from .states import Purification, uhlmann_fidelity

CIRCUIT_T_CEILING = 1 << 20
IDEAL_T_CEILING = 1 << 30
SIM_LEVELS = ("ideal-spectral", "circuit-pe")
SCHEDULE_MODES = ("paper", "practical")
SCHEDULE_RANGES = {
    "eps": Range(float, lambda v: 0 < v < 1, "in (0, 1)"),
    "r": Range(int, lambda v: v >= 1, ">= 1"),
}


@dataclass(frozen=True)
class PipelineParams:
    """Stage parameters: (kappa_sigma, t_sigma) for the sqrt(sigma) stage,
    (kappa, t) for the sqrt-of-eta-block stage, the amplitude-estimation
    settings, and the calibrated constant multiplying every Theta bound.
    Every knob is checked at construction against its entry in ``RANGES``,
    each stage's kappa and t against SqrtParams' range, and the knob set
    against floats: the estimate's scale and the analytic bound (at rank 1
    and the largest QAE term) must be finite."""

    kappa_sigma: float
    t_sigma: int
    kappa: float
    t: int
    qae: QaeParams
    sim_level: str = "circuit-pe"
    bound_constant: float = 1.0
    qubit_budget: int = DEFAULT_QUBIT_BUDGET
    perturbation: float = 0.0
    sigma: SqrtParams = field(init=False, repr=False, compare=False)  # (kappa_sigma, t_sigma)
    eta: SqrtParams = field(init=False, repr=False, compare=False)  # (kappa, t)

    RANGES = {
        "kappa_sigma": SqrtParams.RANGES["kappa"],
        "t_sigma": SqrtParams.RANGES["t"],
        **SqrtParams.RANGES,  # the eta stage's kappa and t, and both stages' perturbation
        "bound_constant": Range(float, lambda v: 0 <= v < math.inf, "finite and >= 0"),
        "qubit_budget": Range(int, lambda v: v >= 1, ">= 1"),
    }

    def __post_init__(self):
        if self.sim_level not in SIM_LEVELS:
            raise ValueError(f"sim_level {self.sim_level!r} not in {SIM_LEVELS}")
        check_ranges(self)
        object.__setattr__(self, "sigma",
                           SqrtParams(self.kappa_sigma, self.t_sigma, self.perturbation))
        object.__setattr__(self, "eta", SqrtParams(self.kappa, self.t, self.perturbation))
        if not (math.isfinite(self.scale) and math.isfinite(analytic_error_bound(self, 0.5, 1))):
            raise ValueError(f"kappa_sigma={self.kappa_sigma:g}, kappa={self.kappa:g} and "
                             f"bound_constant={self.bound_constant:g} overflow the scale or bound")

    @property
    def scale(self) -> float:
        """The estimate's scale: the estimate is 16 sqrt(kappa kappa_sigma) x~."""
        return 16.0 * math.sqrt(self.kappa * self.kappa_sigma)


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
        """The fields in order.  Every field is a scalar, so a shallow copy
        is asdict's result; it keeps the class's shared key table (about 340
        bytes against asdict's 840)."""
        return vars(self).copy()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class WSigmaResult:
    """W's block over w_anc and sqrt(sigma); w_anc is W's register beyond
    the system, in order the extraction ancillas, mirror and enc_garbage."""

    block: np.ndarray  # <0|W|0> over w_anc, ~ sqrt(sigma) / (4 sqrt(kappa_sigma))
    target_sqrt: np.ndarray  # sqrt(sigma)
    kappa_sigma: float  # W's block encodes sqrt(sigma) at scale 4 sqrt(kappa_sigma)
    w_sigma_error: float  # || 4 sqrt(kappa_sigma) block - sqrt(sigma) ||
    sim_level: str


def build_w_sigma(
    sigma_prep: Purification,
    params: PipelineParams,
    circuit: bool,
    seed: int | np.random.SeedSequence = 0,
) -> WSigmaResult:
    """Unitary block-encoding of sqrt(sigma) with scale 4 sqrt(kappa_sigma).

    The extraction runs on sigma's purification, as a circuit or (``circuit``
    false) as perfect phase estimation, which is small regardless of
    t_sigma; ``registers.stage_levels`` picks the level.  Its output state
    then goes through the two-query purified-state-to-unitary construction.
    """
    out = build_sqrt_unitary(sigma_prep.factor, params.sigma, circuit, seed=seed)
    # the output as a purification: its factor on [system and ancillas, garbage]
    prepared = Purification(out.state.reshape(-1, out.state.shape[-1]))
    _, w_block = purification_to_unitary_be(prepared)
    # W's block rows with the output's ancillas zero, copied to free W's columns
    keep = slice(None, None, prepared.factor.shape[0] >> sigma_prep.system_qubits)
    block = np.array(w_block[keep, keep])
    return WSigmaResult(
        block=block,
        target_sqrt=out.target_sqrt,
        kappa_sigma=params.kappa_sigma,
        w_sigma_error=scaled_block_error(block, out.target_sqrt, params.kappa_sigma),
        sim_level=stage_label(circuit, params.perturbation),
    )


@dataclass(frozen=True)
class EtaResult:
    m: np.ndarray  # eta's rows with W's ancillas zero, on [system, rho's garbage]
    block: np.ndarray  # <0|eta|0> over W's ancillas, ~ sqrt(s) rho sqrt(s) / (16 k_s)
    block_error: float  # distance of the block from its target


def build_eta(rho_prep: Purification, w: WSigmaResult) -> EtaResult:
    """Apply the sqrt(sigma) encoding, held as W's block over its ancillas,
    to rho's purification.

    Returns eta's rows with w_anc zero and the w_anc-zero block of eta's
    traced state, which approximates sqrt(sigma) rho sqrt(sigma) /
    (16 kappa_sigma).  Eta's factor, on [system, w_anc] x garbage, is W's
    columns on the system inputs times rho's factor; its w_anc-zero rows M
    are W's block times rho's factor, and the block is M M^dagger.  Its
    reference is T T^dagger / (16 kappa_sigma) for T = sqrt(sigma) times
    rho's factor, so no density and no whole factor of eta is formed.
    """
    n = rho_prep.system_qubits
    if len(w.block) != 1 << n:
        raise ValueError(f"rho prepares {n} qubits, W encodes on {len(w.block).bit_length() - 1}")
    m = w.block @ rho_prep.factor
    block = m @ m.conj().T
    t = w.target_sqrt @ rho_prep.factor
    ref = t @ t.conj().T / (16.0 * w.kappa_sigma)
    block_error = operator_norm(block - ref)
    return EtaResult(m=m, block=block, block_error=block_error)


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
        + rank_r * math.sqrt(ks**-0.5 + ks * math.sqrt(ks) / params.t_sigma)
    )


def _role_order(
    rho_prep: Purification, sigma_prep: Purification
) -> tuple[Purification, Purification, int, int, bool]:
    """Ensure rank(rho) <= rank(sigma), so both call orders execute the
    identical computation.  Ranks come from the factors' singular values.
    Equal ranks are ordered by value: by the traced diagonals (the factors'
    squared row norms) compared lexicographically, and by every traced entry
    only when the diagonals are equal.  Returns both purifications and both
    ranks in role order; no density operator is formed."""
    rank_rho, rank_sigma = rho_prep.rank, sigma_prep.rank
    swapped = rank_rho > rank_sigma
    if rank_rho == rank_sigma:
        key_rho, key_sigma = (
            (p.factor.real**2 + p.factor.imag**2).sum(axis=1).tolist()
            for p in (rho_prep, sigma_prep)
        )
        if key_rho == key_sigma:
            key_rho, key_sigma = (
                p.traced_matrix().view(float).ravel().tolist() for p in (rho_prep, sigma_prep)
            )
        swapped = key_rho > key_sigma
    if swapped:
        return sigma_prep, rho_prep, rank_sigma, rank_rho, True
    return rho_prep, sigma_prep, rank_rho, rank_sigma, False


def estimate_fidelity(
    rho_prep: Purification,
    sigma_prep: Purification,
    params: PipelineParams,
    seed: int = 0,
) -> EstimationReport:
    """Run the full pipeline and report the estimate against the oracle.
    Roles on different system sizes raise DimensionMismatchError before
    anything runs."""
    if rho_prep.system_qubits != sigma_prep.system_qubits:
        raise DimensionMismatchError(f"rho prepares {rho_prep.system_qubits} qubits, "
                                     f"sigma prepares {sigma_prep.system_qubits}")
    rho_prep, sigma_prep, rank_rho, rank_sigma, swapped = _role_order(rho_prep, sigma_prep)
    if not math.isfinite(analytic_error_bound(params, 0.5, rank_rho)):  # params checked rank 1
        raise ValueError(f"the analytic bound overflows a float at rank {rank_rho}")
    n = rho_prep.system_qubits
    w_circuit, eta_circuit = stage_levels(n, rho_prep.garbage_qubits, sigma_prep.garbage_qubits,
                                          params)

    # the perturbations draw from two children of the seed, the sampled QAE draw from the seed
    w_seed, eta_seed = np.random.SeedSequence(seed).spawn(2) if params.perturbation else (0, 0)
    w = build_w_sigma(sigma_prep, params, w_circuit, seed=w_seed)
    eta = build_eta(rho_prep, w)

    if eta_circuit and params.perturbation:
        # every gate is the identity on W's ancillas: the circuit runs on eta's rows with them zero
        x = build_sqrt_unitary(eta.m, params.eta, eta_circuit, seed=eta_seed).zero_probability()
    else:
        g = block_spectrum(eta.block).values
        x = checked_probability(float(np.sum(g * stage_gain(g, params.eta, eta_circuit) ** 2)))

    x_tilde = qae_estimate(x, params.qae, seed)
    estimate = params.scale * x_tilde

    exact = uhlmann_fidelity(rho_prep, sigma_prep)
    delta = qae_error_bound(x, params.qae.M)
    q_eta = preparer_queries(params.eta)
    qae_uses = 2 * params.qae.M + 1
    return EstimationReport(
        n=n,
        rank_rho=rank_rho,
        rank_sigma=rank_sigma,
        rank_r=rank_rho,
        swapped=swapped,
        sim_level_sigma=w.sim_level,
        sim_level_eta=stage_label(eta_circuit, params.perturbation),
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
        delta_from_estimate=qae_error_bound(x_tilde, params.qae.M),
        analytic_bound=analytic_error_bound(params, x, rank_rho, delta),
        bound_constant=params.bound_constant,
        w_sigma_error=w.w_sigma_error,
        eta_block_error=eta.block_error,
        queries_o_rho=qae_uses * q_eta,
        queries_o_sigma=qae_uses * q_eta * 2 * preparer_queries(params.sigma),  # W: 2 extractions
    )


def _next_pow2(x: float, cap: float = math.inf) -> int:
    """The least power of two >= max(x, 2), capped at the power of two ``cap``."""
    return cap if x >= cap else 1 << max(1, math.ceil(math.log2(max(x, 2.0))))


def _or_inf(law) -> float:
    """law(), or inf where it overflows a float (or eps^12 underflows to 0)."""
    try:
        return law()
    except (OverflowError, ZeroDivisionError):
        return math.inf


def select_params(
    r: int,
    eps: float,
    mode: str = "practical",
    sim_level: str = "ideal-spectral",
    qae_mode: str = "exact",
) -> PipelineParams:
    """Parameter schedules for a target additive error.

    paper mode: the literal power laws with constant and polylog factor 1:
    kappa_sigma = r^4/eps^4, t_sigma = r^8/eps^8, kappa = r^6/eps^6,
    t = r^11/eps^12, M = r^2.5/eps^3.5 rounded up to a power of two.  Values
    beyond the ceiling for the requested level raise InfeasibleParamsError
    instead of running.

    practical mode: no search.  Each knob is a closed form that puts its
    a-priori stage-error term (constant 1, estimator scale 16 sqrt(kappa
    kappa_sigma) explicit) below eps/3, rounded up to a power of two and
    capped (kappa_sigma, t_sigma, kappa and t at the level's ceiling, M at
    2^26): kappa_sigma = (3 sqrt(2) r / eps)^4 handles the sigma stage with
    t_sigma = kappa_sigma^2; kappa = kappa_sigma (12 r / eps)^2 keeps the
    filter-cutoff loss below eps/3; t and M cover the remaining phase-grid
    and amplitude-grid terms.  When the caps bind (small eps or large r) the
    schedule does not deliver eps, and only the analytic bound shows it: at
    eps 0.1 and r = 2, kappa is capped at 2^30 = 16 kappa_sigma, every
    eigenvalue of eta's block can fall below the filter cutoff, and the
    estimate is then exactly 0 (the CLI's n = 1, seed 0 pair: 0 for F = 0.993).
    """
    SCHEDULE_RANGES["eps"].check("eps", eps)
    SCHEDULE_RANGES["r"].check("r", r)
    if mode not in SCHEDULE_MODES:
        raise ValueError(f"mode {mode!r} not in {SCHEDULE_MODES}")
    ceiling = IDEAL_T_CEILING if sim_level == "ideal-spectral" else CIRCUIT_T_CEILING
    if mode == "paper":
        # the depths first: an eps whose depths fit the ceiling keeps the other laws finite
        t_sigma, t = _or_inf(lambda: r**8 / eps**8), _or_inf(lambda: r**11 / eps**12)
        if max(t, t_sigma) > ceiling:
            raise InfeasibleParamsError(
                f"paper-mode t={t:.4g}, t_sigma={t_sigma:.4g} exceed the "
                f"{sim_level} ceiling {ceiling}"
            )
        kappa_sigma = r**4 / eps**4
        t_sigma = max(6, math.ceil(t_sigma))
        kappa = r**6 / eps**6
        t = max(6, math.ceil(t))
        m = _next_pow2(math.ceil(r**2.5 / eps**3.5))
    else:
        kappa_sigma = float(_next_pow2(_or_inf(lambda: (3 * math.sqrt(2) * r / eps) ** 4), ceiling))
        t_sigma = _next_pow2(kappa_sigma**2, ceiling)
        kappa = float(_next_pow2(kappa_sigma * _or_inf(lambda: (12 * r / eps) ** 2), ceiling))
        t = _next_pow2(48 * kappa**1.5 * math.sqrt(kappa_sigma) / eps, ceiling)
        m = _next_pow2(
            max(
                48 * math.pi * (kappa * kappa_sigma) ** 0.25 / eps,
                math.sqrt(96.0) * math.pi * (kappa * kappa_sigma) ** 0.25 / math.sqrt(eps),
            ),
            1 << 26,
        )
    return PipelineParams(
        kappa_sigma=float(kappa_sigma),
        t_sigma=int(t_sigma),
        kappa=float(kappa),
        t=int(t),
        qae=QaeParams(M=int(m), mode=qae_mode),
        sim_level=sim_level,
    )

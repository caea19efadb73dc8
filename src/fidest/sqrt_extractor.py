"""Square-root extraction from a block-encoded PSD operator.

Given a purification preparing a state whose ancilla-zero block is a PSD
operator A with spectrum in [0, 1], this module builds the circuit whose
output state block-encodes sqrt(A) with scale 4*sqrt(kappa):

  1. run the preparer,
  2. load the sine-window state on a phase register of T = 2^l points,
  3. phase-estimate exp(i * (t/(3T) A + (2pi/3) I)) onto that register,
  4. rotate a flag qubit by a filter of the estimated eigenvalue,
  5. uncompute steps 3 and 2.

Two simulation levels are exposed: ``ideal-spectral`` applies the filter
directly on the exact spectrum (perfect phase estimation, no phase register
blowup), and ``circuit-pe`` assembles the full unitary with exact controlled
exponentials.  A ``perturbation`` > 0 multiplies each controlled exponential
of the circuit by a random unitary within that operator distance of identity
to model Hamiltonian-simulation error; such outputs report the level
``circuit-pe-perturbed``.

Register order of outputs: [system, encoding, pe, flag, garbage] (no pe at
the ideal level), so the traced state keeps its encoding ancillas trailing
and the garbage segment is last (ready for the purified-state-to-unitary
construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .block_encoding import BlockEncodingSpec, EncodedOperator
from .errors import (
    IndexOutOfRangeError,
    NotPowerOfTwoError,
    RegisterTooLargeError,
    SpectrumOutOfRangeError,
)
from .linalg import HermitianEigen, complete_unitary, eig_hermitian
from .registers import (
    DEFAULT_QUBIT_BUDGET,
    RegisterLayout,
    embed_operator,
    layout,
    partial_trace,
    project_zero,
)
from .states import Purification

SIM_LEVELS = ("ideal-spectral", "circuit-pe")

SPECTRUM_TOL = 1e-9


@dataclass(frozen=True)
class SqrtParams:
    """Extraction knobs: condition-number cutoff kappa and time budget t.

    The phase register has l = ceil(log2 t) qubits and T = 2^l grid points;
    t >= 6 guarantees T >= 8.  ``perturbation`` is the operator distance from
    identity of the noise on each controlled exponential of the circuit.
    """

    kappa: float
    t: int
    sim_level: str = "circuit-pe"
    perturbation: float = 0.0

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if int(self.t) != self.t or self.t < 6:
            raise ValueError(f"t must be an integer >= 6, got {self.t}")
        object.__setattr__(self, "t", int(self.t))
        if self.sim_level not in SIM_LEVELS:
            raise ValueError(f"sim_level {self.sim_level!r} not in {SIM_LEVELS}")
        if self.perturbation < 0:
            raise ValueError(f"perturbation must be >= 0, got {self.perturbation}")

    @property
    def l(self) -> int:
        return max(3, math.ceil(math.log2(self.t)))

    @property
    def T(self) -> int:
        return 1 << self.l


def sine_state(T: int) -> np.ndarray:
    """Unit vector sqrt(2/T) * sin(pi (tau + 1/2) / T), tau = 0..T-1.

    The sine window makes phase-estimation tails fall off quadratically.
    """
    if T < 2 or T & (T - 1):
        raise NotPowerOfTwoError(f"T must be a power of two >= 2, got {T}")
    tau = np.arange(T)
    return np.sqrt(2.0 / T) * np.sin(np.pi * (tau + 0.5) / T)


def filter_f(lam, kappa: float):
    """Four-branch filter: ~ (1/2) kappa^{-1/4} lambda^{-1/4} on [1/kappa, 1],
    a sine ramp down to 0 on [1/(2 kappa), 1/kappa), 0 below, constant above 1.

    Values in [0, 1] for every real lambda; grid readings outside [0, 1] are
    covered by the outer branches.
    """
    lam = np.asarray(lam, dtype=float)
    lo, hi = 1.0 / (2.0 * kappa), 1.0 / kappa
    c = 0.5 * kappa ** -0.25
    with np.errstate(invalid="ignore"):
        out = np.select(
            [lam > 1.0, lam >= hi, lam >= lo],
            [
                c,
                c * np.where(lam > 0, lam, 1.0) ** -0.25,
                0.5 * np.sin(0.5 * np.pi * (lam - lo) / (hi - lo)),
            ],
            default=0.0,
        )
    return out if out.ndim else float(out)


def h_vector(lam, kappa: float) -> np.ndarray:
    """Flag-qubit state (f(lambda), sqrt(1 - f(lambda)^2)), one column per lambda."""
    f = np.asarray(filter_f(lam, kappa))
    return np.array([f, np.sqrt(np.maximum(0.0, 1.0 - f * f))])


def grid_eigenvalue(k: int, params: SqrtParams) -> float:
    """Eigenvalue reading lambda~_k = (3T/t) (2 pi k / T - 2 pi / 3)."""
    T = params.T
    return (3.0 * T / params.t) * (2.0 * np.pi * k / T - 2.0 * np.pi / 3.0)


def rotation_gate(k: int, params: SqrtParams) -> np.ndarray:
    """2x2 real rotation whose first column is h(lambda~_k)."""
    if not 0 <= k < params.T:
        raise IndexOutOfRangeError(f"k={k} outside [0, {params.T})")
    f, s = h_vector(grid_eigenvalue(k, params), params.kappa)
    return np.array([[f, -s], [s, f]], dtype=complex)


def pe_phase_offset(lambda_j: float, k: int, params: SqrtParams) -> float:
    """delta = (t/(3T)) lambda_j + 2 pi/3 - 2 pi k / T."""
    T = params.T
    return params.t / (3.0 * T) * lambda_j + 2.0 * np.pi / 3.0 - 2.0 * np.pi * k / T


def pe_coefficient_direct(lambda_j: float, k: int, params: SqrtParams) -> complex:
    """Brute-force DFT sum (sqrt(2)/T) sum_tau e^{i tau delta} sin(pi(tau+1/2)/T)."""
    if not 0 <= k < params.T:
        raise IndexOutOfRangeError(f"k={k} outside [0, {params.T})")
    T = params.T
    delta = pe_phase_offset(lambda_j, k, params)
    tau = np.arange(T)
    return complex(
        np.sqrt(2.0) / T * np.sum(np.exp(1j * tau * delta) * np.sin(np.pi * (tau + 0.5) / T))
    )


_SINGULARITY_WINDOW = 5e-6


def pe_coefficient(lambda_j: float, k: int, params: SqrtParams) -> complex:
    """Closed-form phase-estimation amplitude onto grid point k.

    Near the removable singularities delta = +-pi/T the closed form loses
    precision (0/0 cancellation), so the direct sum is used there.
    """
    if not 0 <= k < params.T:
        raise IndexOutOfRangeError(f"k={k} outside [0, {params.T})")
    T = params.T
    delta = pe_phase_offset(lambda_j, k, params)
    s_minus = math.sin(delta / 2 - math.pi / (2 * T))
    s_plus = math.sin(delta / 2 + math.pi / (2 * T))
    if min(abs(s_minus), abs(s_plus)) < _SINGULARITY_WINDOW:
        return pe_coefficient_direct(lambda_j, k, params)
    value = (
        -np.sqrt(2.0)
        * np.exp(1j * delta * (T - 1) / 2)
        * math.cos(T * delta / 2)
        / T
        * math.cos(delta / 2)
        * math.sin(math.pi / (2 * T))
        / (s_plus * s_minus)
    )
    return complex(value)


def pe_tail_bound(delta: float, T: int) -> float:
    """|alpha| <= 3 sqrt(2) pi^3 / (T^2 delta^2), valid for |delta| > 2 pi / T."""
    return 3.0 * np.sqrt(2.0) * np.pi**3 / (T * T * delta * delta)


def controlled_ua_applications(params: SqrtParams) -> int:
    """Controlled block-encoding applications in one phase-estimation pass.

    The controlled powers 2^i of exp(i (t/(3T) A + 2pi/3)) are each simulated
    with ceil((t/(3T)) 2^i) + 1 applications of the controlled encoding.
    """
    scale = params.t / (3.0 * params.T)
    return sum(math.ceil(scale * (1 << i)) + 1 for i in range(params.l))


def preparer_queries(params: SqrtParams) -> int:
    """Queries to the input preparer: one direct use plus two PE passes, each
    controlled application costing two preparer queries."""
    return 1 + 4 * controlled_ua_applications(params)


@dataclass(frozen=True)
class SqrtOutput:
    """Result of one extraction: the output state on ``layout``.

    Circuit level: registers [system, encoding, pe, flag, garbage], and
    ``unitary`` is the assembled circuit, whose first column is ``state``.
    Ideal level: registers [system, encoding, flag, garbage] and no unitary;
    the pe register is exactly |0> in every branch there and is never built
    (the ancilla count of ``encoding`` still follows a + l + 1).
    """

    params: SqrtParams
    state: np.ndarray
    layout: RegisterLayout
    target_sqrt: np.ndarray  # sqrt(A), from the decomposition the output was built on
    unitary: np.ndarray | None = None

    @property
    def sim_level(self) -> str:
        """The level a stage built on this output reports."""
        if self.unitary is None:
            return "ideal-spectral"
        return "circuit-pe-perturbed" if self.params.perturbation > 0 else "circuit-pe"

    @property
    def preparer_queries(self) -> int:
        return preparer_queries(self.params)

    def purification(self) -> Purification:
        """The output state's preparer: the circuit itself, or at the ideal
        level the state completed to a unitary."""
        u = complete_unitary(self.state) if self.unitary is None else self.unitary
        return Purification(u, self.layout)

    @cached_property
    def encoding(self) -> EncodedOperator:
        """The traced output state as a block-encoding of sqrt(A) with scale
        4 sqrt(kappa) and its measured epsilon; built on first use."""
        kept = self.layout.segments[:-1]
        v = self.state
        carrier = partial_trace(np.outer(v, v.conj()), self.layout, [name for name, _ in kept])
        return EncodedOperator(
            carrier=carrier,
            layout=layout(*kept),
            spec=BlockEncodingSpec(
                alpha=4.0 * math.sqrt(self.params.kappa),
                ancilla_qubits=self.layout.qubits("encoding") + self.params.l + 1,
            ),
            target=self.target_sqrt,
            kind="density",
        )

    def unscaled_block_error(self) -> float:
        """|| <0|out|0> - sqrt(A) / (4 sqrt(kappa)) ||, the unscaled form."""
        return self.encoding.spec.epsilon / self.encoding.spec.alpha


def block_spectrum(a_mat: np.ndarray) -> HermitianEigen:
    """One eigendecomposition of an encoded block A, its spectrum checked to
    lie in [0, 1] and clipped there.  Both levels read the eigenbranches and
    sqrt(A) off it; perfect phase estimation's all-zeros amplitude is
    sum_j lambda_j f(lambda_j)^2."""
    eig = eig_hermitian(a_mat)
    w = eig.values
    if w[-1] < -SPECTRUM_TOL or w[0] > 1 + SPECTRUM_TOL:
        raise SpectrumOutOfRangeError(
            f"encoded spectrum [{w[-1]:.3e}, {w[0]:.3e}] outside [0, 1]"
        )
    return HermitianEigen(values=np.clip(w, 0.0, 1.0), vectors=eig.vectors)


def _prepared_spectrum(p: Purification, encoding_qubits: int) -> tuple[HermitianEigen, np.ndarray]:
    """Spectrum and square root of A, the encoding-zero block of the state
    ``p`` prepares on [system, encoding]."""
    n_sys = p.system_qubits - encoding_qubits
    if n_sys < 1:
        raise ValueError(
            f"{encoding_qubits} encoding qubits leave no system in "
            f"{p.system_qubits} prepared qubits"
        )
    lay = layout(("system", n_sys), ("encoding", encoding_qubits))
    eig = block_spectrum(project_zero(p.traced_matrix(), lay, ["encoding"]))
    return eig, (eig.vectors * np.sqrt(eig.values)) @ eig.vectors.conj().T


def build_sqrt_unitary(
    p: Purification,
    encoding_qubits: int,
    params: SqrtParams,
    qubit_budget: int = DEFAULT_QUBIT_BUDGET,
    seed: int = 0,
) -> SqrtOutput:
    """Assemble the full extraction circuit.

    ``p`` prepares a state on [system, encoding] qubits whose encoding-zero
    block is the PSD operator A; the controlled phase unitary is built from A
    reconstructed out of that block, not from a separately supplied matrix.
    The returned unitary acts on [system, encoding, pe, flag, garbage].

    With ``params.perturbation > 0`` each controlled exponential (tau >= 1)
    picks up an independent random unitary, drawn from ``seed``, within
    operator distance ``params.perturbation`` of identity.
    """
    n_enc = encoding_qubits
    n_sys = p.system_qubits - n_enc
    b = p.garbage_qubits
    l, T = params.l, params.T
    total = n_sys + n_enc + b + l + 1
    if total > qubit_budget:
        raise RegisterTooLargeError(
            f"circuit needs {total} qubits, budget is {qubit_budget}; "
            "use the ideal-spectral level instead"
        )
    eig, sqrt_a = _prepared_spectrum(p, n_enc)

    full = layout(
        ("system", n_sys), ("encoding", n_enc), ("pe", l), ("flag", 1), ("garbage", b)
    )
    u2 = embed_operator(complete_unitary(sine_state(T)), full, ["pe"])

    # Controlled phases: on pe value tau apply exp(i tau ((t/3T) A + (2pi/3) I)).
    theta = params.t / (3.0 * T) * eig.values + 2.0 * np.pi / 3.0
    dn = 1 << n_sys
    rng = np.random.default_rng(seed)
    ctrl = np.zeros((dn, T, dn, T), dtype=complex)
    v = eig.vectors
    for tau in range(T):
        w_tau = (v * np.exp(1j * tau * theta)) @ v.conj().T
        if params.perturbation > 0 and tau:
            g = rng.standard_normal((dn, dn)) + 1j * rng.standard_normal((dn, dn))
            h_rand = (g + g.conj().T) / 2
            h_rand /= np.linalg.norm(h_rand, 2)
            ew, evv = np.linalg.eigh(h_rand)
            w_tau = w_tau @ ((evv * np.exp(1j * params.perturbation * ew)) @ evv.conj().T)
        ctrl[:, tau, :, tau] = w_tau

    jk = np.arange(T)
    ft = np.exp(2j * np.pi * np.outer(jk, jk) / T) / np.sqrt(T)
    u3 = embed_operator(ft.conj().T, full, ["pe"]) @ embed_operator(
        ctrl.reshape(dn * T, dn * T), full, ["system", "pe"]
    )

    rot = np.zeros((T, 2, T, 2), dtype=complex)
    for k in range(T):
        rot[k, :, k, :] = rotation_gate(k, params)

    # u2^dagger u3^dagger u4 u3 u2 u1, a gate at a time: no dense product outlives its use
    u_out = u3 @ (u2 @ embed_operator(p.preparer, full, ["system", "encoding", "garbage"]))
    u_out = embed_operator(rot.reshape(2 * T, 2 * T), full, ["pe", "flag"]) @ u_out
    u_out = u3.conj().T @ u_out
    u_out = u2.conj().T @ u_out
    return SqrtOutput(
        params=params, state=u_out[:, 0].copy(), layout=full, target_sqrt=sqrt_a, unitary=u_out
    )


def ideal_sqrt_state(p: Purification, encoding_qubits: int, params: SqrtParams) -> SqrtOutput:
    """Perfect-phase-estimation output state, straight from the spectrum of A.

    ``p`` prepares psi on [system, encoding] as for build_sqrt_unitary.  Every
    eigenbranch (lambda_j, u_j) of A gains the flag state h(lambda_j): the
    output is sum_j (u_j u_j^dagger psi) (x) h(lambda_j) on [system, encoding,
    flag, garbage].  No phase register is built, so t may be arbitrarily deep.
    """
    n_enc, b = encoding_qubits, p.garbage_qubits
    eig, sqrt_a = _prepared_spectrum(p, n_enc)
    v = eig.vectors
    dn = v.shape[0]
    f, s = h_vector(eig.values, params.kappa)
    branches = v.conj().T @ p.state.reshape(dn, -1)  # [branch, (encoding, garbage)]
    out = np.stack([(v * f) @ branches, (v * s) @ branches], axis=1)
    state = out.reshape(dn, 2, 1 << n_enc, 1 << b).transpose(0, 2, 1, 3).reshape(-1)
    lay = layout(
        ("system", p.system_qubits - n_enc), ("encoding", n_enc), ("flag", 1), ("garbage", b)
    )
    return SqrtOutput(params=params, state=state, layout=lay, target_sqrt=sqrt_a)

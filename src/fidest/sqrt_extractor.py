"""Square-root extraction from a block-encoded PSD operator.

Given M, the 2^n x 2^b factor of a PSD operator A = M M^dagger with
spectrum in [0, 1], this module builds the circuit whose output state
block-encodes sqrt(A) with scale 4*sqrt(kappa):

  1. run the preparer,
  2. load the sine-window state on a phase register of T = 2^l points,
  3. phase-estimate exp(i * (t/(3T) A + (2pi/3) I)) onto that register,
  4. rotate a flag qubit by a filter of the estimated eigenvalue,
  5. uncompute steps 3 and 2.

M is the encoding-zero slice of a preparer's state on [system, encoding,
garbage], whose encoding-zero block is A.  Every gate after the preparer
acts on [system, pe, flag] only, so the encoding qubits pass through
untouched, and the output's all-zeros rows are the circuit run on M alone:
the routine does not take the encoding register.

One routine, ``build_sqrt_unitary``, builds the output state at either
level: perfect phase estimation (the filter applied on the exact spectrum,
no phase register) or the circuit's gates, with exact controlled
exponentials; no 2^q x 2^q unitary is formed.  Each gate is a function of
A, so each eigenbranch of A runs alone on [pe, flag] from |0>|0>, and one
branch rule gives its amplitudes at both levels: h(lambda) on a length-1 pe
axis, or the circuit on a branches x T x 2 array.  A ``perturbation`` > 0
multiplies each controlled exponential by a random unitary within that
operator distance of identity (Hamiltonian-simulation error); such unitaries
mix branches, so those circuits run on M reshaped to one axis per register.
The level a stage runs is chosen, and its register counted against the qubit
budget, by ``registers.stage_levels`` (the level it reports by
``registers.stage_label``); this module counts no register.

Where only the all-zeros probability of an unperturbed extraction is
needed, ``stage_gain`` gives each eigenbranch's all-zeros amplitude at
either level without the output state (at the circuit level from the
circuit's window, phase and FFT step): the probability is
sum_lambda lambda stage_gain(lambda)^2 over the spectrum of A.  The
amplitude alpha_k(lambda) of reading grid point k has two versions that
check each other, both over arrays of lambda and k: the closed form
``pe_coefficient``, and ``pe_coefficient_direct``, an entry of that FFT step.

An output is one array with axes [system, pe, flag, garbage]; the pe axis
has length 1 at the ideal level.  The ancillas sit between system and
garbage, so the array reshaped to [everything but garbage, garbage] is the
factor of a purification (ready for the purified-state-to-unitary
construction) when M is a whole factor.  An output's block, the traced
state's <0|.|0> over every ancilla, is M' M'^dagger for M' the slice with
every ancilla zero (``SqrtOutput.block``); no density of the output is
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .amplitude import checked_probability
from .errors import (
    IndexOutOfRangeError,
    NotPowerOfTwoError,
    Range,
    SpectrumOutOfRangeError,
    check_ranges,
)
from .linalg import (HermitianEigen, eig_hermitian, operator_norm, random_near_identity,
                     reflect, sqrtm_psd)
from .states import check_factor_shape

SPECTRUM_TOL = 1e-9


@dataclass(frozen=True)
class SqrtParams:
    """Extraction knobs: condition-number cutoff kappa and time budget t.

    The phase register has l = ceil(log2 t) qubits and T = 2^l grid points;
    t >= 6 guarantees T >= 8.  ``perturbation`` is the operator distance from
    identity of the noise on each controlled exponential of the circuit.
    Each field is checked at construction against its entry in ``RANGES``.
    """

    kappa: float
    t: int
    perturbation: float = 0.0

    RANGES = {
        "kappa": Range(float, lambda v: 1 <= v < math.inf, "finite and >= 1"),
        "t": Range(int, lambda v: v >= 6, "an integer >= 6"),
        "perturbation": Range(float, lambda v: 0 <= v < math.inf, "finite and >= 0"),
    }

    def __post_init__(self):
        check_ranges(self)

    @property
    def l(self) -> int:
        return max(3, math.ceil(math.log2(self.t)))

    @property
    def T(self) -> int:
        return 1 << self.l

    @property
    def slope(self) -> float:
        """t/(3T): phase estimation runs on exp(i (slope A + (2pi/3) I)), whose
        phase on eigenvalue lambda is theta(lambda) = slope lambda + 2pi/3."""
        return self.t / (3.0 * self.T)

    def theta(self, lam):
        return self.slope * lam + 2.0 * np.pi / 3.0


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
    covered by the outer branches.  Each branch is evaluated on its own
    entries only.
    """
    lam = np.asarray(lam, dtype=float)
    lo, hi = 1.0 / (2.0 * kappa), 1.0 / kappa
    c = 0.5 * kappa ** -0.25
    out = np.zeros(lam.shape)
    top = lam > 1.0
    power = (lam >= hi) & ~top
    ramp = (lam >= lo) & (lam < hi)
    out[top] = c
    out[power] = c * lam[power] ** -0.25
    out[ramp] = 0.5 * np.sin(0.5 * np.pi * (lam[ramp] - lo) / (hi - lo))
    return out if out.ndim else float(out)


def h_vector(lam, kappa: float) -> np.ndarray:
    """Flag-qubit state (f(lambda), sqrt(1 - f(lambda)^2)), one column per lambda."""
    f = np.asarray(filter_f(lam, kappa))
    return np.array([f, np.sqrt(np.maximum(0.0, 1.0 - f * f))])


def grid_eigenvalue(k: int, params: SqrtParams) -> float:
    """Eigenvalue reading lambda~_k = (3T/t) (2 pi k / T - 2 pi / 3)."""
    T = params.T
    return (3.0 * T / params.t) * (2.0 * np.pi * k / T - 2.0 * np.pi / 3.0)


def _grid_points(k, params: SqrtParams) -> np.ndarray:
    """Grid points k as an array, each checked to be an integer in [0, T)."""
    k = np.asarray(k)
    if k.dtype.kind not in "iu" or np.any((k < 0) | (k >= params.T)):
        raise IndexOutOfRangeError(f"k={k} is not a grid point: an integer in [0, {params.T})")
    return k


def pe_phase_offset(lam, k, params: SqrtParams):
    """delta = theta(lambda) - 2 pi k / T, broadcast over arrays of lambda and
    grid points k."""
    k = _grid_points(k, params)
    delta = params.theta(np.asarray(lam, dtype=float)) - 2.0 * np.pi * k / params.T
    return delta if delta.ndim else float(delta)


def pe_coefficient_direct(lam, k, params: SqrtParams):
    """alpha_k(lambda) as the circuit computes it: entry k of
    ``_phase_estimate``'s ortho FFT of the sine window times the controlled
    phases, which is the DFT sum (sqrt(2)/T) sum_tau e^{i tau delta}
    sin(pi(tau+1/2)/T).  Broadcast over arrays of lambda and k; one FFT per
    distinct lambda, so a row of k for one lambda costs one FFT."""
    lam, k = np.broadcast_arrays(np.asarray(lam, dtype=float), _grid_points(k, params))
    rows, row = np.unique(lam, return_inverse=True)
    value = _phase_estimate(rows, params)[1][row.reshape(lam.shape), k]
    return value if value.ndim else complex(value)


_SINGULARITY_WINDOW = 5e-6


def pe_coefficient(lam, k, params: SqrtParams):
    """Closed-form phase-estimation amplitude alpha_k(lambda) onto grid point
    k, broadcast over arrays of lambda and k.

    Near the removable singularities delta = +-pi/T the closed form loses
    precision (0/0 cancellation), so the circuit's value
    (``pe_coefficient_direct``) is used there.
    """
    delta = np.asarray(pe_phase_offset(lam, k, params))
    T = params.T
    s_minus = np.sin(delta / 2 - math.pi / (2 * T))
    s_plus = np.sin(delta / 2 + math.pi / (2 * T))
    near = np.minimum(abs(s_minus), abs(s_plus)) < _SINGULARITY_WINDOW
    with np.errstate(divide="ignore", invalid="ignore"):  # the near entries are replaced
        value = (
            -np.sqrt(2.0)
            * np.exp(1j * delta * (T - 1) / 2)
            * np.cos(T * delta / 2)
            / T
            * np.cos(delta / 2)
            * math.sin(math.pi / (2 * T))
            / (s_plus * s_minus)
        )
    if np.any(near):
        value = np.where(near, pe_coefficient_direct(lam, k, params), value)
    return value if value.ndim else complex(value)


def pe_tail_bound(delta, T: int):
    """|alpha| <= 3 sqrt(2) pi^3 / (T^2 d^2) for d, delta's distance to the
    nearest multiple of 2 pi (alpha is 2 pi-periodic in delta; d = |delta|
    where |delta| <= pi), above 2 pi / T; inf where d <= 2 pi / T, where it
    says nothing.  Broadcast over arrays of delta."""
    delta = np.asarray(delta, dtype=float)
    d = np.abs(delta - 2 * np.pi * np.round(delta / (2 * np.pi)))
    bound = np.divide(3.0 * np.sqrt(2.0) * np.pi**3, T * T * d * d,
                      out=np.full(d.shape, np.inf), where=d > 2 * np.pi / T)
    return bound if bound.ndim else float(bound)


def controlled_ua_applications(params: SqrtParams) -> int:
    """Controlled block-encoding applications in one phase-estimation pass.

    The controlled powers 2^i of exp(i (t/(3T) A + 2pi/3)) are each simulated
    with ceil((t/(3T)) 2^i) + 1 applications of the controlled encoding.
    """
    slope = params.slope
    return sum(math.ceil(slope * (1 << i)) + 1 for i in range(params.l))


def preparer_queries(params: SqrtParams) -> int:
    """Queries to the input preparer: one direct use plus two PE passes, each
    controlled application costing two preparer queries."""
    return 1 + 4 * controlled_ua_applications(params)


@dataclass(frozen=True)
class SqrtOutput:
    """Result of one extraction: the output state with axes [system, pe,
    flag, garbage].  The pe axis has length T at the circuit level and 1 at
    the ideal level, where the pe register is exactly |0> in every branch and
    is never built.
    """

    params: SqrtParams
    state: np.ndarray
    target_sqrt: np.ndarray  # sqrt(A), from the decomposition the output was built on

    def zero_slice(self) -> np.ndarray:
        """M: the output state with every ancilla zero, on [system, garbage]."""
        return self.state[:, 0, 0, :]

    def block(self) -> np.ndarray:
        """<0|traced output|0> over every ancilla, which block-encodes sqrt(A)
        with scale 4 sqrt(kappa): M M^dagger."""
        m = self.zero_slice()
        return m @ m.conj().T

    def zero_probability(self) -> float:
        """Probability that every ancilla reads zero, tr block() = ||M||^2,
        checked to lie in [0, 1] and clipped there."""
        m = self.zero_slice()
        return checked_probability(float(np.vdot(m, m).real))


def scaled_block_error(block: np.ndarray, target_sqrt: np.ndarray, kappa: float) -> float:
    """|| 4 sqrt(kappa) block - sqrt(A) ||, for a block encoding sqrt(A) at scale 4 sqrt(kappa)."""
    return operator_norm(4.0 * math.sqrt(kappa) * block - target_sqrt)


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
    return replace(eig, values=np.clip(w, 0.0, 1.0))


def _phase_estimate(lam: np.ndarray, params: SqrtParams) -> tuple[np.ndarray, np.ndarray]:
    """The forward phase estimation of eigenbranches lambda from |0>_pe: the
    sine window, the controlled phases e^{i tau theta} with theta = (t/3T)
    lambda + 2pi/3, and one ortho FFT over pe.  Returns the phases and the
    amplitudes alpha_k(lambda) on grid point k, both with axes [branch, pe]
    (the branches are lambda flattened)."""
    ph = np.exp(1j * np.outer(params.theta(lam), np.arange(params.T)))
    return ph, np.fft.fft(ph * sine_state(params.T), axis=1, norm="ortho")


def _branch_amplitudes(lam: np.ndarray, params: SqrtParams, circuit: bool) -> np.ndarray:
    """Each eigenbranch's [pe, flag] amplitudes from |0>_pe |0>_flag, axes
    [branch, pe, flag]: |0>_pe (x) h(lambda) on a length-1 pe axis at the
    ideal level; the window, phases, FFT, rotations' first column, inverse
    FFT, conjugate phases and adjoint window at the circuit level."""
    if not circuit:
        return h_vector(lam, params.kappa).T[:, None, :]
    ph, alpha = _phase_estimate(lam, params)
    h = h_vector(grid_eigenvalue(np.arange(params.T), params), params.kappa).T  # [pe value, flag]
    a = np.fft.ifft(alpha[:, :, None] * h, axis=1, norm="ortho") * ph.conj()[:, :, None]
    return reflect(sine_state(params.T), a, axis=1, adjoint=True)


def stage_gain(lam, params: SqrtParams, circuit: bool) -> np.ndarray:
    """G(lambda), the all-zeros amplitude of an unperturbed extraction's
    eigenbranch lambda: the filter f(lambda) at the ideal level, and
    F~(lambda) = sum_k |alpha_k(lambda)|^2 f(lambda~_k) at the circuit level.

    The uncompute maps the flag-0 part alpha_k f(lambda~_k) back onto
    |0>_pe with overlap sum_k conj(alpha_k) alpha_k f(lambda~_k), so the
    circuit's all-zeros probability on a block of spectrum g is
    sum_g g F~(g)^2; perfect phase estimation has f(lambda) in its place.
    """
    lam = np.asarray(lam, dtype=float)
    if not circuit:
        return np.asarray(filter_f(lam, params.kappa))
    _, alpha = _phase_estimate(lam, params)
    f = filter_f(grid_eigenvalue(np.arange(params.T), params), params.kappa)
    return ((alpha.real**2 + alpha.imag**2) @ f).reshape(lam.shape)


def build_sqrt_unitary(
    m: np.ndarray,
    params: SqrtParams,
    circuit: bool = True,
    seed: int | np.random.SeedSequence = 0,
) -> SqrtOutput:
    """Run the extraction on M, the 2^n x 2^b factor of A = M M^dagger, as
    the circuit or (``circuit`` false) as perfect phase estimation.

    M is the encoding-zero slice of a prepared state, on [system, garbage];
    the controlled phases are built from A reconstructed out of M, not from
    a separately supplied matrix.  The circuit is the sine-window reflection
    on pe, the controlled phases (exp(i tau theta) on pe value tau), the
    inverse QFT on pe, a rotation of the flag for each pe value k, and the
    uncompute of the first three; ``registers.stage_levels`` sizes its register
    before the pipeline runs it.  Perfect phase estimation builds no phase
    register, so t may be arbitrarily deep, and has no perturbation.

    Unperturbed, eigenbranch (lambda_k, v_k) of A takes |0>_pe |0>_flag to
    a_k, its branch amplitudes at the level: the output is sum_k v_k (x) a_k
    (x) v_k^dagger M.  With ``params.perturbation > 0`` each controlled
    exponential (tau >= 1) of the circuit picks up an independent random
    unitary, drawn from ``seed``, within operator distance
    ``params.perturbation`` of identity.  These mix branches, so the gates
    run on M reshaped to [system, pe, flag, garbage], one 2^n x 2^n phase
    matrix per tau.
    """
    m = np.asarray(m, dtype=complex)
    check_factor_shape(m)
    eig = block_spectrum(m @ m.conj().T)
    (dn, dg), v, T, sqrt_a = m.shape, eig.vectors, params.T, sqrtm_psd(eig)
    if not (circuit and params.perturbation):  # each eigenbranch runs alone
        a = _branch_amplitudes(eig.values, params, circuit)
        x = np.einsum("ik,ktf,kg->itfg", v, a, v.conj().T @ m)
        return SqrtOutput(params=params, state=x, target_sqrt=sqrt_a)
    # Controlled phases: on pe value tau apply exp(i tau ((t/3T) A + (2pi/3) I)), then its noise.
    ph, _ = _phase_estimate(eig.values, params)
    phases = (v * ph.T[:, None, :]) @ v.conj().T  # [tau, system out, system in]
    rng = np.random.default_rng(seed)
    for tau in range(1, T):
        phases[tau] = phases[tau] @ random_near_identity(dn, params.perturbation, rng)
    f, s = h_vector(grid_eigenvalue(np.arange(T), params), params.kappa)
    rotations = np.array([[f, -s], [s, f]])  # [out flag, in flag, pe value], h in column 0
    # state axes: i/j system, t pe, f/a/b flag, g garbage
    x = np.zeros((dn, T, 2, dg), dtype=complex)
    x[:, 0, 0, :] = m
    x = reflect(sine_state(T), x, axis=1)
    x = np.fft.fft(np.einsum("tij,jtfg->itfg", phases, x), axis=1, norm="ortho")
    x = np.einsum("abt,itbg->itag", rotations, x)
    x = np.einsum("tji,jtfg->itfg", phases.conj(), np.fft.ifft(x, axis=1, norm="ortho"))
    x = reflect(sine_state(T), x, axis=1, adjoint=True)
    return SqrtOutput(params=params, state=np.ascontiguousarray(x), target_sqrt=sqrt_a)

"""Canonical amplitude estimation on a known projection probability.

The estimator statistics depend on the amplitude alone, so instead of
building the Grover iterate over the full extraction register (which would
double an already deep circuit), the probability is computed exactly from
the state and the canonical outcome law is applied to it.  ``exact`` mode
returns the best grid point deterministically; ``sample`` mode draws from
the phase-estimation outcome distribution of the Grover eigenphase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OutOfRangeError
from .registers import RegisterLayout, project_zero

QAE_MODES = ("exact", "sample")


@dataclass(frozen=True)
class QaeParams:
    """Grid size M (the query count scale), outcome mode, and sampling seed."""

    M: int
    mode: str = "exact"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in QAE_MODES:
            raise ValueError(f"mode {self.mode!r} not in {QAE_MODES}")
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if self.mode == "sample" and self.M & (self.M - 1):
            raise ValueError(f"sample mode needs M a power of two, got {self.M}")


def exact_amplitude(state: np.ndarray, lay: RegisterLayout, zero_segments: Sequence[str]) -> float:
    """Probability of projecting the named segments onto all-zeros.

    ``state`` may be a vector (squared norm of the projected component) or a
    density matrix (trace of the projected block).
    """
    state = np.asarray(state, dtype=complex)
    block = project_zero(state, lay, zero_segments)
    if state.ndim == 1:
        x = float(np.vdot(block, block).real)
    else:
        x = float(np.trace(block).real)
    if not -1e-12 <= x <= 1 + 1e-12:
        raise OutOfRangeError(f"projection probability {x} outside [0, 1]")
    return min(max(x, 0.0), 1.0)


def qae_error_bound(x: float, M: int) -> float:
    """2 pi sqrt(x(1-x)) / M + pi^2 / M^2."""
    return 2.0 * np.pi * np.sqrt(max(x * (1.0 - x), 0.0)) / M + np.pi**2 / (M * M)


def _pe_kernel(d: np.ndarray, M: int) -> np.ndarray:
    """Squared phase-estimation kernel (sin(pi M d) / (M sin(pi d)))^2, 1 where
    sin(pi d) vanishes."""
    s = np.sin(np.pi * d)
    small = np.abs(s) < 1e-15
    return np.where(small, 1.0, (np.sin(np.pi * M * d) / (M * np.where(small, 1.0, s))) ** 2)


def qae_outcome_distribution(x: float, M: int) -> np.ndarray:
    """Probability of each grid outcome y in 0..M-1 for true amplitude x.

    The initial state splits evenly over the two Grover eigenphases
    +-theta/pi (in turns); both map to the same estimate sin^2(pi y / M).
    """
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"x={x} outside [0, 1]")
    omega = np.arcsin(np.sqrt(x)) / np.pi  # in [0, 1/2] turns
    y = np.arange(M)
    if x in (0.0, 1.0) or omega in (0.0, 0.5):
        p = _pe_kernel(omega - y / M, M)
    else:
        p = 0.5 * (_pe_kernel(omega - y / M, M) + _pe_kernel(-omega - y / M, M))
    return p / p.sum()


def qae_estimate(x: float, params: QaeParams) -> float:
    """Amplitude estimate on the grid {sin^2(pi y / M)}.

    exact mode: the grid point nearest to theta = arcsin(sqrt(x)), a
    deterministic surrogate whose error always satisfies qae_error_bound.
    sample mode: one draw from qae_outcome_distribution, deterministic for a
    fixed seed.
    """
    if not -1e-12 <= x <= 1 + 1e-12:
        raise OutOfRangeError(f"x={x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    M = params.M
    if params.mode == "exact":
        theta = np.arcsin(np.sqrt(x))
        y = int(np.rint(M * theta / np.pi))
    else:
        rng = np.random.default_rng(params.seed)
        y = int(rng.choice(M, p=qae_outcome_distribution(x, M)))
    return float(np.sin(np.pi * y / M) ** 2)

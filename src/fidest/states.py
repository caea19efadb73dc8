"""Density operators, purifications, random low-rank instances, and the exact
fidelity / trace-distance oracle used as ground truth."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientAncillaError,
    NegativeEigenvalueError,
    NotHermitianError,
    RankOutOfRangeError,
)
from .linalg import (
    HermitianEigen,
    eig_hermitian,
    hermiticity_defect,
    operator_norm,
    sqrtm_psd,
    trace_norm,
)
from .registers import RegisterLayout, layout, partial_trace

PSD_TOL = 1e-9
RANK_THRESHOLD = 1e-9
PURIFICATION_TOL = 1e-9
NORM_TOL = 1e-10


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace matrix on a qubit register.

    ``rank`` is the numerical rank at threshold 1e-9.  The eigendecomposition
    is computed once and cached; instances are immutable.
    """

    matrix: np.ndarray
    qubits: int = field(init=False)
    rank: int = field(init=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        d = m.shape[0]
        if m.shape != (d, d) or d & (d - 1) or d == 0:
            raise DimensionMismatchError(f"not a square power-of-two matrix: {m.shape}")
        defect = hermiticity_defect(m)
        if defect > PSD_TOL:
            raise NotHermitianError(f"density operator defect {defect:.3e} > {PSD_TOL:.1e}")
        m = (m + m.conj().T) / 2
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "qubits", d.bit_length() - 1)
        w = self.eigen.values
        if w[-1] < -PSD_TOL:
            raise NegativeEigenvalueError(f"eigenvalue {w[-1]:.3e} below -{PSD_TOL:.1e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > PSD_TOL:
            raise ValueError(f"trace {tr} is not 1 within {PSD_TOL:.1e}")
        object.__setattr__(self, "rank", int(np.sum(w > RANK_THRESHOLD)))

    @cached_property
    def eigen(self) -> HermitianEigen:
        return eig_hermitian(self.matrix)

    @property
    def dim(self) -> int:
        return 1 << self.qubits

    def to_json_dict(self) -> dict:
        m = self.matrix.reshape(-1)
        return {
            "kind": "density",
            "qubits": self.qubits,
            "entries": [[float(z.real), float(z.imag)] for z in m],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "DensityOperator":
        if data.get("kind") != "density":
            raise ValueError(f"not a density-operator record: kind={data.get('kind')!r}")
        d = 1 << int(data["qubits"])
        entries = np.array([complex(re, im) for re, im in data["entries"]])
        return DensityOperator(entries.reshape(d, d))

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @staticmethod
    def load(path: str) -> "DensityOperator":
        with open(path, encoding="utf-8") as fh:
            return DensityOperator.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class Purification:
    """A unit vector on a register layout whose last segment is garbage.

    ``state`` is the purified state; tracing the garbage segment yields the
    prepared density operator on the remaining segments.  Any unitary whose
    first column is ``state`` prepares it (``linalg.reflect`` is one).
    """

    state: np.ndarray
    layout: RegisterLayout
    garbage: str = "garbage"

    def __post_init__(self):
        v = np.array(self.state, dtype=complex)
        if v.shape != (self.layout.dim,):
            raise DimensionMismatchError(
                f"state shape {v.shape} does not match layout dim {self.layout.dim}"
            )
        if self.layout.names[-1] != self.garbage:
            raise ValueError(
                f"garbage segment {self.garbage!r} must be last in {self.layout.names}"
            )
        defect = abs(np.linalg.norm(v) - 1.0)
        if defect > NORM_TOL:
            raise ValueError(f"state norm defect {defect:.3e} > {NORM_TOL:.1e}")
        v.flags.writeable = False
        object.__setattr__(self, "state", v)

    @property
    def system_segments(self) -> tuple[str, ...]:
        return self.layout.names[:-1]

    @property
    def system_qubits(self) -> int:
        return self.layout.total_qubits - self.garbage_qubits

    @property
    def garbage_qubits(self) -> int:
        return self.layout.qubits(self.garbage)

    def traced_matrix(self) -> np.ndarray:
        v = self.state
        return partial_trace(np.outer(v, v.conj()), self.layout, self.system_segments)

    def split_system(self, *segments: tuple[str, int]) -> "Purification":
        """Re-segment the prepared system without touching the state."""
        total = sum(q for _, q in segments)
        if total != self.system_qubits:
            raise DimensionMismatchError(
                f"segments sum to {total} qubits, system has {self.system_qubits}"
            )
        new = layout(*segments, (self.garbage, self.garbage_qubits))
        return Purification(self.state, new, garbage=self.garbage)

    def to_json_dict(self) -> dict:
        return {
            "kind": "purification",
            "segments": [[n, q] for n, q in self.layout.segments],
            "garbage": self.garbage,
            "entries": [[float(z.real), float(z.imag)] for z in self.state],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Purification":
        if data.get("kind") != "purification":
            raise ValueError(f"not a purification record: kind={data.get('kind')!r}")
        lay = layout(*[(str(n), int(q)) for n, q in data["segments"]])
        entries = np.array([complex(re, im) for re, im in data["entries"]])
        if entries.size != lay.dim:
            raise ValueError(f"{entries.size} entries, layout dim is {lay.dim}")
        return Purification(entries, lay, garbage=data["garbage"])

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @staticmethod
    def load(path: str) -> "Purification":
        with open(path, encoding="utf-8") as fh:
            return Purification.from_json_dict(json.load(fh))


def random_density(qubits: int, rank: int, seed: int) -> DensityOperator:
    """Random density operator with the requested numerical rank.

    Eigenvectors come from QR-orthonormalization of a complex Gaussian matrix
    (Haar-like), the nonzero spectrum from normalized exponential samples.
    Deterministic for a fixed seed.
    """
    d = 1 << qubits
    if not 1 <= rank <= d:
        raise RankOutOfRangeError(f"rank {rank} outside [1, {d}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    while True:
        p = rng.exponential(size=rank)
        p /= p.sum()
        if p.min() > 1e-6:  # keep the numerical rank unambiguous
            break
    p = np.sort(p)[::-1]
    m = (q[:, :rank] * p) @ q[:, :rank].conj().T
    return DensityOperator(m)


def purify(rho: DensityOperator, ancilla_qubits: int) -> Purification:
    """Purify via the eigendecomposition: sum_j sqrt(p_j) |u_j>|j>.

    Needs 2^ancilla_qubits >= rank.
    """
    if ancilla_qubits < 0 or (1 << ancilla_qubits) < rho.rank:
        raise InsufficientAncillaError(
            f"{ancilla_qubits} ancilla qubits cannot hold rank {rho.rank}"
        )
    d, da = rho.dim, 1 << ancilla_qubits
    w = np.maximum(rho.eigen.values[: rho.rank], 0.0)
    psi = np.zeros(d * da, dtype=complex)
    for j in range(rho.rank):
        psi += np.sqrt(w[j]) * np.kron(rho.eigen.vectors[:, j], np.eye(da)[:, j])
    psi /= np.linalg.norm(psi)
    p = Purification(psi, layout(("system", rho.qubits), ("garbage", ancilla_qubits)))
    roundtrip = operator_norm(p.traced_matrix() - rho.matrix)
    if roundtrip > PURIFICATION_TOL:
        raise ValueError(f"purification round-trip error {roundtrip:.3e}")
    return p


def fidelity_exact(rho: DensityOperator, sigma: DensityOperator) -> float:
    """tr sqrt( sqrt(sigma) rho sqrt(sigma) ), the ground-truth oracle.

    Evaluated as the trace norm of sqrt(rho) sqrt(sigma), which is the same
    quantity but avoids taking square roots of near-zero noise eigenvalues;
    both roots come from the operators' cached eigendecompositions.
    """
    if rho.qubits != sigma.qubits:
        raise DimensionMismatchError(f"{rho.qubits} vs {sigma.qubits} qubits")
    val = trace_norm(sqrtm_psd(rho.eigen) @ sqrtm_psd(sigma.eigen))
    return min(max(val, 0.0), 1.0 + 1e-9)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2) ||rho - sigma||_1."""
    if rho.qubits != sigma.qubits:
        raise DimensionMismatchError(f"{rho.qubits} vs {sigma.qubits} qubits")
    return 0.5 * trace_norm(rho.matrix - sigma.matrix)

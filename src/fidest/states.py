"""Density operators, purifications held as their factors, random low-rank
instances, and the ground-truth oracles: fidelity (by eigendecomposition on
density operators, by Uhlmann's theorem on purifications) and trace distance.

A density operator is checked once, at construction, by one ``eig_hermitian``
call.  A purification of a rank-r state on n qubits is its 2^n x 2^g factor M,
with at least r columns; the prepared state is M M^dagger."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientAncillaError,
    NegativeEigenvalueError,
    RankOutOfRangeError,
)
from .linalg import (
    HermitianEigen,
    eig_hermitian,
    operator_norm,
    sqrtm_psd,
    trace_norm,
)

PSD_TOL = 1e-9
RANK_THRESHOLD = 1e-9
PURIFICATION_TOL = 1e-9
NORM_TOL = 1e-10


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace matrix on a qubit register.

    ``rank`` is the numerical rank at threshold 1e-9, and ``eigen`` the
    decomposition its one ``eig_hermitian`` call made; instances are immutable.
    """

    matrix: np.ndarray
    qubits: int = field(init=False)
    rank: int = field(init=False)
    eigen: HermitianEigen = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = m.shape[0] if m.ndim else 0
        if m.shape != (d, d) or d & (d - 1) or d == 0:
            raise DimensionMismatchError(f"not a square power-of-two matrix: {m.shape}")
        eigen = eig_hermitian(m, PSD_TOL)
        object.__setattr__(self, "matrix", eigen.matrix)
        object.__setattr__(self, "eigen", eigen)
        object.__setattr__(self, "qubits", d.bit_length() - 1)
        w = eigen.values
        if w[-1] < -PSD_TOL:
            raise NegativeEigenvalueError(f"eigenvalue {w[-1]:.3e} below -{PSD_TOL:.1e}")
        tr = float(np.trace(eigen.matrix).real)
        if abs(tr - 1.0) > PSD_TOL:
            raise ValueError(f"trace {tr} is not 1 within {PSD_TOL:.1e}")
        object.__setattr__(self, "rank", int(np.sum(w > RANK_THRESHOLD)))

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
        kind = data.get("kind") if isinstance(data, dict) else None
        if kind != "density":
            raise ValueError(f"not a density-operator record: kind={kind!r}")
        missing = [key for key in ("qubits", "entries") if key not in data]
        if missing:
            raise ValueError(f"density-operator record has no {missing[0]!r}")
        qubits = int(data["qubits"])
        for i, pair in enumerate(data["entries"]):
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(v, (int, float)) for v in pair)):
                raise ValueError(f"entry {i} is not a [re, im] pair of numbers: {pair!r}")
        entries = np.array([complex(re, im) for re, im in data["entries"]])
        if not 0 <= qubits < len(entries).bit_length() or len(entries) != 4**qubits:
            raise ValueError(f"{len(entries)} entries for {qubits} qubits, not 4^qubits")
        return DensityOperator(entries.reshape(1 << qubits, -1))

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @staticmethod
    def load(path: str) -> "DensityOperator":
        with open(path, encoding="utf-8") as fh:
            return DensityOperator.from_json_dict(json.load(fh))


def check_factor_shape(m: np.ndarray) -> None:
    """Raise DimensionMismatchError unless m is a 2^a x 2^b matrix."""
    if m.ndim != 2 or any(d < 1 or d & (d - 1) for d in m.shape):
        raise DimensionMismatchError(f"not a power-of-two factor: {m.shape}")


@dataclass(frozen=True)
class Purification:
    """A purified state as its factor M: a 2^system x 2^garbage matrix with
    unit Frobenius norm, the state sum_ij M_ij |i>|j> stored row-major, so
    ``factor.reshape(-1)`` is the state vector on [system, garbage].

    Tracing the garbage yields the prepared density operator M M^dagger.  Any
    unitary whose first column is that vector prepares it (``linalg.reflect``
    is one).
    """

    factor: np.ndarray

    def __post_init__(self):
        m = np.array(self.factor, dtype=complex, order="C")
        check_factor_shape(m)
        defect = abs(np.linalg.norm(m) - 1.0)
        if defect > NORM_TOL:
            raise ValueError(f"state norm defect {defect:.3e} > {NORM_TOL:.1e}")
        m.flags.writeable = False
        object.__setattr__(self, "factor", m)

    @property
    def system_qubits(self) -> int:
        return self.factor.shape[0].bit_length() - 1

    @property
    def garbage_qubits(self) -> int:
        return self.factor.shape[1].bit_length() - 1

    @property
    def rank(self) -> int:
        """Numerical rank of the prepared state M M^dagger at threshold 1e-9:
        the singular values s of M with s^2 above it."""
        s = np.linalg.svd(self.factor, compute_uv=False)
        return int(np.sum(s * s > RANK_THRESHOLD))

    def traced_matrix(self) -> np.ndarray:
        return self.factor @ self.factor.conj().T


def random_density(qubits: int, rank: int, seed: int) -> DensityOperator:
    """Random density operator with the requested numerical rank.

    Eigenvectors come from QR-orthonormalization of the first ``rank`` columns
    of a d x d complex Gaussian matrix (Haar-like), the nonzero spectrum from
    normalized exponential samples.  Deterministic for a fixed seed.
    """
    d = 1 << qubits
    if not 1 <= rank <= d:
        raise RankOutOfRangeError(f"rank {rank} outside [1, {d}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    # Q's first rank columns depend only on g's first rank columns
    q, r = np.linalg.qr(g[:, :rank])
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    while True:
        p = rng.exponential(size=rank)
        p /= p.sum()
        if p.min() > 1e-6:  # keep the numerical rank unambiguous
            break
    p = np.sort(p)[::-1]
    return DensityOperator((q * p) @ q.conj().T)


def ancilla_qubits_for(rank: int) -> int:
    """The ancilla qubits a rank-``rank`` state is purified with by the CLI
    and the demos: ceil(log2 rank), and at least one."""
    return max(1, (rank - 1).bit_length())


def purify(rho: DensityOperator, ancilla_qubits: int) -> Purification:
    """Purify via the eigendecomposition: sum_j sqrt(p_j) |u_j>|j>, so the
    factor's column j is sqrt(p_j) u_j.

    Needs 2^ancilla_qubits >= rank.
    """
    if ancilla_qubits < 0 or (1 << ancilla_qubits) < rho.rank:
        raise InsufficientAncillaError(
            f"{ancilla_qubits} ancilla qubits cannot hold rank {rho.rank}"
        )
    m = np.zeros((rho.dim, 1 << ancilla_qubits), dtype=complex)
    m[:, : rho.rank] = rho.eigen.vectors[:, : rho.rank] * np.sqrt(rho.eigen.values[: rho.rank])
    m /= np.linalg.norm(m)
    p = Purification(m)
    roundtrip = operator_norm(p.traced_matrix() - rho.matrix)
    if roundtrip > PURIFICATION_TOL:
        raise ValueError(f"purification round-trip error {roundtrip:.3e}")
    return p


def fidelity_exact(rho: DensityOperator, sigma: DensityOperator) -> float:
    """tr sqrt( sqrt(sigma) rho sqrt(sigma) ), the oracle for density operators.

    Evaluated as the trace norm of sqrt(rho) sqrt(sigma), both roots from the
    operators' stored eigendecompositions.  On a low-rank state those hold
    rounding eigenvalues near 1e-17, whose square roots (near 3e-9) enter the
    product, so the value can be off by about 1e-8; ``uhlmann_fidelity`` on
    purifications takes no square root.
    """
    if rho.qubits != sigma.qubits:
        raise DimensionMismatchError(f"{rho.qubits} vs {sigma.qubits} qubits")
    val = trace_norm(sqrtm_psd(rho.eigen) @ sqrtm_psd(sigma.eigen))
    return min(max(val, 0.0), 1.0 + 1e-9)


def uhlmann_fidelity(p: Purification, q: Purification) -> float:
    """F of the two prepared states by Uhlmann's theorem: || M_p^dagger M_q ||_1
    on the two factors."""
    if p.system_qubits != q.system_qubits:
        raise DimensionMismatchError(f"{p.system_qubits} vs {q.system_qubits} qubits")
    return trace_norm(p.factor.conj().T @ q.factor)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2) ||rho - sigma||_1."""
    if rho.qubits != sigma.qubits:
        raise DimensionMismatchError(f"{rho.qubits} vs {sigma.qubits} qubits")
    return 0.5 * trace_norm(rho.matrix - sigma.matrix)

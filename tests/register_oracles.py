"""Named register layouts with the index bookkeeping built on them: reference
oracles for the tests.

A layout is an ordered list of named segments.  The first segment owns the
most significant qubits (matching ``numpy.kron`` order), so a basis index
decomposes big-endian across segments.  The estimate path reads array axes
instead: the tests check those axis slices against the layouts,
ancilla-zero projections and partial traces here.  ``density_with_block``
builds a state whose ancilla-zero block is a given operator, the full-register
input of the extraction oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from fidest.errors import DimensionMismatchError, FidestError
from fidest.linalg import as_complex_matrix
from fidest.states import DensityOperator


class UnknownSegmentError(FidestError):
    """A named register segment does not exist in the layout."""


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered named segments (name, qubit-count); names are unique."""

    segments: tuple[tuple[str, int], ...]

    def __post_init__(self):
        segs = tuple((str(n), int(q)) for n, q in self.segments)
        object.__setattr__(self, "segments", segs)
        names = [n for n, _ in segs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate segment names in {names}")
        for n, q in segs:
            if q < 0:
                raise ValueError(f"segment {n!r} has negative qubit count {q}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.segments)

    @property
    def total_qubits(self) -> int:
        return sum(q for _, q in self.segments)

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    def qubits(self, name: str) -> int:
        for n, q in self.segments:
            if n == name:
                return q
        raise UnknownSegmentError(f"no segment {name!r} in {self.names}")

    def segment_dims(self) -> tuple[int, ...]:
        return tuple(1 << q for _, q in self.segments)

    def index_of(self, name: str) -> int:
        for i, (n, _) in enumerate(self.segments):
            if n == name:
                return i
        raise UnknownSegmentError(f"no segment {name!r} in {self.names}")

    def check(self, names: Iterable[str]) -> tuple[str, ...]:
        names = tuple(names)
        for n in names:
            self.index_of(n)
        return names

    def strides(self) -> tuple[int, ...]:
        """Index stride of each segment (big-endian)."""
        dims = self.segment_dims()
        out = []
        acc = 1
        for d in reversed(dims):
            out.append(acc)
            acc *= d
        return tuple(reversed(out))


def layout(*segments: tuple[str, int]) -> RegisterLayout:
    return RegisterLayout(tuple(segments))


def _check_square(m: np.ndarray, lay: RegisterLayout):
    if m.shape != (lay.dim, lay.dim):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not match layout dim {lay.dim}"
        )


def zero_block_indices(lay: RegisterLayout, zero_segments: Sequence[str]) -> np.ndarray:
    """Basis indices whose digits on the named segments are all zero.

    Results are sorted; the surviving segments keep their big-endian order,
    so slicing a matrix with these indices equals the <0|.|0> projection.
    """
    zero = set(lay.check(zero_segments))
    idx = np.array([0], dtype=np.intp)
    for (name, _), d, stride in zip(lay.segments, lay.segment_dims(), lay.strides()):
        if name in zero or d == 1:
            continue
        idx = (idx[:, None] + np.arange(d, dtype=np.intp)[None, :] * stride).reshape(-1)
    return idx


def project_zero(m: np.ndarray, lay: RegisterLayout, zero_segments: Sequence[str]) -> np.ndarray:
    """<0|m|0> block over the named segments of a square matrix, or the
    subvector of a vector."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != lay.dim or m.ndim == 2 and m.shape[1] != lay.dim:
        raise DimensionMismatchError(f"shape {m.shape} does not match layout dim {lay.dim}")
    idx = zero_block_indices(lay, zero_segments)
    if m.ndim == 2:
        return m[np.ix_(idx, idx)]
    return m[idx]


def partial_trace(m: np.ndarray, lay: RegisterLayout, keep: Sequence[str]) -> np.ndarray:
    """Trace out every segment not named in ``keep``; kept order is preserved."""
    m = as_complex_matrix(m)
    _check_square(m, lay)
    keep = set(lay.check(keep))
    dims = lay.segment_dims()
    s = len(dims)
    t = m.reshape(dims + dims)
    # Contract traced axes pairwise, starting from the rightmost so axis
    # numbers for the remaining segments stay valid.
    traced = [i for i, (n, _) in enumerate(lay.segments) if n not in keep]
    remaining = s
    for i in reversed(traced):
        t = np.trace(t, axis1=i, axis2=i + remaining)
        remaining -= 1
    d_keep = int(np.prod([dims[i] for i in range(s) if lay.segments[i][0] in keep], initial=1))
    return t.reshape(d_keep, d_keep)


def density_with_block(a: np.ndarray, ancilla_qubits: int) -> DensityOperator:
    """Smallest honest density operator whose ancilla-zero block equals ``a``.

    Requires tr(a) <= 1 (forced for any block of a unit-trace PSD matrix);
    the leftover weight is spread uniformly over the nonzero-ancilla diagonal.
    """
    a = as_complex_matrix(a)
    n_dim = a.shape[0]
    tr = float(np.trace(a).real)
    if ancilla_qubits < 1:
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"with no ancillas the block must have trace 1, got {tr}")
        return DensityOperator(a)
    if tr > 1 + 1e-12:
        raise ValueError(f"block trace {tr} exceeds 1; not encodable in a state")
    da = 1 << ancilla_qubits
    d = n_dim * da
    m = np.zeros((d, d), dtype=complex)
    m[::da, ::da] = a
    off = np.flatnonzero(np.arange(d) % da)  # the nonzero-ancilla diagonal
    m[off, off] = max(1.0 - tr, 0.0) / (d - n_dim)
    return DensityOperator(m)

"""Block-encoding descriptors, verification of the defining inequality, and the
purification -> unitary-encoding construction (two queries to the preparer).

Convention: in an encoded operator's layout the FIRST segment is the encoded
system and every later segment is an encoding ancilla; the block is always
<0|carrier|0> over the trailing segments.  A unitary carrier is held as its
columns on the ancilla-zero inputs, which is all that the block and every
later stage read; the full unitary is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatchError, RegisterTooLargeError
from .linalg import as_complex_matrix, operator_norm, reflect, unitarity_defect
from .registers import (
    DEFAULT_QUBIT_BUDGET,
    RegisterLayout,
    layout,
    project_zero,
)
from .states import NORM_TOL, DensityOperator, Purification

BE_TOL = 1e-9


@dataclass(frozen=True)
class BlockEncodingSpec:
    """(alpha, ancilla_qubits, epsilon) descriptor; epsilon None claims no
    bound, and the encoding built on it records its measured error there."""

    alpha: float
    ancilla_qubits: int
    epsilon: float | None = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.epsilon is not None and self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")


def be_error(carrier: np.ndarray, lay: RegisterLayout, target: np.ndarray, alpha: float) -> float:
    """|| alpha * <0|carrier|0> - target || over the trailing ancilla segments."""
    carrier = as_complex_matrix(carrier)
    target = as_complex_matrix(target)
    block = project_zero(carrier, lay, lay.names[1:])
    if block.shape != target.shape:
        raise DimensionMismatchError(
            f"block shape {block.shape} vs target shape {target.shape}"
        )
    return operator_norm(alpha * block - target)


@dataclass(frozen=True)
class EncodedOperator:
    """A carrier matrix holding ``target`` in its ancilla-zero block.

    ``kind`` records whether the carrier is a unitary or a density operator;
    both occur in the pipeline.  A density carrier is the full matrix; a
    unitary one may be given as its columns on the ancilla-zero inputs.  The
    block error is measured once, on construction: a claimed epsilon it
    exceeds is a construction error, never silent, and an unclaimed one
    becomes the measured error.
    """

    carrier: np.ndarray
    layout: RegisterLayout
    spec: BlockEncodingSpec
    target: np.ndarray
    kind: str = "unitary"
    measured_error: float = field(init=False)

    def __post_init__(self):
        if self.kind not in ("unitary", "density"):
            raise ValueError(f"kind must be 'unitary' or 'density', got {self.kind!r}")
        c = np.array(self.carrier, dtype=complex)
        t = np.array(self.target, dtype=complex)
        c.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "carrier", c)
        object.__setattr__(self, "target", t)
        err = be_error(c, self.layout, t, self.spec.alpha)
        object.__setattr__(self, "measured_error", err)
        if self.spec.epsilon is None:
            object.__setattr__(self, "spec", replace(self.spec, epsilon=err))
        elif err > self.spec.epsilon + BE_TOL:
            raise ValueError(
                f"block-encoding error {err:.3e} exceeds claimed epsilon "
                f"{self.spec.epsilon:.3e} + {BE_TOL:.1e}"
            )

    @property
    def system_qubits(self) -> int:
        return self.layout.qubits(self.layout.names[0])

    def block(self) -> np.ndarray:
        """<0|carrier|0> over all ancilla segments."""
        return project_zero(self.carrier, self.layout, self.layout.names[1:])


def purification_to_unitary_be(
    p: Purification, qubit_budget: int = DEFAULT_QUBIT_BUDGET
) -> EncodedOperator:
    """Exact unitary block-encoding of the density operator a purification prepares.

    With U a preparer on [main, garbage] and a fresh register mirroring main,
    W = (I (x) U^dagger) SWAP(fresh, main) (I (x) U) is a (1, main+garbage
    qubits, 0)-block-encoding of the prepared state, acting on the fresh
    register.  Its block depends on U|0> = psi alone, so U is the reflection
    R_psi, and W is applied to the 2^main ancilla-zero inputs |j, 0, 0>:
    U|0> puts psi on [main, garbage], SWAP moves index j into main, and
    R_psi^dagger acts on [main, garbage] for each value of fresh.  The carrier
    holds those columns, checked orthonormal.
    """
    m = p.system_qubits
    b = p.garbage_qubits
    total = 2 * m + b
    if total > qubit_budget:
        raise RegisterTooLargeError(
            f"construction needs {total} qubits, budget is {qubit_budget}"
        )
    dm, db = 1 << m, 1 << b
    swapped = np.zeros((dm, dm, dm, db), dtype=complex)  # [j, fresh, main, garbage]
    swapped[np.arange(dm), :, np.arange(dm), :] = p.state.reshape(dm, db)
    columns = reflect(p.state, swapped.reshape(dm * dm, dm * db), adjoint=True)
    columns = columns.reshape(dm, -1).T
    defect = unitarity_defect(columns)
    if defect > NORM_TOL:
        raise ValueError(f"W columns orthonormality defect {defect:.3e} > {NORM_TOL:.1e}")
    return EncodedOperator(
        carrier=columns,
        layout=layout(("system", m), ("mirror", m), ("enc_garbage", b)),
        spec=BlockEncodingSpec(alpha=1.0, ancilla_qubits=m + b, epsilon=0.0),
        target=p.traced_matrix(),
        kind="unitary",
    )


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
    rest = d - n_dim
    m = np.zeros((d, d), dtype=complex)
    m[::da, ::da] = a
    fill = max(1.0 - tr, 0.0) / rest
    for x in range(d):
        if x % da != 0:
            m[x, x] += fill
    return DensityOperator(m)

"""The purified-state-to-unitary construction (two queries to the preparer).

W is held as its columns on the ancilla-zero inputs, a plain array whose rows
are ordered [system, mirror, enc_garbage] (system most significant), and its
block <0|W|0> over mirror and enc_garbage: the rows with both segments zero.
The full unitary is never formed, and the pipeline keeps only the block.
"""

from __future__ import annotations

import numpy as np

from .linalg import operator_norm, reflection, unitarity_defect
from .states import NORM_TOL, Purification

BE_TOL = 1e-9


def purification_to_unitary_be(p: Purification) -> tuple[np.ndarray, np.ndarray]:
    """W's columns on its ancilla-zero inputs and W's block, for W the exact
    unitary block-encoding of the density operator a purification prepares.

    With U a preparer on [main, garbage] and a fresh register mirroring main,
    W = (I (x) U^dagger) SWAP(fresh, main) (I (x) U) is a (1, main+garbage
    qubits, 0)-block-encoding of the prepared state, acting on the fresh
    register.  Its block depends on U|0> = psi alone, so U is the reflection
    R_psi = -phase (I - c v v^dagger) of ``linalg.reflection``.  On the input
    |j, 0, 0>, U puts psi on [main, garbage], SWAP moves j into main and
    R_psi^dagger acts on [main, garbage], so column j on rows [fresh f, main,
    g] is s (delta_{main,j} psi[f, g] - c S[f, j] V[main, g]), with s =
    -conj(phase), V = v on [main, garbage] and S = psi V^dagger.  The columns
    (rows on [system, mirror, enc_garbage]) are checked orthonormal within
    NORM_TOL and their block (rows j 2^(main + garbage)) equal to the prepared
    density within BE_TOL; either failure raises ValueError.  W's register is
    sized against the qubit budget by ``pipeline.stage_levels``, not here.
    """
    dm = len(p.factor)
    phase, v, c = reflection(p.factor)
    s = -np.conj(phase)
    v = v.reshape(dm, -1)
    columns = (-s * c * (p.factor @ v.conj().T))[:, None, None, :] * v[:, :, None]
    columns[:, np.arange(dm), :, np.arange(dm)] += s * p.factor
    columns = columns.reshape(-1, dm)  # axes were [f, main, g, j]
    defect = unitarity_defect(columns)
    if defect > NORM_TOL:
        raise ValueError(f"W columns orthonormality defect {defect:.3e} > {NORM_TOL:.1e}")
    block = columns[:: v.size]
    err = operator_norm(block - p.traced_matrix())
    if err > BE_TOL:
        raise ValueError(f"W block differs from the prepared density by {err:.3e} > {BE_TOL:.1e}")
    return columns, block


"""From a purified state to an exact unitary block-encoding.

A preparer U on [main, garbage] qubits, a mirror register, and one SWAP give
a unitary W whose ancilla-zero block is exactly the prepared density operator:
two queries to U, no approximation.  The block depends only on the state
U|0>, so U is taken to be a reflection onto it, and W is applied to its
ancilla-zero inputs, never formed.  The script builds the encoding for a
random mixed state and prints the recovered block next to the original.
"""

import numpy as np

from fidest import (
    operator_norm,
    purification_to_unitary_be,
    purify,
    random_density,
    unitarity_defect,
)


def main():
    rho = random_density(1, 2, seed=7)
    p = purify(rho, ancilla_qubits=1)
    columns, block = purification_to_unitary_be(p)

    m, b = p.system_qubits, p.garbage_qubits
    print(f"W acts on [system ({m}), mirror ({m}), enc_garbage ({b})] qubits")
    print("columns on the ancilla-zero inputs:", columns.shape)
    print("orthonormality defect of those columns:", f"{unitarity_defect(columns):.2e}")

    print("\nprepared state:")
    print(np.round(rho.matrix, 6))
    print("recovered ancilla-zero block:")
    print(np.round(block, 6))
    print("block error:", f"{operator_norm(block - rho.matrix):.2e}")


if __name__ == "__main__":
    main()

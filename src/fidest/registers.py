"""The level rule: the qubit budget, the register each stage commits, both
stages' levels and the level a stage reports, all in ``stage_levels`` (and
``stage_label``), the one place a register is counted and the budget checked.
A purification commits its main register (system and encoding) and its
garbage.  A level counts the register a stage commits, not the array it
simulates: a perturbed eta circuit commits W's register but runs on eta's rows
with W's ancillas zero."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import RegisterTooLargeError

if TYPE_CHECKING:
    from .pipeline import PipelineParams

DEFAULT_QUBIT_BUDGET = 14


def stage_levels(n: int, rho_garbage: int, sigma_garbage: int,
                 params: PipelineParams) -> tuple[bool, bool]:
    """Whether W and the eta stage run as circuits, for roles on n system
    qubits with ``rho_garbage`` and ``sigma_garbage`` garbage qubits.

    W's register on the sigma stage's output is a mirror of the output's main
    register, then main and sigma's garbage; that main register is the
    system, the l_sigma-qubit phase register (a circuit only) and the flag.
    Eta's register is W's plus rho's garbage, and the eta circuit's register
    is eta's main register (W's), rho's garbage, l phase qubits and the flag.
    At circuit-pe, W is a circuit when eta's register on a circuit W fits
    the budget, and the eta stage when its circuit on that W fits it.  A
    call no level can run is refused before anything is built: W's register,
    then eta's, over the budget raises RegisterTooLargeError.
    """
    budget = params.qubit_budget
    circuit = params.sim_level == "circuit-pe"
    circuit_w_qubits = 2 * (n + params.sigma.l + 1) + sigma_garbage
    w_circuit = circuit and circuit_w_qubits + rho_garbage <= budget
    w = circuit_w_qubits if w_circuit else 2 * (n + 1) + sigma_garbage
    for construction, qubits in (("construction", w), ("eta register", w + rho_garbage)):
        if qubits > budget:
            msg = f"{construction} needs {qubits} qubits, budget is {budget}"
            raise RegisterTooLargeError(msg)
    return w_circuit, circuit and w + rho_garbage + params.eta.l + 1 <= budget


def stage_label(circuit: bool, perturbation: float) -> str:
    """The level a stage reports, from the level it ran and the perturbation."""
    if not circuit:
        return "ideal-spectral"
    return "circuit-pe-perturbed" if perturbation > 0 else "circuit-pe"

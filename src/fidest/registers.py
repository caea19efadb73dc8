"""The qubit budget and the register rule: the qubits each construction
commits, and the one check of a count against the budget.  A purification
commits its main register (system and encoding) and its garbage.  A level
counts the register a stage commits, not the array it simulates: a perturbed
eta circuit commits W's register but runs on eta's rows with W's ancillas zero."""

from .errors import RegisterTooLargeError

DEFAULT_QUBIT_BUDGET = 14


def w_qubits(main: int, garbage: int) -> int:
    """W's register on a purification of ``main`` and ``garbage`` qubits: a
    mirror of main, then main and garbage."""
    return 2 * main + garbage


def eta_qubits(w: int, rho_garbage: int) -> int:
    """Eta's register: W's (system and W's ancillas), then rho's garbage."""
    return w + rho_garbage


def circuit_qubits(main: int, garbage: int, l: int) -> int:
    """An extraction circuit's register on a purification of ``main`` and
    ``garbage`` qubits: main, the l-qubit phase register, the flag and
    garbage.  Without garbage it is the main register of the output."""
    return main + garbage + l + 1


def check_budget(construction: str, qubits: int, budget: int, advice: str = "") -> None:
    """Raise RegisterTooLargeError when ``qubits`` exceed ``budget``."""
    if qubits > budget:
        msg = f"{construction} needs {qubits} qubits, budget is {budget}{advice}"
        raise RegisterTooLargeError(msg)

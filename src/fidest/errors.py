"""Exception types raised by the simulator."""


class FidestError(Exception):
    """Base class for all package errors."""


class NotHermitianError(FidestError):
    """Input matrix is not Hermitian within tolerance."""


class NegativeEigenvalueError(FidestError):
    """An eigenvalue is below the allowed negative tolerance."""


class DimensionMismatchError(FidestError):
    """Operands act on incompatible spaces."""


class RankOutOfRangeError(FidestError):
    """Requested rank is outside [1, dimension]."""


class InsufficientAncillaError(FidestError):
    """Too few ancilla qubits to purify the given state."""


class RegisterTooLargeError(FidestError):
    """Construction would exceed the qubit budget."""


class SpectrumOutOfRangeError(FidestError):
    """Encoded operator has eigenvalues outside [0, 1] (beyond tolerance)."""


class IndexOutOfRangeError(FidestError):
    """Grid index is outside [0, T)."""


class NotPowerOfTwoError(FidestError):
    """Value must be a power of two."""


class OutOfRangeError(FidestError):
    """Scalar argument is outside its required interval."""


class InfeasibleParamsError(FidestError):
    """Literal parameter formulas exceed the configured ceiling."""


class UnknownSuiteError(FidestError):
    """Verification suite name is not recognized."""

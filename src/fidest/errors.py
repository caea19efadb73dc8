"""Exception types raised by the simulator, and the range check of the
parameter records, which the CLI's flags read too."""

import numbers


class Range:
    """A parameter's range: its kind (int or float), a test and the test's
    wording."""

    def __init__(self, kind: type, ok, expected: str):
        self.kind, self.ok, self.expected = kind, ok, expected
        self.number = numbers.Integral if kind is int else numbers.Real  # numpy's scalars too

    def check(self, name: str, value):
        """Raise ValueError naming ``name`` unless ``value`` is of the kind
        and passes the test."""
        # the exact type first: an isinstance against a numbers ABC is slow (about 0.7 us)
        if type(value) is not self.kind and not isinstance(value, self.number):
            raise ValueError(f"{name} must be of type {self.kind.__name__}, got {value!r}")
        if not self.ok(value):
            raise ValueError(f"{name} must be {self.expected}, got {value}")


def check_ranges(record):
    """Check each field of ``record`` that its class's ``RANGES`` names."""
    for name, field_range in record.RANGES.items():
        field_range.check(name, getattr(record, name))


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

"""Exception types shared across the package."""


class SuperAlgError(Exception):
    """Base class for all package errors."""


class CapacityError(SuperAlgError):
    """Raised when a generator count exceeds the 64-bit mask capacity."""


class RingMismatchError(SuperAlgError):
    """Raised when operands belong to different rings."""


class ShapeError(SuperAlgError):
    """Raised on incompatible module types or matrix shapes."""


class ParityError(SuperAlgError):
    """Raised when an operation requires homogeneous input of a given parity."""


class DomainError(SuperAlgError, ValueError):
    """Raised when a precondition on values fails (body mismatch, bad root, ...); a ValueError."""


class ParseError(SuperAlgError):
    """Raised on malformed expression or descriptor text.

    Carries the character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position

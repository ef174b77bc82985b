"""Exception types shared across the package."""

from __future__ import annotations


class IEPolyError(Exception):
    """Base class for all package-specific errors."""


class NotInvertible(IEPolyError):
    """Raised when a modular inverse does not exist."""


class InvalidParameters(IEPolyError):
    """Raised when arguments violate a documented precondition."""


class InvalidTriple(IEPolyError):
    """Raised when a parameter triple is not pairwise coprime or is out of range."""


class DomainExceeded(IEPolyError):
    """Raised when an index lies outside the domain a routine supports."""


class DegreeCapExceeded(IEPolyError):
    """Raised when a computation would allocate more coefficients than allowed."""

    def __init__(self, required: int, limit: int, what: str = "degree"):
        super().__init__(f"{what} {required} exceeds the configured cap {limit}")
        self.required = required
        self.cap = limit


class InvariantViolated(IEPolyError):
    """Raised when a computed object fails one of its structural self-checks."""


class NotConsecutive(IEPolyError):
    """Raised when a coefficient set fails to be a consecutive run of integers."""

    def __init__(self, triple, missing: int, lo: int, hi: int):
        super().__init__(
            f"coefficient set of {triple} skips {missing} inside [{lo}, {hi}]"
        )
        self.triple = triple
        self.missing = missing
        self.lo = lo
        self.hi = hi


class PreconditionViolated(IEPolyError):
    """Raised when a verification check is invoked outside its hypotheses."""


class UnknownCheck(IEPolyError):
    """Raised when a check id is not in the registry."""


class PersistenceError(IEPolyError):
    """Raised on malformed or inconsistent result files."""

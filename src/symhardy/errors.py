"""Exception types shared across the package."""


class SymHardyError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(SymHardyError, ValueError):
    """The dimension is outside the defining range of an object."""


class UnsupportedDimensionError(SymHardyError, ValueError):
    """The dimension exceeds what the requested backend can handle."""


class OutOfRangeError(SymHardyError, ValueError):
    """A parameter violates a formula's admissibility precondition."""


class DomainError(SymHardyError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class OnBoundaryError(DomainError):
    """The point lies on the boundary of the symmetry sector."""


class SingularPointError(DomainError):
    """The field or integrand is singular at the requested point."""


class DegenerateSampleError(SymHardyError, RuntimeError):
    """Too many non-finite integrand samples to trust the estimate."""


class SymmetryClassError(SymHardyError, ValueError):
    """A function does not belong to its declared symmetry class."""


class UsageError(SymHardyError, ValueError):
    """A command-line argument is malformed or selects no grid point."""

"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes; library users can catch the
base class or the specific condition they care about.
"""

from __future__ import annotations


class SubdiffError(Exception):
    """Base class for all package errors."""


class DomainError(SubdiffError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class AdmissibilityError(SubdiffError):
    """Problem data violates the admissibility conditions required to solve."""


class GridMismatchError(SubdiffError, ValueError):
    """Operands live on different grids."""


class AliasingError(SubdiffError, ValueError):
    """Requested mode count exceeds what the space grid can represent."""


class ResourceError(SubdiffError):
    """A configured resource cap (storage, step count) would be exceeded."""


class ConfigError(SubdiffError):
    """Run configuration is malformed or contains unknown/invalid entries."""


class SingularSystemError(SubdiffError):
    """A linear system encountered during time stepping is singular."""

    def __init__(self, message: str, *, step: int | None = None):
        super().__init__(message)
        self.step = step

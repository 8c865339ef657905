"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class;
generic ValueError/RuntimeError are reserved for programming errors.
"""

from __future__ import annotations

__all__ = [
    "CuspGrowthError",
    "DomainError",
    "ProfileError",
    "BridgeConstructionError",
    "CatalogError",
    "QuadratureError",
    "EnumerationCapError",
    "ConfigError",
]


class CuspGrowthError(Exception):
    """Base class for all package errors."""


class DomainError(CuspGrowthError):
    """An argument is outside the mathematical domain of the operation."""


class ProfileError(CuspGrowthError):
    """A profile is structurally invalid (overlapping or gapped pieces,
    bad parameters, non-monotone data)."""


class BridgeConstructionError(ProfileError):
    """No monotone transition between the two analytic envelopes stays
    sandwiched between them on the requested band."""


class CatalogError(CuspGrowthError):
    """Catalog parameters are inadmissible for the requested family."""


class QuadratureError(CuspGrowthError):
    """An integral failed to converge within its panel budget.  Carries the
    partial log-domain estimate computed so far."""

    def __init__(self, message: str, log_partial: float = float("nan")):
        super().__init__(message)
        self.log_partial = log_partial


class EnumerationCapError(CuspGrowthError):
    """A group-element enumeration would exceed the configured radius or
    element-count cap."""


class ConfigError(CuspGrowthError):
    """A user-supplied configuration file or CLI argument is malformed."""

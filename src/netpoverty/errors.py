"""Exception hierarchy.

Every contract violation raises a subclass of :class:`NetpovertyError`.
Bad input of any kind is a :class:`ValidationError` (also a ValueError),
so callers can use a single except clause at API boundaries.
"""

from __future__ import annotations


class NetpovertyError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(NetpovertyError, ValueError):
    """Input violates a documented contract; ``row`` / ``column`` locate it when known."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


# --- dependence structures ---------------------------------------------------


class NotSquare(ValidationError):
    """Dependence structure is not a square matrix with at least 2 dimensions."""


class EntryOutOfRange(ValidationError):
    """Dependence entry outside [0, 1], or not finite."""


class DiagonalNotOne(ValidationError):
    """Dependence diagonal entry differs from 1."""


# --- vectors and matrices ----------------------------------------------------


class IndexOutOfRange(NetpovertyError, IndexError):
    """1-based person or dimension index outside its valid range."""


class ShapeMismatch(ValidationError):
    """Inconsistent dimensions between achievements, cutoffs, structure or weights."""


class NonPositiveCutoff(ValidationError):
    """Cutoff must be strictly positive (gaps divide by it)."""


class NegativeAchievement(ValidationError):
    """Achievements must be finite and nonnegative; rejected rather than clamped."""


class NonPositiveWeight(ValidationError):
    """Weights must be strictly positive."""


class WeightTooLarge(ValidationError):
    """Each weight must be strictly below the number of dimensions."""


class SumNotD(ValidationError):
    """Weights must sum to the number of dimensions."""


class InvalidAlpha(ValidationError):
    """Gap exponent must be a finite real >= 0."""


class CutoffOutOfRange(ValidationError):
    """Poverty cutoff k outside (0, ceiling]."""


# --- bounds ------------------------------------------------------------------


class DimensionTooLargeForEnumeration(ValidationError):
    """Subset enumeration is capped at 20 dimensions."""


# --- aggregation -------------------------------------------------------------


class InvalidPartition(ValidationError):
    """Group assignment does not cover every person exactly once."""


# --- axiom transformations ---------------------------------------------------


class NonPositiveAmount(ValidationError):
    """Increments must add a strictly positive amount."""


class NotBistochastic(ValidationError):
    """Matrix is not nonnegative with unit row and column sums."""


class NonPoorRowNotIdentity(ValidationError):
    """Averaging matrix must leave every non-poor row untouched."""


class PersonNotPoor(ValidationError):
    """Rearrangements apply only to poor persons."""


class InvalidGeneratorSettings(ValidationError):
    """Axiom-suite generator settings are unusable."""


# --- file ingestion and reports ----------------------------------------------


class ParseError(ValidationError):
    """A cell or document failed to parse."""


class RaggedRow(ValidationError):
    """Data row has a different field count than the header."""


class EmptyDataset(ValidationError):
    """Dataset has no data rows or no achievement columns."""


class MissingField(ValidationError):
    """Required configuration field is absent."""


class WriteError(NetpovertyError):
    """Report could not be written."""

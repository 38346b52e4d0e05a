"""Dual-cutoff identification: poor means the deprivation count reaches k."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import _adopted, _check_k, _frozen_array
from .deprivation import DeprivationCounts
from .errors import ShapeMismatch, ValidationError


@dataclass(frozen=True)
class PovertyStatusVector:
    """Per-person 0/1 poverty statuses under cutoff k."""

    statuses: NDArray[np.int64]
    k: float

    def __post_init__(self) -> None:
        s = _status_values(self.statuses)
        object.__setattr__(self, "statuses", _frozen_array(s, "statuses", 1, np.int64))

    @property
    def n(self) -> int:
        return self.statuses.shape[0]

    @property
    def poor_count(self) -> int:
        return int(np.sum(self.statuses))


def _k_band(k: float) -> float:
    """How far a count may lie below k and still reach it: 1e-12 * max(1, k), at most k / 2."""
    return min(1e-12 * max(1.0, k), 0.5 * k)


def _k_floor(k: float) -> float:
    """The least count that reaches k: k less its band, the one floor every pass compares with."""
    return k - _k_band(k)


def _identify(values: NDArray[np.float64], k: float) -> PovertyStatusVector:
    """Statuses for counts the package computed, at a k its config already checked.

    The comparison's 0/1 result, cast to int64 once, is adopted as it is.
    """
    statuses = (values >= _k_floor(k)).astype(np.int64)
    return _adopted(PovertyStatusVector, statuses=statuses, k=k)


def identify(
    counts: DeprivationCounts, k: float, upper: float | None = None
) -> PovertyStatusVector:
    """Mark person i poor when count_i >= k - min(1e-12 * max(1, k), k / 2).

    k must be positive; pass the methodology's count ceiling, a positive
    real, as ``upper`` to reject k beyond it.  A count on the boundary is poor.  The band
    makes a count that reaches k in exact arithmetic reach it in floats
    too: a count is a row sum of coefficients, while k at the intersection
    approach (the ceiling, k-fraction 1, a count level only for symmetric
    structures or uniform weights) is an ``fsum`` over column sums, and
    the two can differ in the last bits.  Distinct count levels from
    inputs of a few decimal digits lie far further apart than the band.
    The band is at most k / 2, so a count of 0 never reaches a positive k.
    """
    if not isinstance(counts, DeprivationCounts):
        counts = DeprivationCounts(counts)
    return _identify(counts.values, _check_k(k, upper))


def _status_values(statuses, n: int | None = None) -> NDArray:
    """The 0/1 array of a status vector or of a raw sequence, of length n if given."""
    if isinstance(statuses, PovertyStatusVector):
        s = statuses.statuses
    else:
        s = _frozen_array(statuses, "statuses", 1)
        if not np.all((s == 0.0) | (s == 1.0)):
            raise ValidationError("statuses must be 0 or 1")
    if n is not None and s.shape[0] != n:
        raise ShapeMismatch(f"{s.shape[0]} statuses for N = {n} persons")
    return s


def headcount_ratio(statuses: PovertyStatusVector) -> float:
    """Share of the population identified as poor."""
    s = _status_values(statuses)
    if s.size == 0:
        raise ShapeMismatch("headcount ratio needs at least one person")
    return float(np.count_nonzero(s) / s.shape[0])

"""Dual-cutoff identification: poor means the deprivation count reaches k."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import _check_k, _frozen_array
from .deprivation import DeprivationCounts
from .errors import ShapeMismatch, ValidationError


@dataclass(frozen=True)
class PovertyStatusVector:
    """Per-person 0/1 poverty statuses under cutoff k."""

    statuses: NDArray[np.int64]
    k: float

    def __post_init__(self) -> None:
        s = self.statuses
        # a comparison's boolean result is 0/1 by construction
        if not (isinstance(s, np.ndarray) and s.dtype == np.bool_):
            s = _status_values(s)
        object.__setattr__(self, "statuses", _frozen_array(s, "statuses", 1, np.int64))

    @property
    def n(self) -> int:
        return self.statuses.shape[0]

    @property
    def poor_count(self) -> int:
        return int(np.sum(self.statuses))


def _identify(values: NDArray[np.float64], k: float) -> PovertyStatusVector:
    """Statuses for counts the package computed, at a k its config already checked."""
    return PovertyStatusVector(values >= k, k)


def identify(
    counts: DeprivationCounts, k: float, upper: float | None = None
) -> PovertyStatusVector:
    """Mark person i poor when count_i >= k (boundary counts as poor).

    k must be positive; when the count ceiling for the methodology is
    known, pass it as ``upper`` to reject k beyond it.  The comparison
    is an exact float comparison, counts and k are expected to come
    from identical computations on both sides of any before/after test.
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

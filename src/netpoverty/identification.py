"""Dual-cutoff identification: poor means the deprivation count reaches k."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import _check_k, _frozen_array
from .deprivation import DeprivationCounts
from .errors import ShapeMismatch


@dataclass(frozen=True)
class PovertyStatusVector:
    """Per-person 0/1 poverty statuses under cutoff k."""

    statuses: NDArray[np.int64]
    k: float

    def __post_init__(self) -> None:
        statuses = _frozen_array(self.statuses, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "statuses", statuses)

    @property
    def n(self) -> int:
        return self.statuses.shape[0]

    @property
    def poor_count(self) -> int:
        return int(np.sum(self.statuses))


def identify(
    counts: DeprivationCounts, k: float, upper: float | None = None
) -> PovertyStatusVector:
    """Mark person i poor when count_i >= k (boundary counts as poor).

    k must be positive; when the count ceiling for the methodology is
    known, pass it as ``upper`` to reject k beyond it.  The comparison
    is an exact float comparison, counts and k are expected to come
    from identical computations on both sides of any before/after test.
    """
    if isinstance(counts, DeprivationCounts):
        values = counts.values
    else:
        values = np.asarray(counts, dtype=float).reshape(-1)
    k = _check_k(k, upper)
    return PovertyStatusVector(statuses=(values >= k).astype(np.int64), k=k)


def _status_values(statuses) -> NDArray:
    """The array behind a status vector, or a raw status sequence as an array."""
    if isinstance(statuses, PovertyStatusVector):
        return statuses.statuses
    return np.asarray(statuses)


def headcount_ratio(statuses: PovertyStatusVector) -> float:
    """Share of the population identified as poor."""
    s = _status_values(statuses)
    if s.size == 0:
        raise ShapeMismatch("headcount ratio needs at least one person")
    return float(np.count_nonzero(s) / s.shape[0])

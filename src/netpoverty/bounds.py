"""Attainable ranges of the deprivation count.

The count a person can reach depends on the dependence structure: each
dimension that turns deprived raises the count by its jump, which grows
with the total effect that dimension exerts on the others (its column
sum).  Unweighted, the count tops out at

    upper = d + (total - d) / (d - 1)        total = sum of all entries

and its smallest nonzero value is driven by the weakest column.  With
weights the ceiling becomes the weight-scaled version of the same
expression.  Column sums are accumulated with exact rounding (fsum) so
the uniform-weight ceiling equals the unweighted one bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    DependenceStructure,
    WeightVector,
    _frozen_array,
    as_dependence_structure,
    as_weight_vector,
)
from .errors import DimensionTooLargeForEnumeration

#: hard cap for exact subset enumeration (2**d values)
ENUMERATION_LIMIT = 20


@dataclass(frozen=True)
class BoundsSummary:
    """All count bounds for one structure-and-weights choice.

    ``lower_nonzero`` is the unweighted minimum nonzero count; no
    weighted analogue is defined here, use the minimum nonzero element
    of :func:`attainable_scores` instead (a derived quantity).
    """

    upper: float
    lower_nonzero: float
    weighted_upper: float
    jumps: NDArray[np.float64]
    entry_total: float
    column_totals: NDArray[np.float64]

    def __post_init__(self) -> None:
        for name in ("jumps", "column_totals"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), name, 1))


def _column_sums(structure: DependenceStructure) -> list[float]:
    m = structure.entries
    return [math.fsum(m[:, j]) for j in range(structure.d)]


def _jumps(cols: list[float]) -> NDArray[np.float64]:
    d = len(cols)
    return np.array([1.0 + (c - 1.0) / (d - 1) for c in cols])


def _ceiling(cols: list[float], w: NDArray[np.float64]) -> float:
    d = len(cols)
    total = math.fsum(w[j] * cols[j] for j in range(d))
    return d + (total - d) / (d - 1)


def upper_bound(structure: DependenceStructure) -> float:
    """Largest attainable unweighted count (everyone deprived everywhere)."""
    return weighted_upper_bound(structure)


def lower_bound(structure: DependenceStructure) -> float:
    """Smallest attainable nonzero unweighted count (one deprived dimension).

    The jump is monotone in the column sum, so the smallest jump is the
    jump of the smallest column sum, exactly.
    """
    return float(np.min(dimension_jumps(structure)))


def dimension_jumps(structure: DependenceStructure) -> NDArray[np.float64]:
    """Increase in the unweighted count when each dimension turns deprived, as an array."""
    return _jumps(_column_sums(as_dependence_structure(structure)))


def weighted_upper_bound(
    structure: DependenceStructure, weights: WeightVector | None = None
) -> float:
    """Count ceiling under weights; equals the sum of weighted jumps.

    Reduces to :func:`upper_bound` for uniform weights, exactly.
    """
    structure = as_dependence_structure(structure)
    w = as_weight_vector(weights, structure.d)
    return _ceiling(_column_sums(structure), w.values)


def attainable_scores(
    structure: DependenceStructure, weights: WeightVector | None = None
) -> NDArray[np.float64]:
    """Sorted multiset of weighted-jump subset sums over deprivation patterns.

    With uniform weights these are exactly the counts a person can
    attain; the maximum element is the weighted ceiling either way.
    Duplicates are kept so degenerate count levels stay visible.
    Enumeration is exact and capped at ``ENUMERATION_LIMIT`` dimensions.
    """
    structure = as_dependence_structure(structure)
    d = structure.d
    if d > ENUMERATION_LIMIT:
        raise DimensionTooLargeForEnumeration(
            f"d = {d} exceeds the enumeration cap of {ENUMERATION_LIMIT}"
        )
    w = as_weight_vector(weights, d)
    return _subset_sums(w.values * dimension_jumps(structure))


def _subset_sums(values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Sorted sums of every subset of ``values``, 2 ** len(values) of them."""
    sums = np.zeros(1 << len(values))
    for i, v in enumerate(values):
        # the sums without ``v`` fill the first half, so these are the sums with it
        np.add(sums[: 1 << i], v, out=sums[1 << i : 2 << i])
    sums.sort()
    return sums


def bounds_summary(
    structure: DependenceStructure, weights: WeightVector | None = None
) -> BoundsSummary:
    """All bound quantities from one pass over the column sums."""
    structure = as_dependence_structure(structure)
    d = structure.d
    w = as_weight_vector(weights, d)
    cols = _column_sums(structure)
    jumps = _jumps(cols)
    return BoundsSummary(
        upper=_ceiling(cols, np.ones(d)),
        lower_nonzero=float(np.min(jumps)),
        weighted_upper=_ceiling(cols, w.values),
        jumps=jumps,
        entry_total=math.fsum(cols),
        column_totals=np.array(cols),
    )

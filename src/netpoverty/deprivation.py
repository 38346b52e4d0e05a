"""Deprivation gaps and dependence-adjusted deprivation scores.

For achievement y, cutoff z > 0 and exponent alpha >= 0 the normalized
gap is ((z - y) / z) ** alpha when y < z and 0 otherwise.  At alpha = 0
this is the plain deprivation indicator.  A person sitting exactly at
the cutoff is not deprived for any alpha; this keeps the aggregate
measure at zero when everyone is at the cutoff vector.

The score of dimension j adds to its own gap the average of the other
dimensions' gaps, each scaled by the matching row entry of the
dependence structure:

    score[j] = gap[j] + (1 / (d - 1)) * sum over j' != j of m[j, j'] * gap[j']

With a disconnected (identity) structure the score reduces to the plain
gap; with entries in [0, 1] it is bounded by 2.  Weights multiply the
finished score.  They are never applied inside the neighbor average,
which would conflate the importance of dimensions with the dependence
between them.

Determinism: every per-person quantity here depends only on that
person's row and is computed through fixed reduction trees, so results
are bit-for-bit reproducible and invariant under row reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    DependenceStructure,
    WeightVector,
    _check_alpha,
    _coefficient_values,
    _frozen_array,
    _real,
    as_achievement_matrix,
    as_cutoff_vector,
    as_dependence_structure,
    as_weight_vector,
    check_dimension_index,
)
from .errors import NegativeAchievement, NonPositiveCutoff, ShapeMismatch, ValidationError

# cap on rows * d * d cells per broadcast chunk (memory bound)
_CHUNK_CELLS = 4_000_000


@dataclass(frozen=True)
class GapMatrix:
    """N x d normalized gaps at a fixed exponent; entries in [0, 1]."""

    alpha: float
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values, "gaps", 2))


@dataclass(frozen=True)
class DeprivationMatrix:
    """N x d deprivation scores; ``weighted`` marks entries already scaled by weights."""

    alpha: float
    weighted: bool
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values, "scores", 2))


@dataclass(frozen=True)
class DeprivationCounts:
    """Per-person deprivation counts: row sums of (weighted) indicator-level scores."""

    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        values = _frozen_array(self.values, "deprivation counts", 1)
        if not np.all(np.isfinite(values)):
            raise ValidationError("deprivation counts must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def normalized_gap(y: float, z: float, alpha: float) -> float:
    """Normalized deprivation gap of a single achievement.

    Returns ((z - y) / z) ** alpha when y < z, else 0.  alpha = 0 gives
    the deprivation indicator (0 at y = z).
    """
    alpha = _check_alpha(alpha)
    z = _real(z, NonPositiveCutoff, "cutoff")
    y = _real(y, NegativeAchievement, "achievement")
    if not math.isfinite(z) or z <= 0.0:
        raise NonPositiveCutoff(f"cutoff {z} must be a positive real")
    if not math.isfinite(y) or y < 0.0:
        raise NegativeAchievement(f"achievement {y} must be a nonnegative real")
    if y >= z:
        return 0.0
    return ((z - y) / z) ** alpha


def _gap_values(
    y: NDArray[np.float64], z: NDArray[np.float64], alpha: float
) -> NDArray[np.float64]:
    deprived = y < z
    base = np.clip((z - y) / z, 0.0, 1.0)
    return np.where(deprived, base**alpha, 0.0)


def _consistent_inputs(achievements, cutoffs, structure):
    """Coerce achievements, cutoffs and structure; check they share one d."""
    y = as_achievement_matrix(achievements)
    z = as_cutoff_vector(cutoffs)
    structure = as_dependence_structure(structure)
    if not (y.d == z.d == structure.d):
        raise ShapeMismatch(
            f"inconsistent dimensions: achievements {y.d}, cutoffs {z.d}, "
            f"structure {structure.d}"
        )
    return y, z, structure


def gap_matrix(achievements, cutoffs, alpha: float) -> GapMatrix:
    """Normalized gaps for a whole population at a fixed exponent."""
    alpha = _check_alpha(alpha)
    y = as_achievement_matrix(achievements)
    z = as_cutoff_vector(cutoffs)
    if y.d != z.d:
        raise ShapeMismatch(f"achievements have d = {y.d}, cutoffs have d = {z.d}")
    return GapMatrix(alpha=alpha, values=_gap_values(y.values, z.values, alpha))


def _neighbor_values(
    gaps: NDArray[np.float64], off_diag: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Row-wise sum over j' of off_diag[j, j'] * gaps[i, j'].

    Implemented as a broadcast reduction rather than a BLAS matmul so
    each output row is a pure function of its own input row; this keeps
    person-permutation invariance exact at the bit level.
    """
    n, d = gaps.shape
    rows = max(1, _CHUNK_CELLS // (d * d))
    out = np.empty((n, d))
    for s in range(0, n, rows):
        chunk = gaps[s : s + rows, None, :] * off_diag[None, :, :]
        np.sum(chunk, axis=2, out=out[s : s + rows])
    return out


def _score_values(
    gaps: NDArray[np.float64], off_diag: NDArray[np.float64]
) -> NDArray[np.float64]:
    d = off_diag.shape[0]
    return gaps + _neighbor_values(gaps, off_diag) / (d - 1)


def deprivation_score(gaps, structure: DependenceStructure, j: int) -> float:
    """Dependence-adjusted score of dimension j (1-based) for one gap row."""
    structure = as_dependence_structure(structure)
    d = structure.d
    j = check_dimension_index(j, d)
    g = _frozen_array(gaps, "gap row", 1)
    if g.shape[0] != d:
        raise ShapeMismatch(f"gap row has length {g.shape[0]}, structure has d = {d}")
    off_row = structure.off_diagonal()[j - 1]
    return float(g[j - 1] + np.sum(g * off_row) / (d - 1))


def deprivation_matrix(
    achievements,
    cutoffs,
    structure: DependenceStructure,
    alpha: float,
    weights: WeightVector | None = None,
) -> DeprivationMatrix:
    """Dependence-adjusted scores for a whole population.

    With ``weights`` given, each column is scaled by its weight after
    the score is formed, and the result is flagged ``weighted``.
    """
    alpha = _check_alpha(alpha)
    y, z, structure = _consistent_inputs(achievements, cutoffs, structure)
    gaps = _gap_values(y.values, z.values, alpha)
    scores = _score_values(gaps, structure.off_diagonal())
    if weights is None:
        return DeprivationMatrix(alpha=alpha, weighted=False, values=scores)
    w = as_weight_vector(weights, structure.d)
    return DeprivationMatrix(alpha=alpha, weighted=True, values=scores * w.values)


def _count_values(
    y: NDArray[np.float64], z: NDArray[np.float64], coef: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Per-person counts: the coefficients of the deprived dimensions, summed."""
    return np.sum(np.where(y < z, coef, 0.0), axis=1)


def deprivation_counts(
    achievements,
    cutoffs,
    structure: DependenceStructure,
    weights: WeightVector | None = None,
) -> DeprivationCounts:
    """Per-person sums of (weighted) indicator-level scores.

    Same coefficient-form route the aggregates identify the poor by, so
    a count exactly at k is classified alike.  With a disconnected
    structure and unit weights this is the classic deprived-dimension count.
    """
    y, z, structure = _consistent_inputs(achievements, cutoffs, structure)
    coef = _coefficient_values(structure, as_weight_vector(weights, structure.d).values)
    return DeprivationCounts(values=_count_values(y.values, z.values, coef))


def gap_sensitivity(structure: DependenceStructure, j: int, j_prime: int) -> float:
    """Multiplier on the own-gap derivative when relative achievement j' moves.

    The derivative of score j with respect to the relative achievement
    of j' is this multiplier times the derivative of the gap itself:
    1 for j' = j, entries[j, j'] / (d - 1) otherwise.
    """
    structure = as_dependence_structure(structure)
    d = structure.d
    j = check_dimension_index(j, d)
    j_prime = check_dimension_index(j_prime, d)
    if j_prime == j:
        return 1.0
    return float(structure.entries[j - 1, j_prime - 1] / (d - 1))

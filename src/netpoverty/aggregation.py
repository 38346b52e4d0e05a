"""Aggregate poverty measures of the FGT family, dependence-aware.

The headline measure averages the weighted, poverty-censored deprivation
scores and divides by N times the weighted count ceiling, so the result
cannot be inflated simply by declaring more connections between
dimensions.  The naive variant keeps the classic N * d denominator and
is retained for diagnostics only: its value grows with every added
connection, which is exactly the manipulation the corrected denominator
removes.

Numerical contract: every aggregate is evaluated through the
coefficient form of :mod:`netpoverty.weights` in one N x d pass, with
no N x d x d neighbor sums.  The coefficients and the ceiling are read
from the :class:`~netpoverty.core.MethodologyConfig`, which derives them
once per methodology; the public functions taking loose arguments
build that config first.  Per-person counts and row sums use fixed
per-row reductions (never a per-person BLAS product) and the
cross-person total uses exact rounding (math.fsum).  Row sums are
therefore bit-identical under row permutation and the total is
permutation invariant, which makes the symmetry and focus axioms hold
exactly, not just to tolerance.  The censored matrix of
coefficient-weighted gaps (rows of the non-poor zeroed) is
materialized and hashed so results can be traced to the exact
arithmetic inputs.  Every per-person quantity depends only on that
person's row, so a subgroup's aggregate is the same reduction (exact
total, denominator, hash) taken over its rows of the one pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    DependenceStructure,
    MethodologyConfig,
    WeightVector,
    _coefficient_values,
    as_achievement_matrix,
)
from .deprivation import _count_values, _gap_values
from .errors import InvalidPartition, ShapeMismatch
from .identification import PovertyStatusVector, _identify

#: equality band for decomposition checks
RECOMBINATION_TOL = 1e-12


@dataclass(frozen=True)
class FgtResult:
    """One aggregate evaluation: value, the inputs that shaped it, and a trace hash."""

    value: float
    alpha: float
    k: float
    denominator: float
    censored_matrix_hash: str
    kind: str


@dataclass(frozen=True)
class DecompositionResult:
    """Per-group results plus the population-share recombination check."""

    total: FgtResult
    group_results: dict
    group_sizes: dict
    recombination_error: float
    recombines: bool


def _censored_hash(censored: NDArray[np.float64]) -> str:
    h = hashlib.sha256()
    h.update(f"{censored.shape[0]}x{censored.shape[1]}:".encode())
    h.update(np.ascontiguousarray(censored).tobytes())
    return h.hexdigest()


def _fgt(censored: NDArray[np.float64], config: MethodologyConfig, kind: str) -> FgtResult:
    """The exact total of censored rows over the kind's denominator, with their hash."""
    n = censored.shape[0]
    denominator = n * config.d if kind == "naive" else n * config.score_ceiling
    value = math.fsum(np.sum(censored, axis=1)) / denominator
    return FgtResult(value, config.alpha, config.k, denominator, _censored_hash(censored), kind)


def _coefficient_pass(
    achievements, config: MethodologyConfig, kind: str = "network_adjusted"
) -> tuple[FgtResult, NDArray[np.float64], PovertyStatusVector, NDArray[np.float64]]:
    """Counts, identification and the censored matrix in one N x d pass.

    Returns the aggregate with the per-person counts, statuses and
    censored rows it was built from.  The coefficients and the ceiling
    come from ``config``, which has already checked k against that
    ceiling.  The naive kind counts with the uniform coefficients of the
    structure and divides by N * d instead of N times the ceiling.
    """
    ym = as_achievement_matrix(achievements)
    if ym.d != config.d:
        raise ShapeMismatch(f"achievements have d = {ym.d}, config has d = {config.d}")
    y, z = ym.values, config.cutoffs.values
    if kind == "naive":
        coef = _coefficient_values(config.structure, np.ones(config.d))
    else:
        coef = config.coefficients
    counts = _count_values(y, z, coef)
    statuses = _identify(counts, config.k)
    censored = (_gap_values(y, z, config.alpha) * coef) * statuses.statuses[:, None]
    return _fgt(censored, config, kind), counts, statuses, censored


def fgt_network_adjusted(
    achievements,
    cutoffs,
    structure: DependenceStructure,
    weights: WeightVector | None,
    alpha: float,
    k: float,
) -> FgtResult:
    """Dependence-corrected aggregate poverty measure.

    Sums the weighted scores of the poor and divides by N times the
    weighted count ceiling.  With a disconnected structure and uniform
    weights this is the classic adjusted FGT value.
    """
    config = MethodologyConfig(alpha, k, structure, weights, cutoffs)
    return _coefficient_pass(achievements, config)[0]


def fgt_naive(
    achievements,
    cutoffs,
    structure: DependenceStructure,
    alpha: float,
    k: float,
) -> FgtResult:
    """Uncorrected diagnostic aggregate with the classic N * d denominator.

    Grows when connections are added, so it is unsuitable as a headline
    figure; exposed to make that manipulation visible.  Identification
    uses the unweighted counts, and k is validated against the same
    ceiling the corrected form would use (uniform weights).
    """
    config = MethodologyConfig(alpha, k, structure, None, cutoffs)
    return _coefficient_pass(achievements, config, "naive")[0]


def decompose_by_group(
    achievements, group_labels, config: MethodologyConfig
) -> DecompositionResult:
    """Aggregate per subgroup and verify the population-share recombination.

    ``group_labels`` holds one hashable label per person, so every person
    lands in exactly one group.  Labels equal as dict keys share a group,
    and groups keep first-appearance order.  Each group's result is the
    aggregate of its rows, bit for bit: the total's reduction taken over
    those rows of the one censored matrix.  The weighted average of group
    values must reproduce the total within 1e-12; the result records the
    achieved error.
    """
    ym = as_achievement_matrix(achievements)
    # grouped after the pass, so the row lists do not add to its peak memory
    total, _, _, censored = _coefficient_pass(ym, config)
    groups: dict = {}
    try:
        labels = list(group_labels)
        for i, label in enumerate(labels):
            groups.setdefault(label, []).append(i)
    except TypeError as exc:
        raise InvalidPartition(f"group labels must be hashable values ({exc})") from None
    if len(labels) != ym.n:
        raise InvalidPartition(
            f"{len(labels)} labels for {ym.n} persons; need exactly one per person"
        )
    group_results = {g: _fgt(censored[idx], config, total.kind) for g, idx in groups.items()}
    group_sizes = {g: len(idx) for g, idx in groups.items()}
    recombined = math.fsum(
        (group_sizes[g] / ym.n) * group_results[g].value for g in group_results
    )
    error = abs(recombined - total.value)
    return DecompositionResult(
        total=total,
        group_results=group_results,
        group_sizes=group_sizes,
        recombination_error=error,
        recombines=error <= RECOMBINATION_TOL,
    )

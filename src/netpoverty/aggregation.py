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
no N x d x d neighbor sums.  Per-person counts and row sums use fixed
per-row reductions (never a per-person BLAS product) and the
cross-person total uses exact rounding (math.fsum).  Row sums are
therefore bit-identical under row permutation and the total is
permutation invariant, which makes the symmetry and focus axioms hold
exactly, not just to tolerance.  The censored matrix of
coefficient-weighted gaps (rows of the non-poor zeroed) is
materialized and hashed so results can be traced to the exact
arithmetic inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bounds import weighted_upper_bound
from .core import (
    DependenceStructure,
    MethodologyConfig,
    WeightVector,
    _check_alpha,
    as_achievement_matrix,
    as_weight_vector,
)
from .deprivation import (
    _coefficient_values,
    _consistent_inputs,
    _count_values,
    _gap_values,
)
from .errors import InvalidPartition
from .identification import PovertyStatusVector, identify

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


def _coefficient_pass(
    achievements,
    cutoffs,
    structure: DependenceStructure,
    weights: WeightVector | None,
    alpha: float,
    k: float,
    kind: str,
) -> tuple[FgtResult, NDArray[np.float64], PovertyStatusVector]:
    """Counts, identification and the aggregate in one N x d pass.

    Returns the aggregate with the per-person counts and statuses it was
    built from.  The naive kind divides by N * d instead of N times the
    ceiling.
    """
    alpha = _check_alpha(alpha)
    ym, zc, ms = _consistent_inputs(achievements, cutoffs, structure)
    wv = as_weight_vector(weights, ms.d)
    ceiling = weighted_upper_bound(ms, wv)
    coef = _coefficient_values(ms, wv.values)
    y, z = ym.values, zc.values
    counts = _count_values(y, z, coef)
    statuses = identify(counts, k, upper=ceiling)
    censored = (_gap_values(y, z, alpha) * coef) * statuses.statuses[:, None]
    denominator = ym.n * (ms.d if kind == "naive" else ceiling)
    result = FgtResult(
        value=math.fsum(np.sum(censored, axis=1)) / denominator,
        alpha=alpha,
        k=statuses.k,
        denominator=denominator,
        censored_matrix_hash=_censored_hash(censored),
        kind=kind,
    )
    return result, counts, statuses


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
    return _coefficient_pass(
        achievements, cutoffs, structure, weights, alpha, k, "network_adjusted"
    )[0]


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
    return _coefficient_pass(
        achievements, cutoffs, structure, None, alpha, k, "naive"
    )[0]


def decompose_by_group(
    achievements, group_labels, config: MethodologyConfig
) -> DecompositionResult:
    """Aggregate per subgroup and verify the population-share recombination.

    ``group_labels`` assigns one label per person (coverage and
    disjointness hold by construction).  Groups keep first-appearance
    order.  The weighted average of group values must reproduce the
    total within 1e-12; the result records the achieved error.
    """
    ym = as_achievement_matrix(achievements)
    labels = list(group_labels)
    if len(labels) != ym.n:
        raise InvalidPartition(
            f"{len(labels)} labels for {ym.n} persons; need exactly one per person"
        )
    total = fgt_network_adjusted(
        ym, config.cutoffs, config.structure, config.weights, config.alpha, config.k
    )
    group_results: dict = {}
    group_sizes: dict = {}
    for label in labels:
        if label in group_results:
            continue
        idx = [i for i, g in enumerate(labels) if g == label]
        sub = ym.values[idx, :]
        group_sizes[label] = len(idx)
        group_results[label] = fgt_network_adjusted(
            sub, config.cutoffs, config.structure, config.weights, config.alpha, config.k
        )
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

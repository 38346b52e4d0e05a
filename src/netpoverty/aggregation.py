"""Aggregate poverty measures of the FGT family, dependence-aware.

The headline measure averages the weighted, poverty-censored deprivation
scores and divides by N times the weighted count ceiling, so the result
cannot be inflated simply by declaring more connections between
dimensions.  The naive variant keeps the classic N * d denominator and
is retained for diagnostics only: its value grows with every added
connection, which is exactly the manipulation the corrected denominator
removes.

Numerical contract: every aggregate is evaluated through the
coefficient form of :mod:`netpoverty.weights`, with no N x d x d
neighbor sums, in one pass over row blocks of about 2**15 cells (256
KB, L2-sized).  Each block is counted, identified, censored and summed
per row.  Raw achievements are read in place, after the checks of
:class:`~netpoverty.core.AchievementMatrix`, so the only full-size array
a call allocates is the censored matrix it returns.  From 2**17 cells
on, with more than one usable CPU (the process's CPU affinity),
short-lived threads, one per CPU past the caller's and never more than
there are blocks, share the blocks with the calling thread: each claims
the next unclaimed block in row order and writes only its rows.  The
per-person counts and the scores of
:func:`~netpoverty.deprivation.deprivation_matrix` and of a report are
shared the same way.  The caller takes the running SHA-256 in row
order, hashing each block once it and those before it have returned
and otherwise running a block itself, so the hash overlaps the other
threads' work.  There is no setting for any of this.  Every step is
elementwise or a per-row reduction, and SHA-256 over consecutive blocks
equals SHA-256 over their concatenation, so every value, count, status,
censored byte and hash is bitwise that of one whole-array pass, on any
number of CPUs.  The coefficients and the ceiling are read from the
:class:`~netpoverty.core.MethodologyConfig`, which derives them once
per methodology; the public functions taking loose arguments build that
config first.  Per-person counts and row sums use fixed
per-row reductions (never a per-person BLAS product) and the
cross-person total uses exact rounding (math.fsum).  Row sums are
therefore bit-identical under row permutation and the total is
permutation invariant, which makes the symmetry and focus axioms hold
exactly, not just to tolerance.  The censored matrix of
coefficient-weighted gaps (rows of the non-poor zeroed) is
materialized and hashed so results can be traced to the exact
arithmetic inputs.  Every per-person quantity depends only on that
person's row, so a subgroup's aggregate is the same reduction (exact
total, denominator, hash) taken over its rows of the censored matrix.
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
    _achievement_values,
    _coefficient_values,
)
from .deprivation import _row_blocks
from .errors import InvalidPartition, ShapeMismatch
from .identification import PovertyStatusVector, _k_band

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
    h = hashlib.sha256(f"{censored.shape[0]}x{censored.shape[1]}:".encode())
    h.update(censored)  # hashlib reads a C-contiguous array's buffer, no copy
    return h.hexdigest()


def _fgt(
    row_sums: NDArray[np.float64], digest: str, config: MethodologyConfig, kind: str
) -> FgtResult:
    """The exact total of censored row sums over the kind's denominator."""
    n = row_sums.shape[0]
    denominator = n * config.d if kind == "naive" else n * config.score_ceiling
    value = math.fsum(row_sums.tolist()) / denominator  # a list iterates faster
    return FgtResult(value, config.alpha, config.k, denominator, digest, kind)


def _pass_block(rows, y, z, coef, reach, alpha, counts, poor, row_sums, censored) -> None:
    """Count, identify, censor and sum one row block, into those rows of the outputs."""
    yb, block = y[rows], censored[rows]
    kept = yb < z
    # the block holds the count terms before it holds the censored rows
    np.multiply(kept, coef, out=block)
    np.sum(block, axis=1, out=counts[rows])
    np.greater_equal(counts[rows], reach, out=poor[rows])
    kept &= poor[rows, None]
    # a cell at or above its cutoff gets the base +0.0, so no step overflows;
    # ``kept`` then zeroes it and the rows of the non-poor
    np.minimum(yb, z, out=block)
    np.subtract(z, block, out=block)
    block /= z
    block **= alpha
    block *= kept
    block *= coef
    np.sum(block, axis=1, out=row_sums[rows])


def _coefficient_pass(
    achievements, config: MethodologyConfig, kind: str = "network_adjusted"
) -> tuple[FgtResult, NDArray[np.float64], PovertyStatusVector, NDArray[np.float64]]:
    """Counts, identification and the censored matrix, one row block at a time.

    Returns the aggregate with the per-person counts, statuses and
    censored rows it was built from.  The coefficients and the ceiling
    come from ``config``, which has already checked k against that
    ceiling.  The naive kind counts with the uniform coefficients of the
    structure and divides by N * d instead of N times the ceiling.
    """
    y, z = _achievement_values(achievements), config.cutoffs.values
    n, d = y.shape
    if d != config.d:
        raise ShapeMismatch(f"achievements have d = {d}, config has d = {config.d}")
    if kind == "naive":
        coef = _coefficient_values(config.structure, np.ones(d))
    else:
        coef = config.coefficients
    reach = config.k - _k_band(config.k)
    counts, poor, row_sums = np.empty(n), np.empty(n, dtype=bool), np.empty(n)
    censored = np.empty((n, d))
    h = hashlib.sha256(f"{n}x{d}:".encode())
    _row_blocks(
        n,
        d,
        lambda rows: _pass_block(
            rows, y, z, coef, reach, config.alpha, counts, poor, row_sums, censored
        ),
        lambda rows: h.update(censored[rows]),
    )
    result = _fgt(row_sums, h.hexdigest(), config, kind)
    return result, counts, PovertyStatusVector(poor, config.k), censored


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
    # grouped after the pass, so the row codes do not add to its peak memory
    total, _, _, censored = _coefficient_pass(achievements, config)
    n = censored.shape[0]
    try:
        labels = list(group_labels)
        # a code per group, by its first label, in first-appearance order
        index = {label: code for code, label in enumerate(dict.fromkeys(labels))}
    except TypeError as exc:
        raise InvalidPartition(f"group labels must be hashable values ({exc})") from None
    if len(labels) != n:
        raise InvalidPartition(
            f"{len(labels)} labels for {n} persons; need exactly one per person"
        )
    codes = np.fromiter(map(index.__getitem__, labels), np.intp, n)
    # stable, so each group's rows stay in row order
    order = np.argsort(codes, kind="stable")
    group_sizes = dict(zip(index, np.bincount(codes).tolist()))
    group_results, start = {}, 0
    for g, size in group_sizes.items():
        rows = censored[order[start:start + size]]
        group_results[g] = _fgt(np.sum(rows, axis=1), _censored_hash(rows), config, total.kind)
        start += size
    recombined = math.fsum(
        (group_sizes[g] / n) * group_results[g].value for g in group_results
    )
    error = abs(recombined - total.value)
    return DecompositionResult(
        total=total,
        group_results=group_results,
        group_sizes=group_sizes,
        recombination_error=error,
        recombines=error <= RECOMBINATION_TOL,
    )

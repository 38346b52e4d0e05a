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
neighbor sums, in one pass over row blocks (the schedule is
:func:`netpoverty.deprivation._row_blocks`'s).  Each block is counted,
identified, censored and summed per row, and its censored rows live
only in a reused block buffer, never in an N x d array.  Raw
achievements are read in place, after the checks of
:class:`~netpoverty.core.AchievementMatrix`.  The censored matrix of
coefficient-weighted gaps (rows of the non-poor zeroed) is hashed on
the caller, block by block in row order, so results can be traced to
the exact arithmetic inputs.  Every step is elementwise or a per-row
reduction, and SHA-256 over consecutive blocks equals SHA-256 over
their concatenation, so every value, count, status, censored byte and
hash is bitwise that of one whole-array pass, on any number of CPUs.
The coefficients and the ceiling are read from the
:class:`~netpoverty.core.MethodologyConfig`, which derives them once per
methodology; the public functions taking loose arguments build that
config first.  Per-person counts and row sums use fixed per-row
reductions (never a per-person BLAS product) and the cross-person total
uses exact rounding (math.fsum).  Row sums are therefore bit-identical
under row permutation and the total is permutation invariant, which
makes the symmetry and focus axioms hold exactly, not just to
tolerance.  Every per-person quantity depends only on that person's
row, so a subgroup's aggregate is the same reduction (exact total,
denominator, hash) taken over its rows: the pass hands each hashed block
to the caller, which feeds each group's rows to that group's hash.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.typing import NDArray

from .core import (
    DependenceStructure,
    MethodologyConfig,
    WeightVector,
    _achievement_values,
    _coefficient_values,
)
from .deprivation import _gaps, _row_blocks
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


def _fgt(
    row_sums: NDArray[np.float64], digest: str, config: MethodologyConfig, kind: str
) -> FgtResult:
    """The exact total of censored row sums over the kind's denominator."""
    n = row_sums.shape[0]
    denominator = n * config.d if kind == "naive" else n * config.score_ceiling
    # one exact sum over short lists: faster than the array, bounded memory
    slices = (row_sums[i:i + 4096].tolist() for i in range(0, n, 4096))
    value = math.fsum(chain.from_iterable(slices)) / denominator
    return FgtResult(value, config.alpha, config.k, denominator, digest, kind)


def _pass_block(rows, block, y, z, coef, reach, alpha, counts, poor, row_sums) -> None:
    """Count, identify, censor and sum one row block; ``block`` receives its censored rows."""
    yb = y[rows]
    kept = yb < z
    # the block holds the count terms before it holds the censored rows
    np.multiply(kept, coef, out=block)
    np.sum(block, axis=1, out=counts[rows])
    np.greater_equal(counts[rows], reach, out=poor[rows])
    kept &= poor[rows, None]
    _gaps(yb, z, alpha, kept, block)
    block *= coef
    np.sum(block, axis=1, out=row_sums[rows])


def _coefficient_pass(
    achievements, config: MethodologyConfig, kind: str = "network_adjusted", sink=None
) -> tuple[FgtResult, NDArray[np.float64], PovertyStatusVector, NDArray[np.float64]]:
    """Counts, identification and censored row sums, one row block at a time.

    Returns the aggregate with the per-person counts, statuses and
    censored row sums it was built from; the censored rows live only in
    the row blocks' reused buffers.  ``sink``, if given, is called with
    the number of persons once the input is checked, and returns the
    function the caller's thread then calls with each block's rows and
    censored values, in row order, after they are hashed.  The
    coefficients and the ceiling come from ``config``, which has already
    checked k against that ceiling.  The naive kind counts with the
    uniform coefficients of the structure and divides by N * d instead of
    N times the ceiling.
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
    h = hashlib.sha256(f"{n}x{d}:".encode())
    feed = None if sink is None else sink(n)

    def consume(rows: slice, block: NDArray[np.float64]) -> None:
        h.update(block)  # hashlib reads a C-contiguous array's buffer, no copy
        if feed is not None:
            feed(rows, block)

    _row_blocks(
        n,
        d,
        lambda rows, block: _pass_block(
            rows, block, y, z, coef, reach, config.alpha, counts, poor, row_sums
        ),
        consume,
    )
    result = _fgt(row_sums, h.hexdigest(), config, kind)
    return result, counts, PovertyStatusVector(poor, config.k), row_sums


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
    aggregate of its rows, bit for bit, from the one pass over the
    population: the exact total of the pass's row sums over those rows,
    and the hash of its censored rows in row order, fed from each block
    as the pass hands it out.  The weighted average of group values must
    reproduce the total within 1e-12; the result records the achieved
    error.
    """
    try:
        labels = list(group_labels)
        # a code per group, by its first label, in first-appearance order
        index = {label: code for code, label in enumerate(dict.fromkeys(labels))}
    except TypeError as exc:
        raise InvalidPartition(f"group labels must be hashable values ({exc})") from None
    codes = np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))
    sizes = np.bincount(codes).tolist()
    # each group's header is fixed by its size, before any of its rows
    hashers = [hashlib.sha256(f"{size}x{config.d}:".encode()) for size in sizes]

    def feed(rows: slice, block: NDArray[np.float64]) -> None:
        # stable, so each group's rows stay in row order
        block_codes = codes[rows]
        order = np.argsort(block_codes, kind="stable")
        block_codes, block = block_codes[order], block[order]
        edges = [0, *(np.flatnonzero(np.diff(block_codes)) + 1).tolist(), len(order)]
        for start, stop in zip(edges, edges[1:]):
            hashers[block_codes[start]].update(block[start:stop])

    def groups_of(n: int):
        # called once the pass has checked the achievements, before any block
        if len(labels) != n:
            raise InvalidPartition(
                f"{len(labels)} labels for {n} persons; need exactly one per person"
            )
        return feed

    total, _, _, row_sums = _coefficient_pass(achievements, config, sink=groups_of)
    order = np.argsort(codes, kind="stable")
    group_results, start = {}, 0
    for g, size, h in zip(index, sizes, hashers):
        group_rows = row_sums[order[start:start + size]]
        group_results[g] = _fgt(group_rows, h.hexdigest(), config, total.kind)
        start += size
    n = len(labels)
    group_sizes = dict(zip(index, sizes))
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

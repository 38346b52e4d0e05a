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
and its cells' weighted gaps are summed per row in a thread's reused
block buffer, never in an N x d array.  In the dual cutoff each person
is identified from their own row, so k applies inside the pass: each
block compares its counts with k's floor and writes its persons'
censored row sums, +0.0 for one who is not poor, into the one N-vector
a call holds (:func:`_censored`).  A caller that also needs the counts
and statuses, the report or the axiom suite, takes them from the same
pass at alpha 0 with a floor that censors nobody
(:func:`~netpoverty.deprivation._counts`).  Raw achievements are read in
place, after the checks of :class:`~netpoverty.core.AchievementMatrix`.
A result's ``censored_matrix_hash`` is the SHA-256 of ``"{n}x{d}:"``
followed by the bytes of its N censored row sums, the exact terms its
total is taken from, so results can be traced to the arithmetic inputs.
Every step is elementwise or a per-row reduction, so every value, count,
status, row sum and hash is bitwise that of one whole-array pass, on
any number of CPUs.
The coefficients and the ceiling are read from the
:class:`~netpoverty.core.MethodologyConfig`, which derives them once per
methodology; the public functions taking loose arguments build that
config first.  Per-person counts and row sums use fixed per-row
reductions (never a per-person BLAS product).  The cross-person total
is exactly rounded, bit-equal to math.fsum: :func:`_exact_total` sums
the mantissas per exponent in integers, a slice of values at a time, so
its memory does not grow with N, and rounds once; below
``_FSUM_VALUES`` values it is math.fsum itself.  Row sums are therefore bit-identical under row
permutation and the total is permutation invariant, which makes the
symmetry and focus axioms hold exactly, not just to tolerance.  Every
per-person quantity depends only on that person's row, so a subgroup's
aggregate is the same reduction (exact total, denominator, hash) taken
over the pass's row sums of its rows.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Set as AbstractSet
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
from .deprivation import _row_sums
from .errors import InvalidPartition, ShapeMismatch
from .identification import _k_floor

#: equality band for decomposition checks
RECOMBINATION_TOL = 1e-12
#: fewer values than this are summed by math.fsum over a list, which is faster there
_FSUM_VALUES = 1024
#: values per slice of the exact total's bucket sums
_TOTAL_SLICE = 8192
_LOW_26 = np.uint64((1 << 26) - 1)


@dataclass(frozen=True)
class FgtResult:
    """One aggregate evaluation: value, the inputs that shaped it, and a trace hash.

    ``censored_matrix_hash`` is the SHA-256 hex digest of ``f"{n}x{d}:"``
    followed by the n censored row sums' float64 bytes, in row order.
    """

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


def _exact_total(values: NDArray[np.float64]) -> float:
    """The exactly rounded sum of a vector of finite float64 values: ``math.fsum``'s bits.

    Each value's bits give its bucket, the sign bit and the biased exponent,
    and its integer mantissa.  Per slice of ``_TOTAL_SLICE`` values,
    ``np.bincount`` counts each bucket's values and sums the low and the
    high 26 bits of their stored mantissas; a float64 bucket sum stays an
    exact integer below 2**27 values, and a slice holds far fewer.  Each
    slice's sums, up to its largest bucket (negatives' are 2048 and up),
    fold into 4096 int64 totals, exact below 2**37 values.  The buckets
    then make one Python int, the sum times 2**1074, and one int true
    division by 2**1074 rounds it once, as fsum does.  Below
    ``_FSUM_VALUES`` values it is fsum itself.

    Unlike fsum it never overflows in between: ``[1e308, 1e308, -1e308]``
    (padded to ``_FSUM_VALUES`` values) gives 1e308 where fsum raises
    "intermediate overflow".  Censored row sums are at most about 2d, so
    validated input cannot meet that case.
    """
    n = values.shape[0]
    if n < _FSUM_VALUES:
        return math.fsum(values.tolist())
    bits = values.view(np.uint64)
    # per bucket: values, sums of the low and of the high 26 stored mantissa bits
    sums = np.zeros((3, 4096), np.int64)
    for start in range(0, n, _TOTAL_SLICE):
        u = bits[start:start + _TOTAL_SLICE]
        bucket = (u >> np.uint64(52)).view(np.int64)
        high = u >> np.uint64(26)
        high &= _LOW_26
        count = np.bincount(bucket)  # up to the slice's largest bucket, as are the sums
        m = len(count)
        sums[0, :m] += count
        np.add(sums[1, :m], np.bincount(bucket, u & _LOW_26), out=sums[1, :m], casting="unsafe")
        np.add(sums[2, :m], np.bincount(bucket, high), out=sums[2, :m], casting="unsafe")
    total, buckets = 0, np.flatnonzero(sums[0])
    for b, count, low, high in zip(buckets.tolist(), *sums[:, buckets].tolist()):
        exponent = b & 0x7FF
        # a normal value's mantissa has its implicit bit; a subnormal's exponent is 1
        mantissa = (count << 52 if exponent else 0) + (high << 26) + low
        total += (-mantissa if b >> 11 else mantissa) << max(exponent, 1) - 1
    return total / (1 << 1074)


def _denominator(n: int, config: MethodologyConfig, kind: str) -> float:
    """N times the ceiling, or N * d for the naive kind."""
    return n * config.d if kind == "naive" else n * config.score_ceiling


def _fgt(row_sums: NDArray[np.float64], config: MethodologyConfig, kind: str) -> FgtResult:
    """The result for censored row sums: their exact total over the denominator, and their hash."""
    n = row_sums.shape[0]
    denominator = _denominator(n, config, kind)
    value = _exact_total(row_sums) / denominator
    import hashlib  # only where a hash is made: a process that hashes nothing never loads OpenSSL

    h = hashlib.sha256(f"{n}x{config.d}:".encode())
    h.update(row_sums)  # hashlib reads a C-contiguous array's buffer, no copy
    return FgtResult(value, config.alpha, config.k, denominator, h.hexdigest(), kind)


def _pass_inputs(achievements, config: MethodologyConfig, kind: str) -> tuple:
    """The checked achievement values, the cutoffs and the coefficients of one pass.

    The naive kind counts with the uniform coefficients of the structure.
    """
    y = _achievement_values(achievements)
    d = y.shape[1]
    if d != config.d:
        raise ShapeMismatch(f"achievements have d = {d}, config has d = {config.d}")
    if kind == "naive":
        return y, config.cutoffs.values, _coefficient_values(config.structure, np.ones(d))
    return y, config.cutoffs.values, config.coefficients


def _censored(
    achievements, config: MethodologyConfig, kind: str = "network_adjusted"
) -> NDArray[np.float64]:
    """The censored row sums, the one N-vector of an aggregate call.

    :func:`~netpoverty.deprivation._row_sums` takes k's floor and censors
    each row block in the pass, so no N-long counts or statuses are made.
    """
    return _row_sums(*_pass_inputs(achievements, config, kind), config.alpha, _k_floor(config.k))


def _value(achievements, config: MethodologyConfig, kind: str = "network_adjusted") -> float:
    """The aggregate value alone, with no hash: the exact total over the denominator."""
    row_sums = _censored(achievements, config, kind)
    return _exact_total(row_sums) / _denominator(row_sums.shape[0], config, kind)


def _aggregate(
    achievements, config: MethodologyConfig, kind: str = "network_adjusted"
) -> FgtResult:
    """The public result of one censoring pass: value, inputs and the hash of its row sums."""
    return _fgt(_censored(achievements, config, kind), config, kind)


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
    return _aggregate(achievements, config)


#: the same function: the benchmark's sweep-wide workload calls it by this name
fgt_via_coefficients = fgt_network_adjusted


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
    return _aggregate(achievements, config, "naive")


def decompose_by_group(
    achievements, group_labels, config: MethodologyConfig
) -> DecompositionResult:
    """Aggregate per subgroup and verify the population-share recombination.

    ``group_labels`` holds one hashable label per person, so every person
    lands in exactly one group; a string, bytes, mapping or set is refused,
    as its items are characters, byte values, keys or hash-ordered members.
    Labels equal as dict keys share a group, and groups keep
    first-appearance order.  Each group's result is the aggregate of its
    rows, bit for bit, from the one pass over the population: the exact
    total and the hash of the pass's row sums over those rows, in row
    order, put in group order by one stable sort of the codes (by radix up
    to 65,536 groups).  The weighted average of group values must
    reproduce the total within 1e-12; the result records the achieved error.
    """
    if isinstance(group_labels, (str, bytes, bytearray, Mapping, AbstractSet)):
        raise InvalidPartition(
            f"group labels must be one label per person, not a {type(group_labels).__name__}"
        )
    try:
        if not isinstance(group_labels, (list, tuple)):  # read twice: the same objects
            group_labels = list(group_labels)
        index = {label: code for code, label in enumerate(dict.fromkeys(group_labels))}
    except TypeError as exc:
        raise InvalidPartition(f"group labels must be hashable values ({exc})") from None
    # a code per person, its group's in first-appearance order, in the least unsigned type
    # that holds every code: a radix sort up to 2**16 groups
    codes = np.fromiter(
        map(index.__getitem__, group_labels), np.min_scalar_type(len(index) - 1), len(group_labels)
    )
    y, z, coef = _pass_inputs(achievements, config, "network_adjusted")
    n = y.shape[0]
    if codes.shape[0] != n:  # before the pass and its allocations
        raise InvalidPartition(
            f"{codes.shape[0]} labels for {n} persons; need exactly one per person"
        )
    row_sums = _row_sums(y, z, coef, config.alpha, _k_floor(config.k))
    total = _fgt(row_sums, config, "network_adjusted")
    sizes = np.bincount(codes).tolist()
    order = np.argsort(codes, kind="stable")
    group_results, start = {}, 0
    for g, size in zip(index, sizes):
        group_results[g] = _fgt(row_sums[order[start:start + size]], config, total.kind)
        start += size
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

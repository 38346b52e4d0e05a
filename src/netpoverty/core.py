"""Domain types for dependence-aware multidimensional poverty measurement.

The central object is a d x d dependence structure whose entry (j, j')
states how strongly deprivation in dimension j' deepens the effective
deprivation in dimension j.  Entries live in [0, 1]; the diagonal is
fixed at 1, so off-diagonal entries read as effects relative to a
dimension's own effect.  Row j collects the effects other dimensions
have *on* j, column j' collects the effects j' exerts on the others.

The remaining types carry achievements, cutoffs, weights and the full
methodology configuration (gap exponent, poverty cutoff, structure,
weights, dimension cutoffs).

All types are frozen dataclasses validated once, on construction, with
their array payloads copied and marked read-only; one built from parts the
package made or validated is adopted: arrays frozen in place, no checks.
Instances are safe to share across threads and workers.  The kernels read
a raw achievement array in place, after the same checks, and never keep it.

Dimension indices in public call signatures are 1-based, j in {1, .., d}.
Raw arguments become numbers only in ``_real_array`` (arrays of one
ndim), ``_real`` and ``_index``, which raise an error naming the argument.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import (
    CutoffOutOfRange,
    DiagonalNotOne,
    EntryOutOfRange,
    IndexOutOfRange,
    InvalidAlpha,
    NegativeAchievement,
    NonPositiveCutoff,
    NonPositiveWeight,
    NotSquare,
    ShapeMismatch,
    SumNotD,
    WeightTooLarge,
)

#: Relative tolerance for float comparisons against exact constants
#: (diagonal equals 1, weights sum to d).  Inputs are finite-precision,
#: the underlying model is exact.
REL_TOL = 1e-9


def _real_array(values: ArrayLike, name: str, ndim: int, dtype=float) -> NDArray:
    """``values`` as a C-ordered ``ndim``-D array (one order for row sums); uncopied if so.

    Complex values and text are refused: a cast would drop the imaginary
    part, or parse numerals the dataset format rejects ("1_000", "١٠").
    """
    try:
        raw = np.asarray(values)
        kind = raw.dtype.kind
        if kind in "cSU" or (kind == "O" and any(isinstance(v, (str, bytes)) for v in raw.flat)):
            raise TypeError
        out = np.asarray(raw, dtype=dtype, order="C")
    except (TypeError, ValueError, OverflowError):
        raise ShapeMismatch(f"{name} must be an array of real numbers") from None
    if out.ndim != ndim:
        raise ShapeMismatch(f"{name} must be a {ndim}-D array, got shape {out.shape}")
    return out


def _frozen_array(values: ArrayLike, name: str, ndim: int, dtype=float) -> NDArray:
    """A read-only ``ndim``-D copy of ``values``; every payload is stored this way."""
    out = _real_array(values, name, ndim, dtype)
    if out is values or out.base is not None:  # the caller's storage: copy it
        out = out.copy()
    out.flags.writeable = False
    return out


def _adopted(cls, **fields):
    """``cls(**fields)`` from parts the package made or validated and no caller holds.

    Every array field is marked read-only in place instead of copied, and
    the constructor is skipped: the fields must be exactly what it would store.
    """
    obj = object.__new__(cls)
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    obj.__dict__.update(fields)
    return obj


def _real(value, error: type[Exception], name: str) -> float:
    """``value`` as a float, or ``error`` naming the type it had; text and booleans are refused."""
    try:
        # float() parses "1_000" and other digits, and reads True as 1
        if isinstance(value, (str, bytes, bool, np.bool_)):
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must be a real number, got {type(value).__name__}") from None


def _index(value, error: type[Exception], name: str) -> int:
    """``value`` as an int (numpy integers included, booleans not), or ``error`` naming its type."""
    try:
        if isinstance(value, bool):  # int's subclass, not a count
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {type(value).__name__}") from None


def _dimension_count(d) -> int:
    """A dimension count ``d`` as an int, checked positive."""
    d = _index(d, ShapeMismatch, "d")
    if d < 1:
        raise ShapeMismatch(f"d = {d} must be a positive integer")
    return d


def _check_alpha(alpha: float) -> float:
    """The gap exponent as a float, checked finite and >= 0."""
    alpha = _real(alpha, InvalidAlpha, "alpha")
    if not math.isfinite(alpha) or alpha < 0.0:
        raise InvalidAlpha(f"alpha = {alpha} must be a finite real >= 0")
    return alpha


def _check_k(k: float, upper: float | None = None) -> float:
    """The poverty cutoff as a float, checked positive and, given ``upper``, within it."""
    k = _real(k, CutoffOutOfRange, "k")
    if not math.isfinite(k) or k <= 0.0:
        raise CutoffOutOfRange(f"k = {k} must be a positive real")
    if upper is None:
        return k
    upper = _real(upper, CutoffOutOfRange, "upper")
    if not math.isfinite(upper) or upper <= 0.0:
        raise CutoffOutOfRange(f"upper = {upper} must be a positive real")
    if k > upper * (1 + REL_TOL):
        raise CutoffOutOfRange(f"k = {k} exceeds the attainable ceiling {upper}")
    return k


@dataclass(frozen=True)
class DependenceStructure:
    """Validated d x d matrix of interdimensional effects."""

    entries: NDArray[np.float64]

    def __post_init__(self) -> None:
        m = _frozen_array(self.entries, "dependence structure", 2)
        if m.shape[0] != m.shape[1]:
            raise NotSquare(f"dependence structure must be square, got shape {m.shape}")
        d = m.shape[0]
        if d < 2:
            # the neighbor average divides by d - 1
            raise NotSquare("at least 2 dimensions are required")
        if not np.all(np.isfinite(m)):
            raise EntryOutOfRange("dependence entries must be finite")
        bad = (m < 0.0) | (m > 1.0)
        if np.any(bad):
            j, jp = np.argwhere(bad)[0] + 1
            raise EntryOutOfRange(
                f"entry ({j}, {jp}) = {m[j - 1, jp - 1]} outside [0, 1]"
            )
        off = np.abs(np.diagonal(m) - 1.0)
        if np.any(off > REL_TOL):
            j = int(np.argmax(off)) + 1
            raise DiagonalNotOne(f"diagonal entry ({j}, {j}) = {m[j - 1, j - 1]} != 1")
        object.__setattr__(self, "entries", m)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def off_diagonal(self) -> NDArray[np.float64]:
        """Copy of the entries with the diagonal zeroed out."""
        out = np.array(self.entries, copy=True)
        np.fill_diagonal(out, 0.0)
        return out

    @classmethod
    def identity(cls, d: int) -> "DependenceStructure":
        """Disconnected structure: every dimension depends only on itself."""
        return cls(np.eye(_dimension_count(d)))

    @classmethod
    def complete(cls, d: int) -> "DependenceStructure":
        """Fully connected structure with all effects at maximum strength."""
        d = _dimension_count(d)
        return cls(np.ones((d, d)))


def _finite_nonnegative(x: NDArray[np.float64]) -> bool:
    """Whether a nonempty C-ordered float64 array is all finite and nonnegative (-0.0 too).

    One scan of the bits: +0.0 up to the largest finite double are the patterns below
    +inf's.  Only -0.0, negatives, infinities and nans lie above: then the order decides.
    """
    if x.view(np.uint64).max() < np.uint64(0x7FF0000000000000):  # +inf's bits
        return True
    return bool(x.min() >= 0.0 and x.max() < math.inf)  # nan fails both


def _achievement_values(y) -> NDArray[np.float64]:
    """``y``'s N x d values, checked nonempty, finite and nonnegative; raw input in place.

    A raw C-ordered float array comes back uncopied: read it, never write or keep it.
    :func:`_finite_nonnegative` checks it; only a failing array is scanned to name a cell.
    """
    if isinstance(y, AchievementMatrix):
        return y.values
    y = _real_array(y, "achievements", 2)
    if y.shape[0] < 1 or y.shape[1] < 1:
        raise ShapeMismatch(f"achievements must be nonempty, got shape {y.shape}")
    if not _finite_nonnegative(y):
        if not np.all(np.isfinite(y)):
            raise NegativeAchievement("achievements must be finite")
        i, j = np.argwhere(y < 0.0)[0] + 1
        raise NegativeAchievement(
            f"achievement ({i}, {j}) = {y[i - 1, j - 1]} is negative",
            row=int(i),
            column=int(j),
        )
    return y


@dataclass(frozen=True)
class AchievementMatrix:
    """N x d matrix of nonnegative achievements, one row per person."""

    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        y = _achievement_values(_frozen_array(self.values, "achievements", 2))
        object.__setattr__(self, "values", y)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CutoffVector:
    """Per-dimension deprivation cutoffs, strictly positive."""

    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        z = _frozen_array(self.values, "cutoffs", 1)
        if z.size < 1:
            raise ShapeMismatch("cutoff vector is empty")
        if not np.all(np.isfinite(z)) or np.any(z <= 0.0):
            j = int(np.argmin(z)) + 1
            raise NonPositiveCutoff(f"cutoff {j} = {z[j - 1]} must be a positive real")
        object.__setattr__(self, "values", z)

    @property
    def d(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class WeightVector:
    """Dimension weights: positive, each below d, summing to d.

    The sum-to-d convention (rather than sum-to-1) keeps uniform weights
    at exactly 1, so the unweighted formulas are the uniform special
    case with no rescaling.
    """

    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        w = _frozen_array(self.values, "weights", 1)
        d = w.shape[0]
        if d < 1:
            raise ShapeMismatch("weight vector is empty")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            j = int(np.argmin(w)) + 1
            raise NonPositiveWeight(f"weight {j} = {w[j - 1]} must be a positive real")
        try:
            total = math.fsum(w)
        except OverflowError:  # finite weights whose sum passes the largest double
            total = math.inf
        if abs(total - d) > REL_TOL * d:
            raise SumNotD(f"weights sum to {total}, expected {d}")
        if np.any(w >= d):
            j = int(np.argmax(w)) + 1
            raise WeightTooLarge(f"weight {j} = {w[j - 1]} must be below d = {d}")
        object.__setattr__(self, "values", w)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @classmethod
    def uniform(cls, d: int) -> "WeightVector":
        return cls(np.ones(_dimension_count(d)))


def _coefficient_values(
    structure: DependenceStructure, w: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Effective coefficients on plain gaps (see :mod:`netpoverty.weights`)."""
    # column j of the off-diagonal entries, weighted by the source dimension
    return w + (structure.off_diagonal().T @ w) / (structure.d - 1)


@dataclass(frozen=True)
class MethodologyConfig:
    """The full methodology: gap exponent, poverty cutoff, structure, weights, cutoffs.

    Validates 0 < k <= weighted score ceiling ``d_tilde``, a
    source-weighted bound: the sum over dimensions j of w[j] times j's
    jump, read from column j of the structure.  It equals the largest
    count, the sum of the coefficients, for a symmetric structure or
    uniform weights; with an asymmetric structure and non-uniform weights
    it can be below or above that count
    (:func:`~netpoverty.weights.check_symmetric_consistency` tells which).
    The ceiling and the per-dimension aggregation coefficients depend on
    the methodology alone, so they are derived here, once, and read by
    every evaluation.
    """

    alpha: float
    k: float
    structure: DependenceStructure
    weights: WeightVector
    cutoffs: CutoffVector
    score_ceiling: float = field(init=False)
    coefficients: NDArray[np.float64] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "structure", as_dependence_structure(self.structure))
        object.__setattr__(self, "cutoffs", as_cutoff_vector(self.cutoffs))
        object.__setattr__(
            self, "weights", as_weight_vector(self.weights, self.structure.d)
        )
        d = self.structure.d
        if self.cutoffs.d != d:
            raise ShapeMismatch(
                f"cutoffs have length {self.cutoffs.d}, structure has d = {d}"
            )
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))

        from .bounds import weighted_upper_bound  # deferred: bounds imports core

        ceiling = weighted_upper_bound(self.structure, self.weights)
        object.__setattr__(self, "k", _check_k(self.k, ceiling))
        object.__setattr__(self, "score_ceiling", ceiling)
        coef = _coefficient_values(self.structure, self.weights.values)
        object.__setattr__(self, "coefficients", _frozen_array(coef, "coefficients", 1))

    @property
    def d(self) -> int:
        return self.structure.d


# --- coercion helpers ---------------------------------------------------------


def as_dependence_structure(m) -> DependenceStructure:
    """Validate a raw square matrix as a dependence structure.

    Checks entries in [0, 1] and a unit diagonal.  A structure passes
    through unchanged.
    """
    return m if isinstance(m, DependenceStructure) else DependenceStructure(m)


def as_cutoff_vector(z) -> CutoffVector:
    return z if isinstance(z, CutoffVector) else CutoffVector(z)


def as_weight_vector(w, d: int) -> WeightVector:
    """Coerce to a validated weight vector; None means uniform."""
    return WeightVector.uniform(d) if w is None else validate_weights(w, d)


# --- operations ----------------------------------------------------------------


validate_dependence_structure = as_dependence_structure


def validate_weights(raw, d: int) -> WeightVector:
    """Validate a raw length-d sequence (or a weight vector) as length-d weights."""
    d = _index(d, ShapeMismatch, "d")
    is_vector = isinstance(raw, WeightVector)
    w = raw.values if is_vector else _frozen_array(raw, "weights", 1)
    if w.shape[0] != d:
        raise ShapeMismatch(f"weights have length {w.shape[0]}, expected {d}")
    return raw if is_vector else WeightVector(w)


def check_dimension_index(j: int, d: int) -> int:
    """Return the validated 1-based dimension index j."""
    j = _index(j, IndexOutOfRange, "dimension index")
    if not 1 <= j <= d:
        raise IndexOutOfRange(f"dimension index {j} outside 1..{d}")
    return j


def connections_of(structure: DependenceStructure, j: int) -> set[int]:
    """Dimensions with a positive effect on j (1-based), including j itself."""
    structure = as_dependence_structure(structure)
    j = check_dimension_index(j, structure.d)
    row = structure.entries[j - 1]
    return {int(jp) + 1 for jp in np.flatnonzero(row > 0.0)}


def is_disconnected(structure: DependenceStructure) -> bool:
    """True when every dimension is connected only to itself."""
    structure = as_dependence_structure(structure)
    return bool(np.all(structure.off_diagonal() == 0.0))

"""Executable checks of the aggregate measure's axioms.

Each axiom is verified statistically.  Random instances are drawn, a
transformation satisfying the axiom's preconditions is applied, and the
aggregate value before and after is compared under the required
relation.  Equality axioms allow a 1e-12 band except where the
arithmetic guarantees exactness (symmetry and the two focus axioms,
which hold bit-for-bit by construction of the aggregation pipeline);
weak inequalities must hold outright; strict inequalities must clear a
1e-12 margin so a true tie is never read as a pass.  Generators steer
clear of near-tie instances for the strict checks by insisting on a
material gap in the incremented cell.

Coverage depends on the gap exponent: monotonicity requires alpha > 0
and weak transfer requires alpha >= 1.  Outside those ranges the report
row carries status "not_covered" instead of a pass or fail.

The unit endpoint behind nontriviality and normalization (value 1 on a
fully deprived population) holds exactly when the per-dimension aggregation
coefficients sum to the weighted count ceiling: always for symmetric
structures or uniform weights, not in general for an asymmetric structure
with non-uniform weights (:func:`netpoverty.weights.check_symmetric_consistency`).
Randomized runs therefore draw those two axioms from that family; all other
axioms are exercised on unrestricted structures and weights, where they
hold regardless.  A pinned methodology is checked as given, so an
inconsistent asymmetric configuration will report normalization failures,
which is the honest answer.

Trials are independent: each derives its own generator from the master
seed, the axiom index and the trial index, so reports are reproducible
under any scheduling.  A random methodology's coefficients and ceiling are
derived once, to place k, and its config, structure and weights are adopted
as drawn, valid by construction, not checked again.

So the suite runs on every usable CPU.  Its trials are numbered in order,
by axiom index and then trial, and split into one share per usable CPU:
share r holds every position p with p mod P = r, which interleaves the
costlier axioms over all shares.  The caller runs share 0; every other
share runs in a worker forked for it (:func:`netpoverty.deprivation._forked`),
which sends back only each axiom's violation count and worst defect, two
doubles an axiom.  The caller adds the counts and takes the largest of the
worst defects, both exactly; each share skips a NaN defect as the serial
loop does, so the rows are the serial rows, bit for bit.  If any share
raises an ``Exception`` or any worker exits other than 0, every worker is
killed and reaped, and the serial loop runs from the start; whatever it
returns or raises is the result, so an error names the same trial, with
the same type and message, on any number of CPUs.  Nothing is forked where
``os.fork`` is missing, while other threads are running, on one usable
CPU, or when a share would get fewer than ``_FORK_TRIALS`` trials.  There
is no option.  However the suite ends, no worker outlives it.

Bistochastic averaging matrices are built as convex combinations of
permutation matrices that move only poor rows, which makes them valid
by construction (nonnegative, unit row and column sums, identity on the
non-poor).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.typing import NDArray

from .aggregation import _value, decompose_by_group
from .bounds import _ceiling
from .core import (
    AchievementMatrix,
    CutoffVector,
    DependenceStructure,
    MethodologyConfig,
    WeightVector,
    _achievement_values,
    _adopted,
    _check_alpha,
    _coefficient_values,
    _frozen_array,
    _index,
    _real,
    check_dimension_index,
)
from .deprivation import _counts, _fork_count, _forked
from .errors import (
    IndexOutOfRange,
    InvalidGeneratorSettings,
    NegativeAchievement,
    NonPoorRowNotIdentity,
    NonPositiveAmount,
    NotBistochastic,
    PersonNotPoor,
    ShapeMismatch,
    ValidationError,
)
from .identification import PovertyStatusVector, _identify, _status_values

#: equality band and strict-inequality margin
TOL = 1e-12

#: bistochastic validation band
BISTOCHASTIC_TOL = 1e-12

_MAX_ATTEMPTS = 500

#: fewest trials in a share of the suite: forking and reaping a worker takes
#: about 2.5 ms, the work of 17 trials; on 2 CPUs a share of 12 trials ran
#: slower than serial (3.7 -> 4.2 ms), of 24 and 48 faster (7.0 -> 6.0,
#: 13.8 -> 9.5 ms); 32 leaves room for a slower fork
_FORK_TRIALS = 32

SIMPLE_INCREMENT = "simple_increment"
AMONG_NON_POOR = "increment_among_non_poor"
AMONG_NON_DEPRIVED = "increment_among_non_deprived"
DEPRIVED_AMONG_POOR = "deprived_increment_among_poor"
DIMENSIONAL_AMONG_POOR = "dimensional_increment_among_poor"


@dataclass(frozen=True)
class GeneratorSettings:
    """Sizes, trial count and master seed for the randomized suite."""

    trials: int = 200
    n_range: tuple[int, int] = (2, 30)
    d_range: tuple[int, int] = (2, 6)
    seed: int = 0

    def __post_init__(self) -> None:
        try:
            (n_lo, n_hi), (d_lo, d_hi) = self.n_range, self.d_range
        except (TypeError, ValueError):
            raise InvalidGeneratorSettings("each range must be a (lo, hi) pair") from None
        values = (self.trials, n_lo, n_hi, d_lo, d_hi, self.seed)
        trials, n_lo, n_hi, d_lo, d_hi, seed = (
            _index(v, InvalidGeneratorSettings, "each generator setting") for v in values
        )
        if trials < 1:
            raise InvalidGeneratorSettings(f"trials = {self.trials} must be >= 1")
        # the sizes are drawn as int64
        if not 1 <= n_lo <= n_hi < 2**63:
            raise InvalidGeneratorSettings(f"bad n_range {self.n_range} (need 1 <= n < 2**63)")
        if not 2 <= d_lo <= d_hi < 2**63:
            raise InvalidGeneratorSettings(f"bad d_range {self.d_range} (need 2 <= d < 2**63)")
        if seed < 0:
            raise InvalidGeneratorSettings(f"seed = {self.seed} must be >= 0")
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "n_range", (n_lo, n_hi))
        object.__setattr__(self, "d_range", (d_lo, d_hi))
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom's trials.

    ``worst_violation`` is the largest defect observed: positive means
    the axiom's relation failed by that much, nonpositive means the
    worst case still satisfied it.  None when not covered.
    """

    axiom: str
    alpha: float
    trials: int
    violations: int
    worst_violation: float | None
    seed: int
    status: str


# --- transformations ----------------------------------------------------------


def _statuses(cfg: MethodologyConfig, y: NDArray[np.float64]) -> PovertyStatusVector:
    """Who is poor among the rows of the checked array ``y`` under the methodology."""
    return _identify(_counts(y, cfg.cutoffs.values, cfg.coefficients), cfg.k)


def apply_simple_increment(
    achievements, i: int, j: int, amount: float, config: MethodologyConfig
) -> tuple[AchievementMatrix, frozenset[str]]:
    """Raise one achievement and classify the increment.

    Returns the new matrix and the set of increment kinds that apply
    (always contains "simple_increment"; the others depend on the
    person's poverty status and the cell's position against the cutoff).
    Person and dimension indices are 1-based.  A raised achievement that
    overflows to infinity is :class:`NegativeAchievement`, naming the cell
    and the amount.
    """
    y = _achievement_values(achievements)
    n, d = y.shape
    i = _index(i, IndexOutOfRange, "person index")
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"person index {i} outside 1..{n}")
    j = check_dimension_index(j, d)
    if d != config.d:
        raise ShapeMismatch(f"achievements have d = {d}, config has d = {config.d}")
    amount = _real(amount, NonPositiveAmount, "amount")
    if not math.isfinite(amount) or amount <= 0.0:
        raise NonPositiveAmount(f"amount = {amount} must be a positive real")

    i0, j0 = i - 1, j - 1
    y_ij = y[i0, j0]
    x_ij = float(y_ij) + amount  # a Python float: an overflow is inf, with no warning
    if not math.isfinite(x_ij):
        raise NegativeAchievement(
            f"achievement ({i}, {j}) = {y_ij} plus amount {amount} is not finite",
            row=i,
            column=j,
        )
    statuses = _statuses(config, y)
    z_j = config.cutoffs.values[j0]
    poor = statuses.statuses[i0] == 1

    labels = {SIMPLE_INCREMENT}
    if not poor:
        labels.add(AMONG_NON_POOR)
    if y_ij > z_j:
        labels.add(AMONG_NON_DEPRIVED)
    if poor and z_j > y_ij:
        labels.add(DEPRIVED_AMONG_POOR)
        if x_ij > z_j:
            labels.add(DIMENSIONAL_AMONG_POOR)

    new = y.copy()
    new[i0, j0] = x_ij  # y was checked and x_ij is finite and above y_ij >= 0
    return _adopted(AchievementMatrix, values=new), frozenset(labels)


def apply_bistochastic_average(
    achievements, mixing, statuses: PovertyStatusVector
) -> AchievementMatrix:
    """Average achievements among the poor with a bistochastic matrix.

    The matrix must be nonnegative with unit row and column sums (within
    1e-12) and must act as the identity on every non-poor row.
    """
    y = _achievement_values(achievements)
    n = y.shape[0]
    b = _frozen_array(mixing, "mixing matrix", 2)
    if b.shape[0] != b.shape[1] or b.shape[0] != n:
        raise ShapeMismatch(f"mixing matrix shape {b.shape} does not match N = {n}")
    if not np.all(np.isfinite(b)) or np.any(b < 0.0):
        raise NotBistochastic("mixing entries must be finite and nonnegative")
    if np.max(np.abs(b.sum(axis=1) - 1.0)) > BISTOCHASTIC_TOL:
        raise NotBistochastic("row sums differ from 1")
    if np.max(np.abs(b.sum(axis=0) - 1.0)) > BISTOCHASTIC_TOL:
        raise NotBistochastic("column sums differ from 1")
    s = _status_values(statuses, n)
    non_poor = np.flatnonzero(s == 0)
    if non_poor.size and np.max(np.abs(b[non_poor, non_poor] - 1.0)) > BISTOCHASTIC_TOL:
        i = int(non_poor[int(np.argmax(np.abs(b[non_poor, non_poor] - 1.0)))]) + 1
        raise NonPoorRowNotIdentity(f"row {i} mixes a non-poor person")
    return AchievementMatrix(b @ y)


def _comparable(u: NDArray[np.float64], v: NDArray[np.float64]) -> bool:
    return bool(np.all(u >= v) or np.all(v >= u))


def apply_rearrangement(
    achievements, i: int, i_prime: int, swap_dims, statuses: PovertyStatusVector
) -> tuple[AchievementMatrix, bool]:
    """Exchange a subset of dimensions between two poor persons.

    Returns the new matrix and whether the rearrangement is association
    decreasing: the two rows were comparable under vector dominance
    before the swap and are not after it.  Indices are 1-based.
    """
    y = _achievement_values(achievements)
    n, d = y.shape
    i = _index(i, IndexOutOfRange, "person index")
    ip = _index(i_prime, IndexOutOfRange, "person index")
    if not (1 <= i <= n and 1 <= ip <= n) or i == ip:
        raise IndexOutOfRange(f"need two distinct persons in 1..{n}, got {i}, {ip}")
    s = _status_values(statuses, n)
    for person in (i, ip):
        if s[person - 1] != 1:
            raise PersonNotPoor(f"person {person} is not poor")
    try:
        dims = sorted({check_dimension_index(j, d) for j in swap_dims})
    except TypeError:
        raise IndexOutOfRange("swap_dims must be an iterable of indices") from None

    new = y.copy()
    for j in dims:
        new[i - 1, j - 1], new[ip - 1, j - 1] = y[ip - 1, j - 1], y[i - 1, j - 1]
    before = _comparable(y[i - 1], y[ip - 1])
    after = _comparable(new[i - 1], new[ip - 1])
    # a swap of cells of y, which was checked
    return _adopted(AchievementMatrix, values=new), bool(before and not after)


# --- randomized instances -----------------------------------------------------


def _random_structure(
    rng: np.random.Generator, d: int, symmetric: bool
) -> DependenceStructure:
    m = rng.uniform(0.0, 1.0, (d, d))
    m[rng.random((d, d)) < 0.35] = 0.0
    if symmetric:
        m = np.triu(m, 1)
        m = m + m.T
    np.fill_diagonal(m, 1.0)
    # entries in [0, 1] with a unit diagonal: what the constructor would store
    return _adopted(DependenceStructure, entries=m)


def _random_weights(rng: np.random.Generator, d: int, uniform: bool) -> WeightVector:
    if uniform:
        return _adopted(WeightVector, values=np.ones(d))
    # every draw is valid: max weight <= 1.8d / (1.8 + 0.2(d - 1)) < d for d >= 2
    u = rng.uniform(0.2, 1.8, d)
    return _adopted(WeightVector, values=u * (d / math.fsum(u)))


def _random_population(
    rng: np.random.Generator, n: int, z: NDArray[np.float64]
) -> NDArray[np.float64]:
    # spans both sides of the cutoff with similar frequency
    return rng.uniform(0.0, 2.0 * z, (n, z.shape[0]))


def _draw_materials(
    rng: np.random.Generator,
    pinned: MethodologyConfig | None,
    alpha: float,
    settings: GeneratorSettings,
    *,
    min_poor: int = 0,
    min_non_poor: int = 0,
    restricted: bool = False,
    min_n: int = 1,
    need_non_deprived: bool = False,
    need_material_gap: bool = False,
) -> tuple[MethodologyConfig, NDArray[np.float64], PovertyStatusVector]:
    """A methodology, a population and its statuses that meet a trial's preconditions."""
    n_lo, n_hi = settings.n_range
    n_lo = max(n_lo, min_n, min_poor + min_non_poor)
    if n_lo > n_hi:
        raise InvalidGeneratorSettings(
            f"n_range {settings.n_range} cannot host {n_lo} persons"
        )
    for _ in range(_MAX_ATTEMPTS):
        n = int(rng.integers(n_lo, n_hi + 1))
        if pinned is not None:
            cfg = pinned
            y = _random_population(rng, n, cfg.cutoffs.values)
            statuses = _statuses(cfg, y)
        else:
            d = int(rng.integers(settings.d_range[0], settings.d_range[1] + 1))
            if restricted:
                # family where the coefficient identity holds exactly
                if rng.random() < 0.5:
                    structure = _random_structure(rng, d, symmetric=True)
                    weights = _random_weights(rng, d, uniform=False)
                else:
                    structure = _random_structure(rng, d, symmetric=False)
                    weights = _random_weights(rng, d, uniform=True)
            else:
                structure = _random_structure(rng, d, symmetric=rng.random() < 0.25)
                weights = _random_weights(rng, d, uniform=rng.random() < 0.25)
            z = rng.uniform(0.5, 10.0, d)
            y = _random_population(rng, n, z)
            coef = _coefficient_values(structure, weights.values)
            ceiling = _ceiling(structure, weights.values)
            counts = _counts(y, z, coef)
            k = _choose_k(rng, counts, ceiling, min_poor, min_non_poor)
            if k is None:
                continue
            # every part is already valid and _choose_k keeps 0 < k <= ceiling
            cfg = _adopted(
                MethodologyConfig, alpha=alpha, k=k, structure=structure,
                weights=weights, cutoffs=_adopted(CutoffVector, values=z),
                score_ceiling=ceiling, coefficients=coef,
            )
            statuses = _identify(counts, cfg.k)
        poor = statuses.poor_count
        if poor < min_poor or (n - poor) < min_non_poor:
            continue
        if need_non_deprived and not np.any(y > cfg.cutoffs.values):
            continue
        if need_material_gap and _material_cells(y, cfg, statuses).shape[0] == 0:
            continue
        return cfg, y, statuses
    raise InvalidGeneratorSettings(
        "could not draw an instance satisfying the axiom's preconditions"
    )


def _choose_k(
    rng: np.random.Generator,
    counts: NDArray[np.float64],
    ceiling: float,
    min_poor: int,
    min_non_poor: int,
) -> float | None:
    hi = ceiling
    if min_poor > 0:
        ranked = np.sort(counts)[::-1]
        hi = min(float(ranked[min_poor - 1]), ceiling)
        if hi <= 0.0:
            return None
    if min_non_poor > 0:
        lo = float(np.sort(counts)[min_non_poor - 1])
        if lo >= hi:
            return None
        return lo + rng.uniform(0.05, 0.95) * (hi - lo)
    if min_poor > 0:
        return rng.uniform(0.25, 1.0) * hi
    return rng.uniform(0.05, 0.999) * ceiling


def _material_cells(
    y: NDArray[np.float64], cfg: MethodologyConfig, statuses: PovertyStatusVector
) -> NDArray[np.int64]:
    """(person, dim) 0-based cells of poor persons with relative gap >= 0.05."""
    z = cfg.cutoffs.values
    rel = (z - y) / z
    mask = (y < z) & (rel >= 0.05) & (statuses.statuses[:, None] == 1)
    return np.argwhere(mask)


def _pick(rng: np.random.Generator, items: NDArray) -> NDArray:
    return items[int(rng.integers(0, items.shape[0]))]


def _change(cfg: MethodologyConfig, before, after) -> float:
    """Aggregate value after a transformation minus the value before it."""
    return _value(after, cfg) - _value(before, cfg)


# --- per-axiom trials ----------------------------------------------------------


def _trial_decomposability(rng, pinned, alpha, settings) -> float:
    cfg, y, _ = _draw_materials(rng, pinned, alpha, settings, min_n=2)
    n = y.shape[0]
    labels = rng.integers(0, 2, n)
    labels[0], labels[-1] = 0, 1  # both groups nonempty
    result = decompose_by_group(y, labels.tolist(), cfg)
    return result.recombination_error - TOL


def _trial_replication(rng, pinned, alpha, settings) -> float:
    cfg, y, _ = _draw_materials(rng, pinned, alpha, settings)
    m = int(rng.integers(2, 5))
    return abs(_change(cfg, y, np.tile(y, (m, 1)))) - TOL


def _trial_symmetry(rng, pinned, alpha, settings) -> float:
    cfg, y, _ = _draw_materials(rng, pinned, alpha, settings)
    perm = rng.permutation(y.shape[0])
    return abs(_change(cfg, y, y[perm]))


def _focus_defect(rng, cfg, y, i: int, j: int, label: str) -> float:
    """Raise cell (i, j) (0-based), which must carry ``label``: no change allowed."""
    amount = rng.uniform(0.01, 1.0) * cfg.cutoffs.values[j]
    after, labels = apply_simple_increment(y, i + 1, j + 1, amount, cfg)
    assert label in labels
    return abs(_change(cfg, y, after))


def _trial_poverty_focus(rng, pinned, alpha, settings) -> float:
    cfg, y, statuses = _draw_materials(rng, pinned, alpha, settings, min_non_poor=1)
    i = int(_pick(rng, np.flatnonzero(statuses.statuses == 0)))
    j = int(rng.integers(0, cfg.d))
    return _focus_defect(rng, cfg, y, i, j, AMONG_NON_POOR)


def _trial_deprivation_focus(rng, pinned, alpha, settings) -> float:
    cfg, y, _ = _draw_materials(rng, pinned, alpha, settings, need_non_deprived=True)
    cells = np.argwhere(y > cfg.cutoffs.values)
    i, j = (int(v) for v in _pick(rng, cells))
    return _focus_defect(rng, cfg, y, i, j, AMONG_NON_DEPRIVED)


def _trial_weak_monotonicity(rng, pinned, alpha, settings) -> float:
    cfg, y, _ = _draw_materials(rng, pinned, alpha, settings)
    i = int(rng.integers(0, y.shape[0]))
    j = int(rng.integers(0, cfg.d))
    amount = rng.uniform(0.01, 2.0) * cfg.cutoffs.values[j]
    after, _ = apply_simple_increment(y, i + 1, j + 1, amount, cfg)
    return _change(cfg, y, after)


def _trial_monotonicity(rng, pinned, alpha, settings, label=DEPRIVED_AMONG_POOR) -> float:
    """Strict decrease; a dimensional increment always clears the cutoff."""
    cfg, y, statuses = _draw_materials(
        rng, pinned, alpha, settings, min_poor=1, need_material_gap=True
    )
    i, j = (int(v) for v in _pick(rng, _material_cells(y, cfg, statuses)))
    z_j = cfg.cutoffs.values[j]
    room = z_j - y[i, j]
    if label == DEPRIVED_AMONG_POOR and rng.random() < 0.5:
        amount = rng.uniform(0.1, 0.9) * room  # stays deprived
    else:
        amount = room + rng.uniform(0.05, 0.5) * z_j  # clears the cutoff
    after, labels = apply_simple_increment(y, i + 1, j + 1, amount, cfg)
    assert label in labels
    return _change(cfg, y, after) + TOL


def _boundary_values(rng, pinned, alpha, settings) -> tuple[float, float]:
    cfg, y, _ = _draw_materials(rng, pinned, alpha, settings, restricted=True)
    n = y.shape[0]
    z = cfg.cutoffs.values
    v0 = _value(np.zeros_like(y), cfg)
    vz = _value(np.tile(z, (n, 1)), cfg)
    return v0, vz


def _trial_nontriviality(rng, pinned, alpha, settings) -> float:
    v0, vz = _boundary_values(rng, pinned, alpha, settings)
    return TOL - abs(v0 - vz)


def _trial_normalization(rng, pinned, alpha, settings) -> float:
    v0, vz = _boundary_values(rng, pinned, alpha, settings)
    return max(abs(v0 - 1.0) - TOL, abs(vz))


def _trial_weak_transfer(rng, pinned, alpha, settings) -> float:
    cfg, y, statuses = _draw_materials(rng, pinned, alpha, settings, min_poor=2)
    n = y.shape[0]
    poor = np.flatnonzero(statuses.statuses == 1)
    mixing = np.zeros((n, n))
    keep = np.flatnonzero(statuses.statuses == 0)
    mixing[keep, keep] = 1.0
    lams = rng.random(int(rng.integers(2, 5))) + 0.1
    lams = lams / np.sum(lams)
    for lam in lams:
        perm = rng.permutation(poor.shape[0])
        mixing[poor, poor[perm]] += lam
    after = apply_bistochastic_average(y, mixing, statuses)
    return _change(cfg, y, after) - TOL


def _trial_weak_rearrangement(rng, pinned, alpha, settings) -> float:
    for _ in range(_MAX_ATTEMPTS):
        cfg, y, statuses = _draw_materials(rng, pinned, alpha, settings, min_poor=1, min_n=2)
        i = int(_pick(rng, np.flatnonzero(statuses.statuses == 1)))
        if int(np.sum(y[i] > 0.0)) >= 2:
            break
    else:
        raise InvalidGeneratorSettings("no poor person with two positive achievements")
    others = np.delete(np.arange(y.shape[0]), i)
    i2 = int(_pick(rng, others))

    # forge a strictly dominated companion; domination keeps them poor
    forged = np.array(y, copy=True)
    forged[i2] = y[i] * rng.uniform(0.2, 0.95, cfg.d)
    before = _value(forged, cfg)  # checks ``forged`` before the statuses read it
    statuses = _statuses(cfg, forged)
    assert statuses.statuses[i] == 1 and statuses.statuses[i2] == 1

    # split the strictly ordered dimensions across the swap boundary
    positive = np.flatnonzero(y[i] > 0.0)
    inside, outside = (int(v) for v in rng.permutation(positive)[:2])
    swap = {inside + 1}
    for j in range(cfg.d):
        if j not in (inside, outside) and rng.random() < 0.5:
            swap.add(j + 1)
    after, association_decreasing = apply_rearrangement(
        forged, i + 1, i2 + 1, swap, statuses
    )
    assert association_decreasing

    # both must remain poor for the axiom's terms to just rearrange
    value = _value(after, cfg)
    statuses_after = _statuses(cfg, after.values)
    assert statuses_after.statuses[i] == 1 and statuses_after.statuses[i2] == 1
    return (value - before) - TOL


#: trial seeds are [seed, axiom index, trial], so this order fixes every report
_TRIALS = {
    "decomposability": _trial_decomposability,
    "replication_invariance": _trial_replication,
    "symmetry": _trial_symmetry,
    "poverty_focus": _trial_poverty_focus,
    "deprivation_focus": _trial_deprivation_focus,
    "weak_monotonicity": _trial_weak_monotonicity,
    "monotonicity": _trial_monotonicity,
    "dimensional_monotonicity": partial(_trial_monotonicity, label=DIMENSIONAL_AMONG_POOR),
    "nontriviality": _trial_nontriviality,
    "normalization": _trial_normalization,
    "weak_transfer": _trial_weak_transfer,
    "weak_rearrangement": _trial_weak_rearrangement,
}

AXIOMS: tuple[str, ...] = tuple(_TRIALS)


def axiom_covered(axiom: str, alpha: float) -> bool:
    """Whether the axiom is expected to hold at this gap exponent."""
    alpha = _check_alpha(alpha)
    if not isinstance(axiom, str) or axiom not in _TRIALS:
        raise ValidationError(f"axiom must be one of {', '.join(AXIOMS)}")
    return {"monotonicity": alpha > 0.0, "weak_transfer": alpha >= 1.0}.get(axiom, True)


def run_axiom_suite(
    config: MethodologyConfig | float, settings: GeneratorSettings | None = None
) -> list[AxiomReport]:
    """Run every axiom's randomized check and report one row per axiom.

    ``config`` is either a full methodology (checked as given, with
    random populations) or a bare gap exponent (methodology randomized
    per trial within the settings' size ranges).
    """
    if settings is None:
        settings = GeneratorSettings()
    if isinstance(config, MethodologyConfig):
        pinned: MethodologyConfig | None = config
        alpha = config.alpha
    else:
        pinned = None
        alpha = _check_alpha(config)

    counts = [settings.trials if axiom_covered(axiom, alpha) else 0 for axiom in _TRIALS]
    fold = partial(_fold, pinned, alpha, settings, counts)
    shares = _fork_count(sum(counts), _FORK_TRIALS)
    folds = None
    if shares > 1:

        def packed(share: int) -> bytes:  # two doubles an axiom
            return array("d", fold(share, shares)).tobytes()

        parts = [map(packed, [share]) for share in range(shares)]
        try:
            folds = array("d", b"".join(_forked(parts)))
        except Exception:  # every worker is reaped; the serial loop alone names errors
            pass
    if folds is None:
        folds = fold(0, 1)

    reports: list[AxiomReport] = []
    width = 2 * len(counts)
    for idx, (axiom, trials) in enumerate(zip(_TRIALS, counts)):
        violations = int(sum(folds[2 * idx :: width]))
        reports.append(
            AxiomReport(
                axiom=axiom,
                alpha=alpha,
                trials=trials,
                violations=violations,
                worst_violation=max(folds[2 * idx + 1 :: width]) if trials else None,
                seed=settings.seed,
                status="not_covered" if not trials else "fail" if violations else "pass",
            )
        )
    return reports


def _fold(pinned, alpha, settings, counts, share: int, shares: int) -> list[float]:
    """Each axiom's violations and worst defect over one share of the suite's trials, flat.

    The trials are numbered in order, by axiom index, then trial; the
    share is those at positions ``share``, ``share + shares``, and so on.
    """
    folds: list[float] = []
    start = share  # the share's first trial of the axiom
    for idx, (trial, trials) in enumerate(zip(_TRIALS.values(), counts)):
        violations, worst = 0, -math.inf
        for t in range(start, trials, shares):
            rng = np.random.default_rng([settings.seed, idx, t])
            defect = trial(rng, pinned, alpha, settings)
            worst = max(worst, defect)
            violations += 1 if defect > 0.0 else 0
        folds += (violations, worst)
        start = (start - trials) % shares
    return folds

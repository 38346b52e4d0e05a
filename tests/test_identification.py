from fractions import Fraction
from itertools import product

import numpy as np
import oracles
import pytest

from netpoverty import (
    DependenceStructure,
    DeprivationCounts,
    MethodologyConfig,
    PovertyStatusVector,
    attainable_scores,
    deprivation_counts,
    headcount_ratio,
    identify,
    weighted_upper_bound,
)
from netpoverty.deprivation import _counts
from netpoverty.errors import CutoffOutOfRange, ShapeMismatch
from netpoverty.identification import _identify


class TestIdentify:
    # the band below k is at most k / 2, so a count of 0 stays short of a tiny k
    @pytest.mark.parametrize("k", [1.0, 1e-13])
    def test_threshold_splits_poor_from_non_poor(self, k):
        statuses = identify(DeprivationCounts(np.array([2.35, 0.0])), k)
        assert list(statuses.statuses) == [1, 0]

    def test_boundary_count_is_poor(self):
        statuses = identify(DeprivationCounts(np.array([1.1])), 1.1)
        assert list(statuses.statuses) == [1]

    def test_k_at_dimension_count_requires_full_deprivation(self, rng):
        d = 4
        z = np.full(d, 10.0)
        y = rng.uniform(0, 20, (40, d))
        counts = deprivation_counts(y, z, DependenceStructure.identity(d))
        statuses = identify(counts, float(d), upper=float(d))
        fully_deprived = np.all(y < z, axis=1)
        assert np.array_equal(statuses.statuses.astype(bool), fully_deprived)

    @pytest.mark.parametrize("k", [0.0, -1.0])
    def test_non_positive_k_rejected(self, k):
        with pytest.raises(CutoffOutOfRange):
            identify(DeprivationCounts(np.array([1.0])), k)

    def test_k_above_ceiling_rejected(self):
        with pytest.raises(CutoffOutOfRange):
            identify(DeprivationCounts(np.array([1.0])), 3.0, upper=2.5)

    def test_k_at_ceiling_allowed(self):
        statuses = identify(DeprivationCounts(np.array([2.5])), 2.5, upper=2.5)
        assert statuses.poor_count == 1

    def test_monotone_in_k(self, rng):
        counts = DeprivationCounts(rng.uniform(0, 4, 50))
        k_values = np.sort(rng.uniform(0.1, 4, 10))
        previous = None
        for k in k_values:
            poor = set(np.flatnonzero(identify(counts, float(k)).statuses))
            if previous is not None:
                assert poor <= previous
            previous = poor

    def test_statuses_unchanged_by_achievement_gains(self, rng):
        from conftest import random_structure

        d = 3
        m = random_structure(rng, d)
        z = np.full(d, 10.0)
        y = rng.uniform(0, 20, (20, d))
        counts = deprivation_counts(y, z, m)
        statuses = identify(counts, 1.0)
        y2 = y + rng.uniform(0, 5, y.shape)
        counts2 = deprivation_counts(y2, z, m)
        statuses2 = identify(counts2, 1.0)
        # gains can only move people out of poverty
        assert np.all(statuses2.statuses <= statuses.statuses)


def _decimal_methodology(rng, d):
    """Structure, weights and cutoffs as the decimal text an analyst would write.

    The weights are uniform or the structure is symmetric, so the
    ceiling is the count of a person deprived in every dimension.
    """
    entries = [
        ["1" if i == j else f"0.{rng.integers(0, 1000):03d}" if rng.random() < 0.6 else "0"
         for j in range(d)]
        for i in range(d)
    ]
    weights = ["1"] * d
    while rng.random() < 0.5:  # tenths that sum to d exactly, each below d
        tenths = rng.integers(1, 15, d - 1).tolist()
        last = 10 * d - sum(tenths)
        if 1 <= last < 10 * d:
            weights = [str(t / 10) for t in [*tenths, last]]
            entries = [[entries[min(i, j)][max(i, j)] for j in range(d)] for i in range(d)]
            break
    cutoffs = [f"{rng.integers(1, 100)}.{rng.integers(0, 10)}" for _ in range(d)]
    return entries, weights, cutoffs


class TestExactLevels:
    """At every attainable count level, statuses equal the exact classification."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_statuses_equal_rational_classification(self, d):
        rng = np.random.default_rng(d)
        for _ in range(12):
            entries, weights, cutoffs = _decimal_methodology(rng, d)
            # each deprivation pattern's count, in exact arithmetic on the decimal text
            m = [[Fraction(v) for v in row] for row in entries]
            exact = oracles.pattern_counts(m, [Fraction(v) for v in weights])
            patterns = list(product([0, 1], repeat=d))
            structure = DependenceStructure([[float(v) for v in row] for row in entries])
            wv = [float(v) for v in weights]
            z = np.array([float(v) for v in cutoffs])
            # deprived means strictly below the cutoff: 0 is deprived, z itself is not
            y = np.where(np.array(patterns, bool), 0.0, z)
            ceiling = weighted_upper_bound(structure, wv)
            ks = {float(level) for level in exact if level}
            ks |= set(deprivation_counts(y, z, structure, wv).values[1:].tolist())
            if weights == ["1"] * d:  # the jump sums `bounds` prints are the count levels
                ks |= set(attainable_scores(structure)[1:].tolist())
            ks.add(1.0 * ceiling)  # k-fraction 1.0: the intersection approach
            for k in sorted(ks):
                level = min(exact, key=lambda v: abs(v - Fraction(k)))
                assert abs(level - Fraction(k)) <= 1e-12
                want = [int(v >= level) for v in exact]
                got = identify(deprivation_counts(y, z, structure, wv), k, upper=ceiling)
                config = MethodologyConfig(1.0, k, structure, wv, z)
                kernel = _identify(_counts(y, z, config.coefficients), k)
                assert got.statuses.tolist() == want, (entries, weights, k)
                assert kernel.statuses.tolist() == want, (entries, weights, k)


class TestHeadcount:
    def test_half_poor(self):
        assert headcount_ratio(identify(DeprivationCounts(np.array([2.0, 0.0])), 1)) == 0.5

    def test_none_poor(self):
        assert headcount_ratio(identify(DeprivationCounts(np.zeros(4) + 0.1), 1)) == 0.0

    def test_all_poor(self):
        assert headcount_ratio(identify(DeprivationCounts(np.ones(4)), 1)) == 1.0

    @pytest.mark.parametrize(
        "statuses",
        [[], PovertyStatusVector(np.zeros(0, dtype=np.int64), 1.0)],
        ids=["list", "vector"],
    )
    def test_empty_population_rejected(self, statuses):
        with pytest.raises(ShapeMismatch):
            headcount_ratio(statuses)

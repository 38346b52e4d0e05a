import numpy as np
import pytest

from netpoverty import (
    DependenceStructure,
    DeprivationCounts,
    PovertyStatusVector,
    deprivation_counts,
    headcount_ratio,
    identify,
)
from netpoverty.errors import CutoffOutOfRange, ShapeMismatch


class TestIdentify:
    def test_threshold_splits_poor_from_non_poor(self):
        statuses = identify(DeprivationCounts(np.array([2.35, 0.0])), 1.0)
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

import math

import numpy as np
import oracles
import pytest

from netpoverty import (
    DependenceStructure,
    attainable_scores,
    bounds_summary,
    dimension_jumps,
    lower_bound,
    upper_bound,
    validate_dependence_structure,
    weighted_upper_bound,
)
from netpoverty.errors import DimensionTooLargeForEnumeration

ASYM = validate_dependence_structure([[1, 0.5, 0], [0.2, 1, 0.4], [0, 0, 1]])


class TestUpperBound:
    def test_identity_gives_dimension_count(self):
        assert upper_bound(DependenceStructure.identity(3)) == 3.0

    def test_complete_structure_doubles(self):
        assert upper_bound(DependenceStructure.complete(3)) == 6.0

    def test_asymmetric_example(self):
        assert upper_bound(ASYM) == pytest.approx(3.55, abs=1e-12)


class TestLowerBound:
    def test_identity_gives_one(self):
        assert lower_bound(DependenceStructure.identity(3)) == 1.0

    def test_asymmetric_example(self):
        assert lower_bound(ASYM) == pytest.approx(1.1, abs=1e-12)

    def test_complete_structure(self):
        assert lower_bound(DependenceStructure.complete(3)) == 2.0


class TestBruteForceOracle:
    def test_bounds_match_enumeration(self, rng):
        from conftest import random_structure

        for _ in range(30):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d)
            counts = oracles.pattern_counts(m)[1:]  # every pattern but the empty one
            assert max(counts) == pytest.approx(upper_bound(m), abs=1e-12)
            assert min(counts) == pytest.approx(lower_bound(m), abs=1e-12)


class TestDimensionJump:
    def test_identity_jump_is_one(self):
        assert np.array_equal(dimension_jumps(DependenceStructure.identity(3)), np.ones(3))

    def test_column_sum_drives_jump(self):
        m = validate_dependence_structure([[1, 0.5], [0, 1]])
        assert dimension_jumps(m).tolist() == [1.0, 1.5]

    def test_asymmetric_example(self):
        assert dimension_jumps(ASYM)[1] == pytest.approx(1.25, abs=1e-12)

    def test_read_from_the_jump_array_bitwise(self, rng):
        from conftest import random_structure

        for trial in range(40):
            d = int(rng.integers(2, 8))
            if trial % 2:
                m = random_structure(rng, d)
            else:  # grid entries make equal column sums likely
                entries = rng.choice([0.0, 0.1, 0.25, 0.3, 0.5, 1.0], (d, d))
                np.fill_diagonal(entries, 1.0)
                m = DependenceStructure(entries)
            cols = [math.fsum(m.entries[:, j]) for j in range(d)]
            assert lower_bound(m) == 1.0 + (min(cols) - 1.0) / (d - 1)
            assert lower_bound(m) == min(dimension_jumps(m))


class TestWeightedUpperBound:
    def test_uniform_weights_reduce_to_unweighted_exactly(self, rng):
        from conftest import random_structure

        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d)
            assert weighted_upper_bound(m, None) == upper_bound(m)

    def test_weighted_example(self):
        assert weighted_upper_bound(ASYM, [1.5, 1, 0.5]) == pytest.approx(
            3.5, abs=1e-12
        )

    def test_identity_gives_dimension_count_for_any_weights(self, rng):
        from conftest import random_weights

        for d in (2, 4, 6):
            w = random_weights(rng, d)
            assert weighted_upper_bound(
                DependenceStructure.identity(d), w
            ) == pytest.approx(d, abs=1e-12)

    def test_equals_sum_of_weighted_jumps(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d)
            w = random_weights(rng, d)
            direct = math.fsum(w.values * dimension_jumps(m))
            assert weighted_upper_bound(m, w) == pytest.approx(direct, abs=1e-12)


class TestAttainableScores:
    def test_identity_uniform_enumerates_subset_sizes(self):
        scores = attainable_scores(DependenceStructure.identity(3))
        assert np.array_equal(scores, [0, 1, 1, 1, 2, 2, 2, 3])

    def test_two_dimensional_example(self):
        m = validate_dependence_structure([[1, 0.5], [0, 1]])
        assert np.array_equal(attainable_scores(m), [0.0, 1.0, 1.5, 2.5])

    def test_max_is_the_ceiling(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(10):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d)
            w = random_weights(rng, d)
            scores = attainable_scores(m, w)
            assert scores[-1] == pytest.approx(weighted_upper_bound(m, w), abs=1e-12)
            assert scores.shape[0] == 2**d

    def test_uniform_min_nonzero_is_lower_bound(self, rng):
        from conftest import random_structure

        for _ in range(10):
            d = int(rng.integers(2, 6))
            m = random_structure(rng, d)
            scores = attainable_scores(m)
            nonzero = scores[scores > 0]
            assert nonzero[0] == pytest.approx(lower_bound(m), abs=1e-12)

    def test_duplicates_are_kept(self):
        scores = attainable_scores(DependenceStructure.identity(2))
        assert list(scores) == [0.0, 1.0, 1.0, 2.0]

    def test_enumeration_cap(self):
        with pytest.raises(DimensionTooLargeForEnumeration):
            attainable_scores(DependenceStructure.identity(21))


class TestBoundsSummary:
    def test_fields_agree_with_operations(self):
        summary = bounds_summary(ASYM, [1.5, 1, 0.5])
        assert summary.upper == upper_bound(ASYM)
        assert summary.lower_nonzero == lower_bound(ASYM)
        assert summary.weighted_upper == weighted_upper_bound(ASYM, [1.5, 1, 0.5])
        assert np.array_equal(summary.jumps, dimension_jumps(ASYM))
        assert summary.entry_total == pytest.approx(4.1, abs=1e-12)
        assert summary.column_totals == pytest.approx([1.2, 1.5, 1.4], abs=1e-12)

    def test_fields_equal_operations_on_random_inputs(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(40):
            d = int(rng.integers(2, 8))
            m = random_structure(rng, d, symmetric=rng.random() < 0.3)
            for w in (None, random_weights(rng, d)):
                summary = bounds_summary(m, w)
                assert summary.upper == upper_bound(m) == weighted_upper_bound(m)
                assert summary.lower_nonzero == lower_bound(m)
                assert summary.weighted_upper == weighted_upper_bound(m, w)
                assert summary.jumps.tobytes() == dimension_jumps(m).tobytes()
                assert summary.entry_total == math.fsum(summary.column_totals)

    def test_jump_range(self, rng):
        from conftest import random_structure

        for _ in range(10):
            d = int(rng.integers(2, 7))
            summary = bounds_summary(random_structure(rng, d))
            assert np.all(summary.jumps >= 1.0 - 1e-15)
            assert np.all(summary.jumps <= 2.0 + 1e-15)
            assert d <= summary.upper <= 2 * d + 1e-12
            assert 1.0 - 1e-12 <= summary.lower_nonzero <= summary.upper

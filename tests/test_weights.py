import math

import numpy as np
import oracles
import pytest

from netpoverty import (
    DependenceStructure,
    aggregation_coefficient,
    aggregation_coefficients,
    check_symmetric_consistency,
    fgt_via_coefficients,
    gap_matrix,
    implied_weights,
    upper_bound,
    validate_dependence_structure,
    weighted_upper_bound,
)
from netpoverty.errors import NotSymmetric

SYM = validate_dependence_structure([[1, 0.5, 0.5], [0.5, 1, 0], [0.5, 0, 1]])


class TestAggregationCoefficients:
    def test_identity_returns_weights(self):
        w = [1.2, 0.8]
        coef = aggregation_coefficients(DependenceStructure.identity(2), w)
        assert np.array_equal(coef, w)

    def test_column_indexing(self):
        m = validate_dependence_structure([[1, 0.5], [0, 1]])
        assert aggregation_coefficient(m, None, 1) == 1.0
        assert aggregation_coefficient(m, None, 2) == 1.5

    def test_symmetric_example(self):
        assert aggregation_coefficient(SYM, None, 1) == 1.5

    def test_always_positive(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(20):
            d = int(rng.integers(2, 7))
            coef = aggregation_coefficients(
                random_structure(rng, d), random_weights(rng, d)
            )
            assert np.all(coef > 0.0)


class TestCoefficientFormIdentity:
    def test_random_instances_agree(self, rng):
        """The coefficient-form label against the score-form oracle, not against itself."""
        from conftest import random_structure, random_weights

        for _ in range(50):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, 21))
            m = random_structure(rng, d, symmetric=bool(rng.integers(0, 2)))
            w = random_weights(rng, d) if rng.random() < 0.7 else None
            z = rng.uniform(0.5, 10, d)
            y = rng.uniform(0, 2 * z, (n, d))
            alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            k = float(rng.uniform(0.05, 1.0)) * weighted_upper_bound(m, w)
            b = fgt_via_coefficients(y, z, m, w, alpha, k)
            assert b.value == pytest.approx(oracles.fgt(y, z, m, w, alpha, k), abs=1e-12)
            assert b.k == k
            assert b.kind == "network_adjusted_coefficient_form"


class TestImpliedWeights:
    def test_identity_implies_uniform(self):
        result = implied_weights(DependenceStructure.identity(4))
        assert np.array_equal(result.weights.values, np.ones(4))

    def test_symmetric_example_values(self):
        result = implied_weights(SYM)
        assert np.array_equal(result.weights.values, [1.125, 0.9375, 0.9375])
        assert math.fsum(result.weights.values) == 3.0
        assert result.upper == 4.0

    def test_complete_structure_implies_uniform(self):
        result = implied_weights(DependenceStructure.complete(3))
        assert np.array_equal(result.weights.values, np.ones(3))

    def test_asymmetric_rejected_with_location(self):
        with pytest.raises(NotSymmetric) as info:
            implied_weights(validate_dependence_structure([[1, 0.5], [0, 1]]))
        assert "(1, 2)" in str(info.value) or "(2, 1)" in str(info.value)

    def test_same_column_sums_imply_same_weights(self):
        a = validate_dependence_structure(
            [[1, 0.6, 0, 0], [0.6, 1, 0, 0], [0, 0, 1, 0.6], [0, 0, 0.6, 1]]
        )
        b = validate_dependence_structure(
            [[1, 0, 0.6, 0], [0, 1, 0, 0.6], [0.6, 0, 1, 0], [0, 0.6, 0, 1]]
        )
        assert not np.array_equal(a.entries, b.entries)
        assert np.array_equal(
            implied_weights(a).weights.values, implied_weights(b).weights.values
        )

    def test_round_trip_against_coefficient_form(self, rng):
        # reweighting plain gaps by the implied weights over N*d equals
        # rescaling by the uniform-weight coefficients over N*upper
        from conftest import random_structure

        for _ in range(20):
            d = int(rng.integers(2, 6))
            m = random_structure(rng, d, symmetric=True)
            z = rng.uniform(0.5, 10, d)
            n = int(rng.integers(1, 15))
            y = rng.uniform(0, 2 * z, (n, d))
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            gaps = gap_matrix(y, z, alpha).values
            w = implied_weights(m).weights.values
            coef = aggregation_coefficients(m, None)
            lhs = math.fsum(np.sum(gaps * w, axis=1)) / (n * d)
            rhs = math.fsum(np.sum(gaps * coef, axis=1)) / (n * upper_bound(m))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSymmetricConsistency:
    def test_symmetric_structures_always_agree(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(30):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d, symmetric=True)
            report = check_symmetric_consistency(m, random_weights(rng, d))
            assert report.equal
            assert abs(report.coefficient_sum - report.weighted_upper) <= 1e-9

    def test_asymmetric_uniform_weights_still_agree(self):
        m = validate_dependence_structure([[1, 0.8], [0, 1]])
        report = check_symmetric_consistency(m, None)
        assert report.coefficient_sum == pytest.approx(2.8, abs=1e-12)
        assert report.weighted_upper == pytest.approx(2.8, abs=1e-12)
        assert report.equal

    def test_asymmetric_non_uniform_weights_disagree(self):
        m = validate_dependence_structure([[1, 0.8], [0, 1]])
        report = check_symmetric_consistency(m, [1.5, 0.5])
        assert report.coefficient_sum == pytest.approx(3.2, abs=1e-12)
        assert report.weighted_upper == pytest.approx(2.4, abs=1e-12)
        assert not report.equal

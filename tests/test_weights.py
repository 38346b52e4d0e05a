import hashlib
import math
from fractions import Fraction

import numpy as np
import oracles
import pytest
from conftest import random_structure

from netpoverty import (
    DependenceStructure,
    aggregation_coefficients,
    check_symmetric_consistency,
    deprivation_counts,
    fgt_network_adjusted,
    fgt_via_coefficients,
    gap_matrix,
    headcount_ratio,
    identify,
    implied_weights,
    upper_bound,
    validate_dependence_structure,
    weighted_upper_bound,
)

SYM = validate_dependence_structure([[1, 0.5, 0.5], [0.5, 1, 0], [0.5, 0, 1]])


class TestAggregationCoefficients:
    def test_identity_returns_weights(self):
        w = [1.2, 0.8]
        coef = aggregation_coefficients(DependenceStructure.identity(2), w)
        assert np.array_equal(coef, w)

    def test_column_indexing(self):
        m = validate_dependence_structure([[1, 0.5], [0, 1]])
        assert aggregation_coefficients(m, None).tolist() == [1.0, 1.5]

    def test_symmetric_example(self):
        assert aggregation_coefficients(SYM, None)[0] == 1.5

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
        """The coefficient form's old name against the score-form oracle, not against itself."""
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
            assert b.kind == "network_adjusted"


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


def rational_structure(rng, d):
    """An asymmetric d x d structure of Fractions with denominators up to 9, unit diagonal."""
    while True:
        m = []
        for _ in range(d):
            q = rng.integers(1, 10, d)
            m.append([Fraction(int(rng.integers(0, b + 1)), int(b)) for b in q])
        for j in range(d):
            m[j][j] = Fraction(1)
        if any(m[j][jp] != m[jp][j] for j in range(d) for jp in range(j)):
            return m


def asymmetric_structure(rng, d):
    m = random_structure(rng, d)
    while np.array_equal(m.entries, m.entries.T):
        m = random_structure(rng, d)
    return m


def exact_implied_weights(m):
    """d * jump[j] / upper in Fractions, jump[j] from column j, and upper."""
    d = len(m)
    upper = oracles.ceiling(m)
    columns = [sum((m[jp][j] for jp in range(d) if jp != j), Fraction(0)) for j in range(d)]
    return [d * (1 + c / (d - 1)) / upper for c in columns], upper


class TestClassicIdentity:
    """M(m, k) = M_AF(w*, k*), w* = d * jump / upper and k* = d * k / upper, for every structure."""

    def test_exact_on_rational_asymmetric_structures(self, rng):
        for _ in range(60):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, 9))
            m = rational_structure(rng, d)
            w_star, upper = exact_implied_weights(m)
            assert sum(w_star) == d
            package = implied_weights([[float(v) for v in row] for row in m])
            for got, want in zip(package.weights.values, w_star):
                assert abs(Fraction(got) - want) <= 1e-12
            z = [Fraction(int(v)) for v in rng.integers(1, 11, d)]
            # quarters of the cutoff from 0 to 2z: some exactly at it, so not deprived
            y = [[c * Fraction(int(rng.integers(0, 9)), 4) for c in z] for _ in range(n)]
            alpha = int(rng.integers(0, 4))
            k = upper * Fraction(int(rng.integers(1, 21)), 20)
            got = oracles.fgt(y, z, m, None, alpha, k)
            assert got == oracles.classic_adjusted_fgt(y, z, w_star, alpha, d * k / upper)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.0])
    def test_float_kernels_on_asymmetric_structures(self, rng, alpha):
        for _ in range(40):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(1, 30))
            m = asymmetric_structure(rng, d)
            implied = implied_weights(m)
            identity = DependenceStructure.identity(d)
            z = rng.uniform(0.5, 10, d)
            y = rng.uniform(0, 2 * z, (n, d))
            k = float(rng.uniform(0.05, 1.0)) * implied.upper
            k_star = d * k / implied.upper
            ours = fgt_network_adjusted(y, z, m, None, alpha, k)
            classic = fgt_network_adjusted(y, z, identity, implied.weights, alpha, k_star)
            assert abs(ours.value - classic.value) <= 1e-12
            poor = identify(deprivation_counts(y, z, m), k).statuses
            classic_poor = identify(deprivation_counts(y, z, identity, implied.weights), k_star)
            assert np.array_equal(poor, classic_poor.statuses)

    def test_equal_column_sums_give_bit_equal_results(self, rng):
        pairs = [
            (
                [[1, 0.5, 0], [0, 1, 0.25], [0.25, 0, 1]],
                [[1, 0, 0.25], [0.25, 1, 0], [0, 0.5, 1]],
            )
        ]
        while len(pairs) < 20:  # dyadic entries: every sum of them is exact
            d = int(rng.integers(3, 7))
            a = rng.integers(0, 9, (d, d)) / 8
            np.fill_diagonal(a, 1.0)
            b = a.copy()
            for j in range(d):  # shuffle each column's off-diagonal entries
                rows = [i for i in range(d) if i != j]
                b[rows, j] = rng.permutation(a[rows, j])
            if not (np.array_equal(a, b) or np.array_equal(a, a.T) or np.array_equal(b, b.T)):
                pairs.append((a, b))
        for a, b in pairs:
            a, b = validate_dependence_structure(a), validate_dependence_structure(b)
            d = a.d
            assert not np.array_equal(a.entries, b.entries)
            wa, wb = implied_weights(a), implied_weights(b)
            assert wa.weights.values.tobytes() == wb.weights.values.tobytes()
            assert wa.upper == wb.upper
            z = rng.uniform(0.5, 10, d)
            y = rng.uniform(0, 2 * z, (25, d))
            k = 0.4 * wa.upper
            ra = fgt_network_adjusted(y, z, a, None, 1.0, k)
            rb = fgt_network_adjusted(y, z, b, None, 1.0, k)
            assert ra.value == rb.value
            assert ra.censored_matrix_hash == rb.censored_matrix_hash
            ca, cb = deprivation_counts(y, z, a), deprivation_counts(y, z, b)
            assert ca.values.tobytes() == cb.values.tobytes()
            assert headcount_ratio(identify(ca, k)) == headcount_ratio(identify(cb, k))

    #: the implied weights and upper bound of each symmetric structure in these tests and
    #: the command-line tests, as float.hex, and the same bytes as when only a symmetric
    #: structure was accepted
    PINNED = {
        "SYM": (SYM.entries, ["0x1.2p+0", "0x1.ep-1", "0x1.ep-1"], "0x1p+2"),
        "identity": (np.eye(4), ["0x1p+0"] * 4, "0x1p+2"),
        "complete": (np.ones((3, 3)), ["0x1p+0"] * 3, "0x1.8p+2"),
        "pair-a": (
            [[1, 0.6, 0, 0], [0.6, 1, 0, 0], [0, 0, 1, 0.6], [0, 0, 0.6, 1]],
            ["0x1p+0"] * 4,
            "0x1.3333333333333p+2",
        ),
        "pair-b": (
            [[1, 0, 0.6, 0], [0, 1, 0, 0.6], [0.6, 0, 1, 0], [0, 0.6, 0, 1]],
            ["0x1p+0"] * 4,
            "0x1.3333333333333p+2",
        ),
    }
    #: sha256 of the weights' and upper bound's bytes over 40 random symmetric structures
    RANDOM_DIGEST = "6a0666a4e96f54f33d48aa8554fee25a813569d08c0149121fa5238e82092d9c"

    @pytest.mark.parametrize("name", PINNED)
    def test_symmetric_structures_keep_their_bits(self, name):
        entries, weights, upper = self.PINNED[name]
        result = implied_weights(entries)
        assert [float.fromhex(v) for v in weights] == result.weights.values.tolist()
        assert float.fromhex(upper) == result.upper

    def test_random_symmetric_structures_keep_their_bits(self):
        rng = np.random.default_rng(20260810)
        h = hashlib.sha256()
        for _ in range(40):
            d = int(rng.integers(2, 8))
            result = implied_weights(random_structure(rng, d, symmetric=True))
            h.update(result.weights.values.tobytes())
            h.update(np.float64(result.upper).tobytes())
        assert h.hexdigest() == self.RANDOM_DIGEST


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

import hashlib
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import classic_adjusted_fgt, clipped_gaps

from netpoverty import (
    DependenceStructure,
    MethodologyConfig,
    decompose_by_group,
    deprivation_counts,
    deprivation_matrix,
    fgt_naive,
    fgt_network_adjusted,
    fgt_via_coefficients,
    gap_matrix,
    identify,
    upper_bound,
    validate_dependence_structure,
    weighted_upper_bound,
)
from netpoverty import aggregation, deprivation
from netpoverty.aggregation import _coefficient_pass, _fgt
from netpoverty.core import _coefficient_values
from netpoverty.deprivation import _BLOCK_CELLS, _PARALLEL_CELLS
from netpoverty.errors import CutoffOutOfRange, InvalidPartition, ShapeMismatch

WORKED_M = validate_dependence_structure([[1, 0.5], [0, 1]])
WORKED_Y = np.array([[5.0, 10.0], [10.0, 10.0]])
WORKED_Z = [10.0, 10.0]


class TestNetworkAdjusted:
    def test_worked_instance(self):
        result = fgt_network_adjusted(WORKED_Y, WORKED_Z, WORKED_M, None, 1.0, 1.0)
        assert result.value == pytest.approx(0.1, abs=1e-15)
        assert result.denominator == 5.0
        assert result.kind == "network_adjusted"
        assert fgt_via_coefficients is fgt_network_adjusted  # the coefficient form's old name

    def test_everyone_at_cutoff_scores_zero_exactly(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(10):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d)
            w = random_weights(rng, d)
            z = rng.uniform(0.5, 10, d)
            y = np.tile(z, (4, 1))
            result = fgt_network_adjusted(y, z, m, w, float(rng.uniform(0, 2)), 0.5)
            assert result.value == 0.0

    def test_total_deprivation_scores_one(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(10):
            d = int(rng.integers(2, 7))
            if rng.random() < 0.5:
                m = random_structure(rng, d, symmetric=True)
                w = random_weights(rng, d)
            else:
                m = random_structure(rng, d)
                w = None
            z = rng.uniform(0.5, 10, d)
            y = np.zeros((3, d))
            result = fgt_network_adjusted(y, z, m, w, float(rng.uniform(0, 2)), 0.5)
            assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_reduces_to_classic_adjusted_fgt(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(1, 30))
            z = rng.uniform(0.5, 10, d)
            y = rng.uniform(0, 2 * z, (n, d))
            k = float(rng.uniform(0.1, d))
            alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            classic = classic_adjusted_fgt(y, z, None, alpha, k)
            ours = fgt_network_adjusted(y, z, DependenceStructure.identity(d), None, alpha, k)
            assert ours.value == pytest.approx(classic, abs=1e-12)

    def test_value_in_unit_interval_on_consistent_family(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(20):
            d = int(rng.integers(2, 7))
            if rng.random() < 0.5:
                m = random_structure(rng, d, symmetric=True)
                w = random_weights(rng, d)
            else:
                m = random_structure(rng, d)
                w = None
            z = rng.uniform(0.5, 10, d)
            y = rng.uniform(0, 2 * z, (12, d))
            result = fgt_network_adjusted(y, z, m, w, 1.0, 0.8)
            assert 0.0 <= result.value <= 1.0

    def test_symmetry_is_exact(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(10):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d)
            w = random_weights(rng, d)
            z = rng.uniform(0.5, 10, d)
            y = rng.uniform(0, 2 * z, (15, d))
            base = fgt_network_adjusted(y, z, m, w, 1.0, 0.8).value
            perm = rng.permutation(15)
            assert fgt_network_adjusted(y[perm], z, m, w, 1.0, 0.8).value == base

    def test_matches_score_form_oracle(self, rng):
        """Coefficient-form kernel against fsum over the poor rows of the scores."""
        from conftest import random_structure, random_weights

        for _ in range(50):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, 21))
            m = random_structure(rng, d, symmetric=bool(rng.integers(0, 2)))
            w = random_weights(rng, d) if rng.random() < 0.7 else None
            z = rng.uniform(0.5, 10, d)
            y = rng.uniform(0, 2 * z, (n, d))
            alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            ceiling = weighted_upper_bound(m, w)
            k = float(rng.uniform(0.05, 1.0)) * ceiling
            poor = identify(deprivation_counts(y, z, m, w), k).statuses == 1
            scores = deprivation_matrix(y, z, m, alpha, w).values
            want = math.fsum(scores[poor].ravel()) / (n * ceiling)
            assert fgt_network_adjusted(y, z, m, w, alpha, k).value == pytest.approx(
                want, abs=1e-12
            )
            k = float(rng.uniform(0.05, 1.0)) * upper_bound(m)
            poor = identify(deprivation_counts(y, z, m), k).statuses == 1
            scores = deprivation_matrix(y, z, m, alpha).values
            want = math.fsum(scores[poor].ravel()) / (n * d)
            assert fgt_naive(y, z, m, alpha, k).value == pytest.approx(want, abs=1e-12)

    def test_replication_invariance(self, rng):
        from conftest import random_structure

        d = 3
        m = random_structure(rng, d)
        z = np.full(d, 10.0)
        y = rng.uniform(0, 20, (7, d))
        base = fgt_network_adjusted(y, z, m, None, 1.0, 1.0).value
        for copies in (2, 3, 5):
            rep = fgt_network_adjusted(np.tile(y, (copies, 1)), z, m, None, 1.0, 1.0)
            assert rep.value == pytest.approx(base, abs=1e-12)

    def test_k_validated_against_weighted_ceiling(self):
        with pytest.raises(CutoffOutOfRange):
            fgt_network_adjusted(WORKED_Y, WORKED_Z, WORKED_M, None, 1.0, 2.6)

    def test_naive_k_validated_against_uniform_ceiling(self):
        assert upper_bound(WORKED_M) == 2.5
        with pytest.raises(CutoffOutOfRange):
            fgt_naive(WORKED_Y, WORKED_Z, WORKED_M, 1.0, 2.6)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            fgt_network_adjusted(WORKED_Y, [10.0], WORKED_M, None, 1.0, 1.0)

    def test_negative_alpha_rejected(self):
        from netpoverty.errors import InvalidAlpha

        with pytest.raises(InvalidAlpha):
            fgt_network_adjusted(WORKED_Y, WORKED_Z, WORKED_M, None, -1.0, 1.0)
        with pytest.raises(InvalidAlpha):
            fgt_naive(WORKED_Y, WORKED_Z, WORKED_M, -1.0, 1.0)

    def test_hash_tracks_censored_content(self):
        a = fgt_network_adjusted(WORKED_Y, WORKED_Z, WORKED_M, None, 1.0, 1.0)
        b = fgt_network_adjusted(WORKED_Y, WORKED_Z, WORKED_M, None, 1.0, 1.0)
        assert a.censored_matrix_hash == b.censored_matrix_hash
        c = fgt_network_adjusted(WORKED_Y, WORKED_Z, WORKED_M, None, 2.0, 1.0)
        assert c.censored_matrix_hash != a.censored_matrix_hash


class TestNaive:
    def test_equals_adjusted_for_identity_structure(self, rng):
        d = 3
        z = np.full(d, 10.0)
        y = rng.uniform(0, 20, (10, d))
        m = DependenceStructure.identity(d)
        naive = fgt_naive(y, z, m, 1.0, 1.0)
        adjusted = fgt_network_adjusted(y, z, m, None, 1.0, 1.0)
        assert naive.value == adjusted.value

    def test_exceeds_one_under_total_deprivation(self):
        m = DependenceStructure.complete(2)
        result = fgt_naive(np.zeros((4, 2)), [10, 10], m, 0.0, 1.0)
        assert result.value == 2.0

    def test_strictly_increasing_in_added_connection(self):
        z = [10.0, 10.0]
        y = [[5.0, 8.0], [12.0, 15.0]]
        previous = -1.0
        for entry in np.linspace(0, 1, 11):
            m = validate_dependence_structure([[1, entry], [0, 1]])
            value = fgt_naive(y, z, m, 1.0, 1.0).value
            assert value > previous
            previous = value


class TestDecomposition:
    CFG = MethodologyConfig(
        alpha=1.0, k=1.0, structure=WORKED_M, weights=None, cutoffs=WORKED_Z
    )

    def test_single_group_equals_total(self):
        result = decompose_by_group(WORKED_Y, ["all", "all"], self.CFG)
        assert result.group_results["all"].value == result.total.value
        assert result.recombines

    def test_worked_two_group_split(self):
        result = decompose_by_group(WORKED_Y, ["a", "b"], self.CFG)
        assert result.total.value == pytest.approx(0.1, abs=1e-15)
        assert result.group_results["a"].value == pytest.approx(0.2, abs=1e-15)
        assert result.group_results["b"].value == 0.0
        assert result.recombination_error <= 1e-12

    def test_replicated_population_has_equal_groups(self, rng):
        from conftest import random_structure

        d = 3
        m = random_structure(rng, d)
        z = np.full(d, 10.0)
        y = rng.uniform(0, 20, (6, d))
        cfg = MethodologyConfig(alpha=1.0, k=1.0, structure=m, weights=None, cutoffs=z)
        copies = 4
        rep = np.tile(y, (copies, 1))
        labels = np.repeat(np.arange(copies), 6).tolist()
        result = decompose_by_group(rep, labels, cfg)
        for g in range(copies):
            assert result.group_results[g].value == pytest.approx(
                result.total.value, abs=1e-12
            )

    def test_random_partitions_recombine(self, rng):
        from conftest import random_structure

        for _ in range(10):
            d = int(rng.integers(2, 6))
            m = random_structure(rng, d)
            z = rng.uniform(1, 10, d)
            n = int(rng.integers(4, 25))
            y = rng.uniform(0, 2 * z, (n, d))
            cfg = MethodologyConfig(
                alpha=float(rng.uniform(0, 2)),
                k=float(rng.uniform(0.1, 1.0)),
                structure=m,
                weights=None,
                cutoffs=z,
            )
            labels = rng.integers(0, 3, n).tolist()
            assert decompose_by_group(y, labels, cfg).recombines

    def test_bad_partition_rejected(self):
        with pytest.raises(InvalidPartition):
            decompose_by_group(WORKED_Y, ["a"], self.CFG)

    def test_total_equals_public_aggregate(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d, symmetric=bool(rng.integers(0, 2)))
            w = random_weights(rng, d) if rng.random() < 0.5 else None
            z = rng.uniform(1, 10, d)
            n = int(rng.integers(1, 25))
            y = rng.uniform(0, 2 * z, (n, d))
            cfg = MethodologyConfig(
                alpha=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
                k=float(rng.uniform(0.05, 1.0)) * weighted_upper_bound(m, w),
                structure=m,
                weights=w,
                cutoffs=z,
            )
            labels = rng.integers(0, 3, n).tolist()
            public = fgt_network_adjusted(
                y, cfg.cutoffs, cfg.structure, cfg.weights, cfg.alpha, cfg.k
            )
            # random groups, G = N singletons and one group
            for draw in (labels, list(range(n)), ["all"] * n):
                result = decompose_by_group(y, draw, cfg)
                assert result.total == public
                for g, group in result.group_results.items():
                    rows = y[np.array(draw) == g]
                    assert group == fgt_network_adjusted(
                        rows, cfg.cutoffs, cfg.structure, cfg.weights, cfg.alpha, cfg.k
                    )

    @pytest.mark.parametrize(
        "labels, sizes",
        [
            (None, None),
            ([["a"], "b", "b"], None),
            ([{"a": 1}, "b", "b"], None),
            ([math.nan, math.nan, 1.0], [2, 1]),
            ([float("nan"), float("nan"), 1.0], [1, 1, 1]),
        ],
        ids=["none", "list-label", "dict-label", "same-nan", "distinct-nans"],
    )
    def test_label_boundary(self, labels, sizes):
        # labels group as dict keys: unhashable ones are a bad partition,
        # and a NaN label groups with itself only by identity
        y = np.array([[5.0, 10.0], [10.0, 10.0], [2.0, 4.0]])
        if sizes is None:
            with pytest.raises(InvalidPartition):
                decompose_by_group(y, labels, self.CFG)
            return
        result = decompose_by_group(y, labels, self.CFG)
        assert list(result.group_sizes.values()) == sizes
        assert result.recombines

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ShapeMismatch):
            decompose_by_group(np.ones((2, 3)), ["a", "b"], self.CFG)

    def test_equal_labels_of_different_types_share_a_group(self):
        y = np.array([[5.0, 10.0], [10.0, 10.0], [2.0, 4.0], [9.0, 1.0], [3.0, 3.0]])
        labels = [1.0, "b", True, np.int64(1), 1]
        result = decompose_by_group(y, labels, self.CFG)
        # the group keeps its first label, 1.0, and first-appearance order
        assert [(g, type(g)) for g in result.group_results] == [(1.0, float), ("b", str)]
        assert result.group_sizes == {1.0: 4, "b": 1}
        assert all(type(size) is int for size in result.group_sizes.values())
        cfg = self.CFG
        for g, rows in ((1.0, [0, 2, 3, 4]), ("b", [1])):
            assert result.group_results[g] == fgt_network_adjusted(
                y[rows], cfg.cutoffs, cfg.structure, cfg.weights, cfg.alpha, cfg.k
            )

    def test_hashes_are_of_the_censored_row_sums(self):
        # person 1's censored row sums to 0.5 (gap 0.5, coefficient 1), person 2's to 0
        result = decompose_by_group(WORKED_Y, ["a", "b"], self.CFG)
        want = {
            "total": ([0.5, 0.0],
                      "2c473edb951650d05cab389627f26241a585bbc3042e0c7a679000f3f5c04246"),
            "a": ([0.5], "7bfce773950cb54a4bd9b06253c48bc4034e0fff9f9603d38ea42290b2264233"),
            "b": ([0.0], "8fd0f0f504133b876ecee85fd5845607c99e11a448874f4f6a8e9e5217bb39d1"),
        }
        got = {"total": result.total, **result.group_results}
        for name, (row_sums, digest) in want.items():
            assert row_sums_hash(np.array(row_sums), 2) == digest
            assert got[name].censored_matrix_hash == digest
        cfg = self.CFG
        for g, rows in (("a", [0]), ("b", [1])):
            alone = fgt_network_adjusted(
                WORKED_Y[rows], cfg.cutoffs, cfg.structure, cfg.weights, cfg.alpha, cfg.k
            )
            assert alone.censored_matrix_hash == want[g][1]

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([["a"], "b"], "group labels must be hashable values (unhashable type: 'list')"),
            (["a"], "1 labels for 2 persons; need exactly one per person"),
        ],
        ids=["unhashable", "too-few"],
    )
    def test_partition_error_text(self, labels, message):
        with pytest.raises(InvalidPartition) as info:
            decompose_by_group(WORKED_Y, labels, self.CFG)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "labels",
        ["ab", b"ab", {"a": 0, "b": 1}, {"a", "b"}, frozenset({"a", "b"})],
        ids=["str", "bytes", "dict", "set", "frozenset"],
    )
    def test_label_containers_read_as_other_items_are_refused(self, labels):
        # two items for two persons, but characters, byte values, keys or hash-ordered members
        with pytest.raises(InvalidPartition) as info:
            decompose_by_group(WORKED_Y, labels, self.CFG)
        assert str(info.value) == (
            f"group labels must be one label per person, not a {type(labels).__name__}"
        )

    @pytest.mark.parametrize(
        "form",
        [lambda labels: (label for label in labels), tuple, np.array],
        ids=["generator", "tuple", "ndarray"],
    )
    def test_label_forms_give_the_lists_result(self, rng, form):
        y, cfg = block_test_data(rng, 3 * (_BLOCK_CELLS // 5) + 7, 5, weighted=True)
        labels = rng.choice(["north", "south", "east", "west"], y.shape[0]).tolist()
        want = decompose_by_group(y, labels, cfg)
        got = decompose_by_group(y, form(labels), cfg)
        assert got == want
        assert list(got.group_results) == list(want.group_results)


def test_total_is_fsum_over_the_row_sums_bitwise(rng):
    # heavy cancellation: huge terms of both signs around small ones and subnormals
    cfg = TestDecomposition.CFG
    n = 50_000
    big = rng.standard_normal(n // 4) * 10.0 ** rng.integers(-300, 300, n // 4)
    small = rng.standard_normal(n // 4) * 10.0 ** rng.integers(-320, -290, n // 4)
    row_sums = rng.permutation(np.concatenate([big, -big * (1 + 1e-15), small, -small[::-1]]))
    for kind in ("network_adjusted", "naive"):
        result = aggregation._fgt(row_sums, cfg, kind)
        want = math.fsum(row_sums) / result.denominator
        assert result.value.hex() == want.hex()
        assert result.censored_matrix_hash == row_sums_hash(row_sums, cfg.d)


def assert_fsum_bits(values):
    values = np.array(values, dtype=float)
    assert aggregation._exact_total(values).hex() == math.fsum(values.tolist()).hex()


#: 0, subnormals, both sides of 1 and of 1e300, the smallest normal and its neighbour
_PINNED = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0),
           2.2250738585072014e-308, np.nextafter(1.0, 0), 1.0, np.nextafter(1.0, 2),
           -np.nextafter(1.0, 2), 1e300, np.nextafter(1e300, np.inf), -1e300,
           -np.nextafter(1e300, 0), 3.5, -7.25e-200]


class TestExactTotal:
    """The bucket sum gives math.fsum's bits on every length and every exponent."""

    LENGTHS = [1, 2, 1023, 1024, 1025, aggregation._TOTAL_SLICE - 1, aggregation._TOTAL_SLICE,
               aggregation._TOTAL_SLICE + 1, 3 * aggregation._TOTAL_SLICE + 17]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_pinned_values_at_every_length(self, rng, n):
        assert_fsum_bits(rng.choice(_PINNED, n))
        # cancellation: each value with its negation, and what is left is one subnormal
        values = rng.choice(_PINNED, n // 2)
        assert_fsum_bits(rng.permutation(np.concatenate([values, -values, [5e-324] * (n % 2)])))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("n", [1, 1023, 1024, 2 * aggregation._TOTAL_SLICE + 1])
    def test_zeros_of_either_sign(self, n, zero):
        assert_fsum_bits([zero] * n)
        assert_fsum_bits([zero] * (n - 1) + [-zero])

    def test_one_value_per_exponent(self, rng):
        # every biased exponent 0..2046, largest first with alternating signs, so no
        # partial sum of fsum's overflows
        exponents = np.arange(2046, -1, -1, dtype=np.uint64)
        mantissas = rng.integers(0, 1 << 52, exponents.shape[0], dtype=np.uint64)
        signs = (np.arange(exponents.shape[0], dtype=np.uint64) % 2) << np.uint64(63)
        values = (signs | exponents << np.uint64(52) | mantissas).view(np.float64)
        assert_fsum_bits(values)
        assert_fsum_bits(values[2:])  # below 2**1022, so any order
        assert_fsum_bits(rng.permutation(values[2:]))

    @pytest.mark.parametrize("n", [1024, 1025, 1026, 1027, 3000])
    def test_slices_of_three(self, monkeypatch, rng, n):
        # many slices, the last one full, one short or two short
        monkeypatch.setattr(aggregation, "_TOTAL_SLICE", 3)
        assert_fsum_bits(rng.choice(_PINNED, n))
        assert_fsum_bits(rng.random(n) * 10.0 ** rng.integers(-320, 300, n))

    def test_largest_bucket_differs_between_slices(self, rng):
        # each slice's bucket sums end at its own largest bucket: 0 for subnormals, 2048 or
        # more for a negative value, 2046 and 4094 for the largest finite of either sign
        n = aggregation._TOTAL_SLICE
        largest = 1.7976931348623157e308
        slices = {
            "subnormal": rng.integers(1, 1 << 52, n, dtype=np.uint64).view(np.float64),
            "small": rng.random(n),
            "negative": -rng.random(n) * 10.0 ** rng.integers(-300, -100, n),
            "negative-subnormal": -rng.integers(1, 1 << 20, n, dtype=np.uint64).view(np.float64),
            "largest": np.concatenate([[-largest, largest], rng.random(n - 2)]),
            "large": rng.random(n) * 1e300,
        }
        assert slices["subnormal"].max() < 2.2250738585072014e-308
        orders = [
            list(slices),  # later slices with larger buckets than the first
            list(slices)[::-1],
            ["negative", "subnormal", "largest", "small"],
            ["negative-subnormal", "negative", "large"],
        ]
        for order in orders:
            values = np.concatenate([slices[name] for name in order])
            assert_fsum_bits(values)
            assert_fsum_bits(values[: n + 7])  # a short last slice
        for name, one in slices.items():
            assert_fsum_bits(one)
            assert_fsum_bits(np.concatenate([one, -one[:17]]))

    def test_no_intermediate_overflow_unlike_fsum(self):
        # the documented difference: fsum overflows on its way, the exact sum is 1e308
        values = np.array([1e308, 1e308, -1e308] + [0.0] * 1021)
        with pytest.raises(OverflowError):
            math.fsum(values.tolist())
        assert aggregation._exact_total(values) == 1e308
        # a total past the largest float raises, as fsum does
        with pytest.raises(OverflowError):
            aggregation._exact_total(np.array([1e308, 1e308] + [0.0] * 1022))

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
        st.sampled_from(LENGTHS),
        st.integers(0, 2**32 - 1),
    )
    def test_fsum_bits_on_finite_floats(self, pool, n, seed):
        # lists of either sign, drawn n times over; 1e300 * n stays finite
        assert_fsum_bits(np.random.default_rng(seed).choice(pool, n))

    @settings(deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
        st.integers(1024, 1100),
        st.integers(0, 2**32 - 1),
    )
    def test_fsum_bits_on_any_finite_floats(self, values, n, seed):
        # any magnitude, spread among zeros of either sign up to a length past fsum's route
        rng = np.random.default_rng(seed)
        values = rng.permutation(values + rng.choice([0.0, -0.0], n - len(values)).tolist())
        try:
            want = math.fsum(values.tolist())
        except OverflowError:  # fsum's intermediate overflow, or a total past the range
            return
        assert aggregation._exact_total(values).hex() == want.hex()


# the gap routine's products and sqrt at the half-integer alphas the row-block tests take
# (as in test_deprivation.py's TestGapValues); every other alpha is numpy's power
_PRODUCT_POWERS = {1.5: lambda b: b * np.sqrt(b), 3.0: lambda b: b * b * b}


def whole_array_pass(y, config, kind):
    """The coefficient pass over the whole N x d array at once: the row blocks' bit oracle.

    (value, denominator, hash, counts, statuses, weighted gaps, row sums),
    each step taken over every cell before the next; the row sums are of
    the cells censored one by one, and the hash is of the row sums.
    """
    n, d = y.shape
    z, k = config.cutoffs.values, config.k
    naive = kind == "naive"
    coef = _coefficient_values(config.structure, np.ones(d)) if naive else config.coefficients
    counts = np.sum(np.where(y < z, coef, 0.0), axis=1)
    statuses = (counts >= k - 1e-12 * max(1.0, k)).astype(np.int64)
    power = _PRODUCT_POWERS.get(config.alpha)
    gaps = clipped_gaps(y, z, config.alpha) if power is None else power(clipped_gaps(y, z, 1.0))
    weighted = gaps * coef
    denominator = n * d if naive else n * config.score_ceiling
    row_sums = np.sum(weighted * statuses[:, None], axis=1)
    value = math.fsum(row_sums) / denominator
    return value, denominator, row_sums_hash(row_sums, d), counts, statuses, weighted, row_sums


def row_sums_hash(row_sums, d):
    """``censored_matrix_hash`` as documented: SHA-256 of "{n}x{d}:" and the row sums' bytes."""
    return hashlib.sha256(f"{row_sums.shape[0]}x{d}:".encode() + row_sums.tobytes()).hexdigest()


def block_test_data(rng, n, d, weighted):
    """n x d achievements around their cutoffs, some exactly at them, and a config."""
    from conftest import random_structure, random_weights

    m = random_structure(rng, d)
    w = random_weights(rng, d) if weighted else None
    z = rng.uniform(0.5, 10, d)
    y = rng.uniform(0, 2, (n, d)) * z
    at = rng.random((n, d)) < 0.05
    y[at] = np.broadcast_to(z, (n, d))[at]
    cfg = MethodologyConfig(1.0, 0.4 * weighted_upper_bound(m, w), m, w, z)
    return y, cfg


def force_cpus(monkeypatch, cpus):
    """Make the pass see ``cpus`` usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def wrap_pass_body(patch, wrap):
    """Make the aggregate pass run ``wrap(body)`` on its row blocks, not its own ``body``."""
    real = deprivation._row_blocks
    patch.setattr(deprivation, "_row_blocks", lambda n, width, body: real(n, width, wrap(body)))


def spy_blocks(monkeypatch, fail_on=None):
    """Record (thread, first row) of every block the pass runs, once its body has returned.

    With ``fail_on`` ("caller" or "worker"), the first block that side runs
    is recorded and raises, and until then the other side's blocks wait.
    """
    seen = []
    caller = threading.current_thread()
    failed, lock = threading.Event(), threading.Lock()

    def spy(body):
        def run(rows, block):
            # the thread object, not its id: a finished thread's id can be reused
            thread = threading.current_thread()
            if fail_on is not None:
                if (thread is caller) == (fail_on == "caller"):
                    with lock:
                        first = not failed.is_set()
                        failed.set()
                    if first:
                        seen.append((thread, rows.start))
                        raise RuntimeError(f"block at row {rows.start}")
                else:
                    assert failed.wait(10)
            body(rows, block)
            seen.append((thread, rows.start))

        return run

    wrap_pass_body(monkeypatch, spy)
    return seen


def spy_threads(monkeypatch):
    """Every thread started."""
    started = []
    real = threading.Thread.start

    def start(thread):
        started.append(thread)
        real(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def assert_schedule(seen, started, n, step, workers):
    """The claimed-block schedule of one pass: ``workers`` threads besides the caller."""
    blocks = list(range(0, n, step))
    assert sorted(start for _, start in seen) == blocks  # every block ran exactly once
    assert len(started) == workers
    ran = {thread for thread, _ in seen}
    assert ran <= {threading.current_thread(), *started}
    assert len(ran) <= min(workers + 1, len(blocks))


def gap_blocks(pass_, *args):
    """``pass_(*args)``'s result and its weighted gaps, rebuilt from its blocks.

    Each block is copied as soon as the real body has returned, on whichever
    thread ran it; together the blocks must cover every row exactly once.
    """
    blocks = []

    def spy(body):
        def run(rows, block):
            body(rows, block)
            blocks.append((rows, block.copy()))

        return run

    with pytest.MonkeyPatch.context() as patch:
        wrap_pass_body(patch, spy)
        result = pass_(*args)
    blocks.sort(key=lambda ran: ran[0].start)
    starts = [rows.start for rows, _ in blocks]
    stops = [rows.stop for rows, _ in blocks]
    assert starts == [0, *stops[:-1]] and stops[-1] == result[1].shape[0]
    assert all(block.shape[0] == rows.stop - rows.start for rows, block in blocks)
    return result, np.concatenate([block for _, block in blocks])


def assert_whole_array_bits(y, config, kind):
    (got, counts, statuses, row_sums), weighted = gap_blocks(
        _coefficient_pass, y, config, kind
    )
    value, denominator, digest, want_counts, want_statuses, want_weighted, want_row_sums = (
        whole_array_pass(y, config, kind)
    )
    result = _fgt(row_sums, config, kind)
    assert (got, result.value, result.denominator) == (value, value, denominator)
    assert result.censored_matrix_hash == digest == row_sums_hash(row_sums, y.shape[1])
    assert counts.tobytes() == want_counts.tobytes()
    assert statuses.statuses.tobytes() == want_statuses.tobytes()
    assert weighted.tobytes() == want_weighted.tobytes()
    assert row_sums.tobytes() == want_row_sums.tobytes()


def assert_group_bits(y, labels, cfg):
    """decompose_by_group's totals, sizes, values and hashes against the whole-array pass."""
    result = decompose_by_group(y, labels.tolist(), cfg)
    _, _, digest, _, _, _, all_row_sums = whole_array_pass(y, cfg, "network_adjusted")
    assert result.total.censored_matrix_hash == digest
    assert list(result.group_results) == list(dict.fromkeys(labels.tolist()))
    for g, got in result.group_results.items():
        row_sums = all_row_sums[labels == g]
        size = row_sums.shape[0]
        assert result.group_sizes[g] == size
        assert got.denominator == size * cfg.score_ceiling
        assert got.value == math.fsum(row_sums) / got.denominator
        assert got.censored_matrix_hash == row_sums_hash(row_sums, cfg.d)


class TestGroupSortTypes:
    """decompose_by_group on both sides of the group counts where the sorted codes' type widens.

    Each group's size, value and hash is checked against a route with no sort.
    """

    @pytest.fixture
    def sorted_types(self, monkeypatch):
        """The dtype of every stable argsort's input, as a list."""
        argsort, seen = np.argsort, []

        def spy(a, *args, **kwargs):
            if kwargs.get("kind") == "stable":
                seen.append(np.asarray(a).dtype)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        return seen

    @pytest.mark.parametrize("groups, dtype", [(255, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_hundreds_of_groups(self, rng, sorted_types, groups, dtype):
        y, cfg = block_test_data(rng, 3 * groups, 3, weighted=True)
        labels = rng.permutation(np.repeat(np.arange(groups), 3))
        assert_group_bits(y, labels, cfg)
        assert sorted_types == [dtype]

    @pytest.mark.parametrize("groups, dtype", [(65_536, np.uint16), (65_537, np.uint32)])
    def test_tens_of_thousands_of_groups(self, rng, sorted_types, groups, dtype):
        # every group starts with one person of the first block, in random order; half of
        # them get a second person later, so the sort moves each to its group's first
        first = rng.permutation(groups)
        later = rng.choice(groups, groups // 2, replace=False)
        labels = np.concatenate([first, later])
        y, cfg = block_test_data(rng, labels.shape[0], 2, weighted=False)
        result = decompose_by_group(y, labels.tolist(), cfg)
        assert sorted_types == [dtype]
        all_row_sums = whole_array_pass(y, cfg, "network_adjusted")[6]
        rows = {g: [i] for i, g in enumerate(first.tolist())}
        for i, g in enumerate(later.tolist(), start=groups):
            rows[g].append(i)
        assert list(result.group_results) == first.tolist()
        for g, got in result.group_results.items():
            row_sums = all_row_sums[rows[g]]
            assert result.group_sizes[g] == len(rows[g])
            assert got.value == math.fsum(row_sums) / (len(rows[g]) * cfg.score_ceiling)
            assert got.censored_matrix_hash == row_sums_hash(row_sums, cfg.d)


class TestRowBlocks:
    """The row-blocked pass gives the whole-array pass's bits at every block edge."""

    @pytest.mark.parametrize("kind", ["network_adjusted", "naive"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
    @pytest.mark.parametrize(
        "edge",
        ["1", "rows-1", "rows", "rows+1", "3rows+7", "2tiles-1", "2tiles", "2tiles+1",
         "rows+tile+1", "4rows+tile+1/1cpu", "4rows+tile+1/2cpus"],
    )
    @pytest.mark.parametrize("d", [2, 5, 20, 7, 100])
    def test_bitwise_equal_to_whole_array_pass(self, monkeypatch, rng, d, edge, weighted, kind):
        # the pass tiles its cutoffs and coefficients from two tiles of rows on; at d = 5,
        # 7 and 100 a full block is two tiles and a row, and past "rows" the last block
        # is short: a tile and a row, or under a tile
        rows, tile = _BLOCK_CELLS // d, (_BLOCK_CELLS // 2) // d
        n = {"1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
             "3rows+7": 3 * rows + 7, "2tiles-1": 2 * tile - 1, "2tiles": 2 * tile,
             "2tiles+1": 2 * tile + 1, "rows+tile+1": rows + tile + 1}.get(edge)
        if n is None:  # past the parallel threshold, on a forced CPU count
            n = 4 * rows + tile + 1
            assert n * d >= _PARALLEL_CELLS
            force_cpus(monkeypatch, 1 if edge.endswith("/1cpu") else 2)
        y, cfg = block_test_data(rng, n, d, weighted)
        y[::13, d // 2] = -0.0  # deprived: -0.0 < z, with the gap 1
        # the squaring path at 1.5 and 3, numpy's power at 0.5, 1.7, 2 and 40
        for alpha in (0.0, 0.5, 1.0, 1.5, 1.7, 2.0, 3.0, 40.0):
            config = MethodologyConfig(alpha, cfg.k, cfg.structure, cfg.weights, cfg.cutoffs)
            assert_whole_array_bits(y, config, kind)

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("d", [2, 5])
    def test_threads_from_the_parallel_threshold(self, monkeypatch, rng, d, offset):
        # the fewest rows that reach the threshold, and one row either side
        n = -(-_PARALLEL_CELLS // d) + offset
        assert (n * d >= _PARALLEL_CELLS) == (offset >= 0)
        force_cpus(monkeypatch, 2)
        seen = spy_blocks(monkeypatch)
        y, cfg = block_test_data(rng, n, d, weighted=True)
        started = spy_threads(monkeypatch)
        assert_whole_array_bits(y, cfg, "network_adjusted")
        assert_schedule(seen, started, n, _BLOCK_CELLS // d, 0 if offset < 0 else 1)

    @pytest.mark.parametrize("kind", ["network_adjusted", "naive"])
    @pytest.mark.parametrize(
        "cpus, blocks, tail",
        [(3, 6, 0), (3, 7, 7), (4, 7, 0), (4, 9, 7)],
        ids=["ranges-even-last-block-full", "ranges-uneven-last-block-short",
             "ranges-uneven-last-block-full", "ranges-uneven-9-blocks-short"],
    )
    @pytest.mark.parametrize("d", [2, 5, 20])
    def test_ranges_on_and_off_block_edges(self, monkeypatch, rng, d, cpus, blocks, tail, kind):
        # ``tail`` rows past the last full block make the final range end off a block edge
        step = _BLOCK_CELLS // d
        n = (blocks - (tail > 0)) * step + tail
        assert n * d >= _PARALLEL_CELLS
        force_cpus(monkeypatch, cpus)
        seen = spy_blocks(monkeypatch)
        y, cfg = block_test_data(rng, n, d, weighted=kind == "network_adjusted")
        started = spy_threads(monkeypatch)
        for alpha in (0.0, 0.5, 1.0, 2.0):
            config = MethodologyConfig(alpha, cfg.k, cfg.structure, cfg.weights, cfg.cutoffs)
            seen.clear()
            started.clear()
            assert_whole_array_bits(y, config, kind)
            assert_schedule(seen, started, n, step, cpus - 1)

    def test_one_cpu_gives_the_threaded_bits(self, monkeypatch, rng):
        d = 5
        n = 9 * (_BLOCK_CELLS // d) + 3
        y, cfg = block_test_data(rng, n, d, weighted=True)
        force_cpus(monkeypatch, 3)
        threaded = _coefficient_pass(y, cfg)
        force_cpus(monkeypatch, 1)
        seen = spy_blocks(monkeypatch)
        serial = _coefficient_pass(y, cfg)
        assert {thread for thread, _ in seen} == {threading.current_thread()}
        assert serial[0] == threaded[0]
        assert serial[1].tobytes() == threaded[1].tobytes()
        assert serial[2].statuses.tobytes() == threaded[2].statuses.tobytes()
        assert serial[3].tobytes() == threaded[3].tobytes()

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch, rng):
        # a block claimed twice, or one thread's buffer shared with another, change the bits
        d = 20
        n = 23 * (_BLOCK_CELLS // d) + 5
        y, cfg = block_test_data(rng, n, d, weighted=True)
        force_cpus(monkeypatch, 2 * (os.cpu_count() or 1) + 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for kind in ("network_adjusted", "naive"):
                assert_whole_array_bits(y, cfg, kind)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_a_failing_block_raises_on_the_caller(self, monkeypatch, rng, where):
        d = 5
        step = _BLOCK_CELLS // d
        n = 9 * step
        y, cfg = block_test_data(rng, n, d, weighted=True)
        baseline = threading.active_count()
        force_cpus(monkeypatch, 3)
        seen = spy_blocks(monkeypatch, fail_on=where)
        started = spy_threads(monkeypatch)
        with pytest.raises(RuntimeError, match=r"^block at row \d+$") as raised:
            _coefficient_pass(y, cfg)
        fail_at = int(str(raised.value).rsplit(" ", 1)[1])
        assert fail_at % step == 0 and fail_at < n
        (thread,) = [thread for thread, start in seen if start == fail_at]
        assert (thread is threading.current_thread()) == (where == "caller")
        assert len(started) == 2
        assert threading.active_count() == baseline

    def test_groups_straddling_block_edges(self, rng):
        d = 5
        rows = _BLOCK_CELLS // d
        n = 3 * rows + 7
        y, cfg = block_test_data(rng, n, d, weighted=True)
        # runs that cross each block edge, and one group spread over every block
        labels = np.searchsorted([rows - 3, rows + 5, 2 * rows + 1, 3 * rows], np.arange(n))
        labels[::97] = 9
        assert_group_bits(y, labels, cfg)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_cells_and_groups_on_1_to_3_cpus(self, monkeypatch, rng, cpus):
        # 7 blocks past the parallel threshold, the last one short, and group runs
        # that cross every block edge
        d = 5
        step = _BLOCK_CELLS // d
        n = 6 * step + 11
        assert n * d >= _PARALLEL_CELLS
        force_cpus(monkeypatch, cpus)
        y, cfg = block_test_data(rng, n, d, weighted=True)
        labels = np.searchsorted([step - 3, 3 * step + 5, 5 * step], np.arange(n))
        labels[::89] = 7
        for kind in ("network_adjusted", "naive"):
            assert_whole_array_bits(y, cfg, kind)
        assert_group_bits(y, labels, cfg)

    def test_extreme_ratio_above_the_cutoff_does_not_overflow(self):
        # (z - y) / z overflows for y = 1e300, z = 1e-10; that cell is not deprived, and
        # the other's coefficient 1.5 over the ceiling 2.5 is the whole value
        result = fgt_network_adjusted([[1e300, 0.0]], [1e-10, 1.0], WORKED_M, None, 1.0, 1.0)
        assert result.value == 0.6


class TestAlphaShortcuts:
    """At alpha = 0 a row sum is the count of the poor, at alpha = 1 a gap is its base,
    across real block edges on one and two CPUs."""

    D, STEP = 5, 12

    @pytest.fixture
    def small_blocks(self, monkeypatch, request):
        # blocks of 12 rows, and threads from 24 rows on
        monkeypatch.setattr(deprivation, "_BLOCK_CELLS", self.D * self.STEP)
        monkeypatch.setattr(deprivation, "_PARALLEL_CELLS", 2 * self.D * self.STEP)
        force_cpus(monkeypatch, request.param)
        return spy_threads(monkeypatch), request.param

    @pytest.mark.parametrize("small_blocks", [1, 2], indirect=True, ids=["1cpu", "2cpus"])
    @pytest.mark.parametrize("kind", ["network_adjusted", "naive"])
    @pytest.mark.parametrize("n", [11, 12, 13, 7 * 12 + 5])
    def test_alpha_0_row_sums_are_counts_of_the_poor(self, rng, small_blocks, kind, n):
        started, cpus = small_blocks
        y, cfg = block_test_data(rng, n, self.D, weighted=kind == "network_adjusted")
        config = MethodologyConfig(0.0, cfg.k, cfg.structure, cfg.weights, cfg.cutoffs)
        _, counts, statuses, row_sums = _coefficient_pass(y, config, kind)
        assert row_sums.tobytes() == (counts * statuses.statuses).tobytes()
        assert 0 < statuses.statuses.sum() < n  # both sides of the cutoff
        assert_whole_array_bits(y, config, kind)
        assert len(started) == (2 * (cpus - 1) if n >= 2 * self.STEP else 0)

    @pytest.mark.parametrize("small_blocks", [1, 2], indirect=True, ids=["1cpu", "2cpus"])
    @pytest.mark.parametrize("n", [11, 12, 13, 7 * 12 + 5])
    def test_alpha_1_gaps_are_the_clipped_bases(self, rng, small_blocks, n):
        started, cpus = small_blocks
        y, cfg = block_test_data(rng, n, self.D, weighted=True)
        y[::3, 1] = np.nextafter(cfg.cutoffs.values[1], 0)
        gaps = gap_matrix(y, cfg.cutoffs, 1.0).values
        assert gaps.tobytes() == clipped_gaps(y, cfg.cutoffs.values, 1.0).tobytes()
        assert len(started) == (cpus - 1 if n >= 2 * self.STEP else 0)


@st.composite
def edge_inputs(draw):
    """Up to 40 x 6 cells at 0, -0.0, 5e-324, just below, at and twice their cutoffs
    of 1e-300, 1 or 1e300, or anywhere up to twice them, with a config on them."""
    from conftest import random_structure, random_weights

    d, n = draw(st.integers(2, 6)), draw(st.integers(1, 40))
    cells = st.lists(st.integers(0, 6), min_size=n * d, max_size=n * d)
    z = np.array(draw(st.lists(st.sampled_from([1e-300, 1.0, 1e300]), min_size=d, max_size=d)))
    uniform = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=n * d, max_size=n * d)))
    choices = [0.0, -0.0, 5e-324, np.nextafter(z, 0), z, 2 * z, uniform.reshape(n, d) * z]
    y = np.choose(np.array(draw(cells)).reshape(n, d), np.broadcast_arrays(*choices))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_structure(rng, d)
    w = random_weights(rng, d) if draw(st.booleans()) else None
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]))
    k = draw(st.floats(0.01, 1.0)) * weighted_upper_bound(m, w)
    return y, MethodologyConfig(alpha, k, m, w, z)


@settings(deadline=None)
@given(edge_inputs())
def test_edge_cells_keep_the_per_cell_bits(inputs):
    # the gaps take no deprivation mask, and the pass censors whole rows, not cells
    y, cfg = inputs
    for kind in ("network_adjusted", "naive"):
        assert_whole_array_bits(y, cfg, kind)
    want = clipped_gaps(y, cfg.cutoffs.values, cfg.alpha)
    assert gap_matrix(y, cfg.cutoffs, cfg.alpha).values.tobytes() == want.tobytes()


def traced_peak(call):
    """The traced peak of one call, after a first untraced call."""
    call()
    tracemalloc.start()
    try:
        kept = call()
        return tracemalloc.get_traced_memory()[1], kept
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """No aggregate allocates an N x d array, and the scores are kept without a copy."""

    N, D = 50_000, 20

    @pytest.fixture
    def data(self, monkeypatch, rng):
        force_cpus(monkeypatch, 2)
        y, cfg = block_test_data(rng, self.N, self.D, weighted=True)
        labels = rng.integers(0, 8, self.N).tolist()
        return y, cfg, labels

    @pytest.mark.parametrize("call", ["network-adjusted", "naive", "groups"])
    def test_aggregates_stay_below_half_the_matrix(self, data, call):
        y, cfg, labels = data
        run = {
            "network-adjusted": lambda: fgt_network_adjusted(
                y, cfg.cutoffs, cfg.structure, cfg.weights, cfg.alpha, cfg.k
            ),
            "naive": lambda: fgt_naive(y, cfg.cutoffs, cfg.structure, cfg.alpha, cfg.k),
            "groups": lambda: decompose_by_group(y, labels, cfg),
        }[call]
        peak, _ = traced_peak(run)
        assert peak < self.N * self.D * 8 / 2

    def test_groups_peak_at_most_12_bytes_a_person_above_the_total(self, data):
        y, cfg, labels = data
        total, _ = traced_peak(
            lambda: fgt_network_adjusted(
                y, cfg.cutoffs, cfg.structure, cfg.weights, cfg.alpha, cfg.k
            )
        )
        groups, _ = traced_peak(lambda: decompose_by_group(y, labels, cfg))
        assert groups - total <= 12 * self.N

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_a_pass_holds_one_block_buffer_per_thread(self, monkeypatch, cpus):
        # 31 blocks of a 50,000 x 20 pass, so every thread runs several
        force_cpus(monkeypatch, cpus)
        buffers = {}

        def body(rows, block):
            address = block.__array_interface__["data"][0]
            buffers.setdefault(threading.current_thread(), set()).add(address)

        def run():
            buffers.clear()
            deprivation._row_blocks(self.N, self.D, body)

        peak, _ = traced_peak(run)
        # every thread takes its buffer as it starts, whether or not it wins a block
        assert len(buffers) <= cpus
        assert all(len(addresses) == 1 for addresses in buffers.values())
        assert peak < cpus * _BLOCK_CELLS * 8 + 64 * 1024

    def test_scores_peak_near_what_they_keep(self, data):
        y, cfg, _ = data
        peak, scores = traced_peak(
            lambda: deprivation_matrix(y, cfg.cutoffs, cfg.structure, cfg.alpha, cfg.weights)
        )
        assert scores.values.nbytes == self.N * self.D * 8
        assert peak <= 1.25 * scores.values.nbytes

    def test_gaps_peak_near_what_they_keep(self, data):
        y, cfg, _ = data
        peak, gaps = traced_peak(lambda: gap_matrix(y, cfg.cutoffs, cfg.alpha))
        assert gaps.values.nbytes == self.N * self.D * 8
        assert peak <= 1.25 * gaps.values.nbytes

    def test_exact_total_peaks_below_two_bytes_a_person(self, data, rng):
        _, cfg, _ = data
        n = 400_000
        row_sums = rng.random(n)
        peak, result = traced_peak(lambda: _fgt(row_sums, cfg, "network_adjusted"))
        assert result.value == math.fsum(row_sums.tolist()) / (n * cfg.score_ceiling)
        assert peak < n * 2

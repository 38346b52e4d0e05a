from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from netpoverty import (
    AchievementMatrix,
    CutoffVector,
    DependenceStructure,
    MethodologyConfig,
    WeightVector,
    aggregation_coefficients,
    connections_of,
    identify,
    is_disconnected,
    run_axiom_suite,
    validate_dependence_structure,
    validate_weights,
)
from netpoverty.core import _adopted
from netpoverty.deprivation import DeprivationMatrix
from netpoverty.errors import (
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

ASYM = [[1, 0.5, 0], [0.2, 1, 0.4], [0, 0, 1]]


class TestDependenceStructure:
    def test_identity_is_valid_and_symmetric(self):
        m = validate_dependence_structure(np.eye(3))
        assert m.d == 3
        assert m.symmetric

    def test_asymmetric_example_is_valid(self):
        m = validate_dependence_structure(ASYM)
        assert not m.symmetric

    def test_entry_above_one_rejected(self):
        with pytest.raises(EntryOutOfRange):
            validate_dependence_structure([[1, 1.2], [0, 1]])

    def test_negative_entry_rejected(self):
        with pytest.raises(EntryOutOfRange):
            validate_dependence_structure([[1, -0.1], [0, 1]])

    def test_diagonal_must_be_one(self):
        with pytest.raises(DiagonalNotOne):
            validate_dependence_structure([[0.9, 0], [0, 1]])

    def test_not_square_rejected(self):
        with pytest.raises(NotSquare):
            validate_dependence_structure([[1, 0, 0], [0, 1, 0]])

    def test_single_dimension_rejected(self):
        with pytest.raises(NotSquare):
            validate_dependence_structure([[1.0]])

    def test_entries_read_only(self):
        m = validate_dependence_structure(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 1] = 0.5

    def test_revalidation_is_idempotent(self, rng):
        from conftest import random_structure

        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d, symmetric=bool(rng.integers(0, 2)))
            again = validate_dependence_structure(np.array(m.entries))
            assert np.array_equal(again.entries, m.entries)
            assert again.symmetric == m.symmetric


class TestConnections:
    def test_identity_connections_are_singletons(self):
        m = DependenceStructure.identity(3)
        assert connections_of(m, 1) == {1}

    def test_positive_row_entries_are_connections(self):
        m = validate_dependence_structure(ASYM)
        assert connections_of(m, 1) == {1, 2}
        assert connections_of(m, 2) == {1, 2, 3}
        assert connections_of(m, 3) == {3}

    def test_own_dimension_always_connected(self, rng):
        from conftest import random_structure

        for _ in range(10):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d)
            for j in range(1, d + 1):
                assert j in connections_of(m, j)

    def test_index_out_of_range(self):
        m = DependenceStructure.identity(3)
        with pytest.raises(IndexOutOfRange):
            connections_of(m, 0)
        with pytest.raises(IndexOutOfRange):
            connections_of(m, 4)

    def test_disconnected_iff_identity(self):
        assert is_disconnected(DependenceStructure.identity(4))
        assert not is_disconnected(DependenceStructure.complete(4))
        assert not is_disconnected(validate_dependence_structure([[1, 0], [0.3, 1]]))


class TestWeights:
    def test_uniform_weights_valid(self):
        w = validate_weights([1, 1, 1], 3)
        assert np.array_equal(w.values, np.ones(3))

    def test_non_uniform_weights_valid(self):
        w = validate_weights([1.5, 1, 0.5], 3)
        assert w.values[0] == 1.5

    def test_sum_not_d_rejected(self):
        with pytest.raises(SumNotD):
            validate_weights([2, 2], 2)

    def test_non_positive_weight_rejected(self):
        with pytest.raises(NonPositiveWeight):
            validate_weights([0, 2], 2)
        with pytest.raises(NonPositiveWeight):
            validate_weights([-1, 3], 2)

    def test_weight_at_d_rejected(self):
        with pytest.raises(WeightTooLarge):
            validate_weights([2.0, 1e-12], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_weights([1, 1, 1], 2)

    def test_uniform_constructor(self):
        assert np.array_equal(WeightVector.uniform(4).values, np.ones(4))

    def test_none_is_uniform_only_when_coerced(self):
        from netpoverty.core import as_weight_vector

        with pytest.raises(ShapeMismatch):
            validate_weights(None, 3)
        assert np.array_equal(as_weight_vector(None, 3).values, np.ones(3))

    def test_weight_vector_length_checked(self):
        from netpoverty.core import as_weight_vector

        w = WeightVector.uniform(3)
        assert validate_weights(w, 3) is w and as_weight_vector(w, 3) is w
        with pytest.raises(ShapeMismatch):
            as_weight_vector(w, 2)


class TestOtherTypes:
    def test_achievements_reject_negative(self):
        with pytest.raises(NegativeAchievement) as info:
            AchievementMatrix(np.array([[1.0, 2.0], [3.0, -0.5]]))
        assert info.value.row == 2
        assert info.value.column == 2

    def test_cutoffs_must_be_positive(self):
        with pytest.raises(NonPositiveCutoff):
            CutoffVector(np.array([10.0, 0.0]))


class TestMethodologyConfig:
    def test_valid_config(self):
        cfg = MethodologyConfig(
            alpha=1.0, k=1.0, structure=np.eye(2), weights=None, cutoffs=[10, 10]
        )
        assert cfg.d == 2
        assert cfg.score_ceiling == 2.0

    def test_k_boundary_is_allowed(self):
        cfg = MethodologyConfig(
            alpha=0.0, k=2.0, structure=np.eye(2), weights=None, cutoffs=[10, 10]
        )
        assert cfg.k == 2.0

    @pytest.mark.parametrize("k", [0.0, -1.0, 2.5])
    def test_k_out_of_range_rejected(self, k):
        with pytest.raises(CutoffOutOfRange):
            MethodologyConfig(
                alpha=1.0, k=k, structure=np.eye(2), weights=None, cutoffs=[10, 10]
            )

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidAlpha):
            MethodologyConfig(
                alpha=-0.5, k=1.0, structure=np.eye(2), weights=None, cutoffs=[10, 10]
            )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            MethodologyConfig(
                alpha=1.0, k=1.0, structure=np.eye(3), weights=None, cutoffs=[10, 10]
            )

    def test_coefficients_read_only(self):
        cfg = MethodologyConfig(
            alpha=1.0, k=1.0, structure=ASYM, weights=None, cutoffs=[10, 10, 10]
        )
        with pytest.raises(ValueError):
            cfg.coefficients[0] = 0.0
        with pytest.raises(FrozenInstanceError):
            cfg.coefficients = np.ones(3)

    def test_coefficients_equal_public_route_bitwise(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(40):
            d = int(rng.integers(2, 8))
            m = random_structure(rng, d, symmetric=bool(rng.integers(0, 2)))
            for w in (None, random_weights(rng, d)):
                cfg = MethodologyConfig(
                    alpha=1.0, k=1.0, structure=m, weights=w, cutoffs=np.ones(d)
                )
                expected = aggregation_coefficients(m, w)
                assert cfg.coefficients.tobytes() == expected.tobytes()


class TestAdopted:
    def test_every_array_field_frozen_in_place(self):
        structure = DependenceStructure(ASYM)
        weights = WeightVector([0.5, 1.5, 1.0])
        z, coef = np.array([10.0, 5.0, 2.0]), np.array([1.0, 2.0, 0.5])
        cutoffs = _adopted(CutoffVector, values=z)
        cfg = _adopted(
            MethodologyConfig, alpha=1.0, k=1.0, structure=structure, weights=weights,
            cutoffs=cutoffs, score_ceiling=3.0, coefficients=coef,
        )
        assert cfg.coefficients is coef and cfg.cutoffs.values is z
        assert cfg.structure is structure and cfg.weights is weights
        assert not coef.flags.writeable and not z.flags.writeable
        assert (cfg.alpha, cfg.k, cfg.score_ceiling) == (1.0, 1.0, 3.0)

    def test_values_only_callers_unchanged(self):
        scores = np.ones((2, 3))
        matrix = _adopted(DeprivationMatrix, alpha=1.0, weighted=False, values=scores)
        assert matrix.values is scores and not scores.flags.writeable
        assert (matrix.alpha, matrix.weighted) == (1.0, False)


def _config(**kwargs):
    fields = dict(alpha=1.0, k=1.0, structure=np.eye(2), weights=None, cutoffs=[10, 10])
    return MethodologyConfig(**dict(fields, **kwargs))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: _config(alpha="x"), InvalidAlpha),
        (lambda: _config(alpha=None), InvalidAlpha),
        (lambda: _config(alpha=10**400), InvalidAlpha),
        (lambda: _config(k="x"), CutoffOutOfRange),
        (lambda: run_axiom_suite("x"), InvalidAlpha),
        (lambda: identify([1.0], "x"), CutoffOutOfRange),
    ],
    ids=[
        "config-alpha-str",
        "config-alpha-none",
        "config-alpha-huge-int",
        "config-k-str",
        "suite-alpha-str",
        "identify-k-str",
    ],
)
def test_non_numeric_alpha_and_k_rejected(call, error):
    with pytest.raises(error, match="must be a real number, got ") as info:
        call()
    assert "\n" not in str(info.value)

"""Aggregation coefficients and weights implied by a dependence structure.

Rearranging the aggregate sum shows each dimension's plain gaps enter
with an effective coefficient

    coef[j] = w[j] + (1 / (d - 1)) * sum over j' != j of m[j', j] * w[j']

(column-indexed: what j exerts on the others comes back through the
neighbor averages).  The aggregate equals the coefficient-weighted gap
sum over the same denominator, which is the route used to prove the
transfer property and the route every aggregate and count in this
package is evaluated by, since it needs N * d work instead of N * d * d.
A :class:`~netpoverty.core.MethodologyConfig` derives its coefficients
and ceiling once, on construction; every evaluation reads them from it.
:func:`netpoverty.deprivation.deprivation_matrix` and
:func:`netpoverty.dataio.recompute_fgt_value` are public score-form
features, and the tests hold every evaluation to the score-form oracle
in ``tests/oracles.py`` within 1e-12.

At uniform weights each coefficient is the dimension's jump, for every
structure, so the measure with no explicit weights is a classic
weighted one (Alkire and Foster's adjusted FGT): with the implied
weights w* = d * jump / upper, which sum to d, and the cutoff
k* = d * k / upper, every count is d / upper times the classic weighted
count and M(m, k) = M_AF(w*, k*).  Structures with equal column sums
imply the same weights, so the identification is not unique.  When the
structure is symmetric, the coefficients also sum to the weighted count
ceiling for every weight choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bounds import dimension_jumps, upper_bound, weighted_upper_bound
from .core import (
    DependenceStructure,
    WeightVector,
    _coefficient_values,
    as_dependence_structure,
    as_weight_vector,
)

#: band for the symmetric-structure coefficient identity
CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class ImpliedWeights:
    """Weights induced by a dependence structure."""

    weights: WeightVector
    source: DependenceStructure
    upper: float


@dataclass(frozen=True)
class SymmetricConsistencyReport:
    """Coefficient sum versus weighted ceiling, and whether they agree."""

    coefficient_sum: float
    weighted_upper: float
    equal: bool


def aggregation_coefficients(
    structure: DependenceStructure, weights: WeightVector | None = None
) -> NDArray[np.float64]:
    """Effective per-dimension coefficients on plain gaps, as an array."""
    structure = as_dependence_structure(structure)
    return _coefficient_values(structure, as_weight_vector(weights, structure.d).values)


def implied_weights(structure: DependenceStructure) -> ImpliedWeights:
    """Weights a structure implies: d * jump[j] / upper bound, which sum to d.

    With them, and k scaled by d / upper, the classic weighted measure
    equals this one at uniform weights, for every structure (see the
    module docstring).
    """
    structure = as_dependence_structure(structure)
    d = structure.d
    upper = upper_bound(structure)
    w = d * dimension_jumps(structure) / upper
    return ImpliedWeights(
        weights=WeightVector(w), source=structure, upper=upper
    )


def check_symmetric_consistency(
    structure: DependenceStructure, weights: WeightVector | None = None
) -> SymmetricConsistencyReport:
    """Compare the coefficient sum with the weighted ceiling.

    Symmetric structures must agree for every weight choice; asymmetric
    ones generally do not once weights are non-uniform.  Disagreement
    means the aggregate does not hit 1 on the fully deprived population,
    so this is the diagnostic to run before trusting the unit endpoint.
    """
    structure = as_dependence_structure(structure)
    w = as_weight_vector(weights, structure.d)
    coef_sum = math.fsum(aggregation_coefficients(structure, w))
    ceiling = weighted_upper_bound(structure, w)
    return SymmetricConsistencyReport(
        coefficient_sum=coef_sum,
        weighted_upper=ceiling,
        equal=abs(coef_sum - ceiling) <= CONSISTENCY_TOL,
    )

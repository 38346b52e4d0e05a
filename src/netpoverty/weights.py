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

When the structure is symmetric, the coefficients sum to the weighted
count ceiling for every weight choice, so a symmetric structure with no
explicit weights behaves exactly like a classic weighted measure.  The
weights it implies are d * jump[j] / ceiling, which sum to d by
construction.  Asymmetric structures admit no such reading; deriving
implied weights from one is rejected rather than silently symmetrized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .aggregation import FgtResult, _coefficient_pass
from .bounds import dimension_jumps, upper_bound, weighted_upper_bound
from .core import (
    SYMMETRY_TOL,
    DependenceStructure,
    MethodologyConfig,
    WeightVector,
    _coefficient_values,
    as_dependence_structure,
    as_weight_vector,
    check_dimension_index,
)
from .errors import NotSymmetric

#: band for the symmetric-structure coefficient identity
CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class ImpliedWeights:
    """Weights induced by a symmetric dependence structure."""

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


def aggregation_coefficient(
    structure: DependenceStructure, weights: WeightVector | None, j: int
) -> float:
    """Coefficient of dimension j (1-based); positive for all valid inputs."""
    structure = as_dependence_structure(structure)
    j = check_dimension_index(j, structure.d)
    return float(aggregation_coefficients(structure, weights)[j - 1])


def fgt_via_coefficients(
    achievements,
    cutoffs,
    structure: DependenceStructure,
    weights: WeightVector | None,
    alpha: float,
    k: float,
) -> FgtResult:
    """:func:`netpoverty.aggregation.fgt_network_adjusted`'s evaluation under another label.

    The same pass, labelled ``network_adjusted_coefficient_form``; it is
    not a separate route.  Kept because the benchmark calls it by name.
    """
    config = MethodologyConfig(alpha, k, structure, weights, cutoffs)
    return _coefficient_pass(achievements, config, "network_adjusted_coefficient_form")[0]


def implied_weights(structure: DependenceStructure) -> ImpliedWeights:
    """Weights a symmetric structure implies: d * jump[j] / upper bound.

    The sum is d by construction.  Asymmetric input is rejected; the
    coefficient identity behind this reading fails there, and silently
    symmetrizing would hide a modeling error.
    """
    structure = as_dependence_structure(structure)
    if not structure.symmetric:
        m = structure.entries
        mismatch = np.abs(m - m.T) > SYMMETRY_TOL
        j, jp = (int(v) for v in np.argwhere(mismatch)[0])
        raise NotSymmetric(
            f"structure is asymmetric at ({j + 1}, {jp + 1}): "
            f"{m[j, jp]} vs {m[jp, j]}"
        )
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

"""Weights implied by a dependence structure.

Instead of ranking dimensions directly, one can specify pairwise
connections and let the structure induce the weights.  At uniform
weights each dimension's coefficient is its jump, so the measure is the
classic weighted adjusted FGT with weights d * jump / upper and the
cutoff scaled by d / upper, for a symmetric structure or not.  The demo
derives the implied weights of both kinds, checks that equality on a
small population, and shows the weights are not unique: different
structures with the same column totals imply the same weights.  It also
shows where symmetry still matters: the coefficient sum equals the
weighted ceiling for every weight choice only then.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import numpy as np

import netpoverty as npv


def main() -> None:
    structure = npv.validate_dependence_structure(
        [[1.0, 0.5, 0.5], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]]
    )
    print("symmetric structure:")
    print(structure.entries)

    coef = npv.aggregation_coefficients(structure, None)
    print("\naggregation coefficients (uniform weights):", coef)
    report = npv.check_symmetric_consistency(structure, None)
    print(
        "coefficient sum vs weighted ceiling:",
        report.coefficient_sum,
        "vs",
        report.weighted_upper,
        "->",
        "consistent" if report.equal else "inconsistent",
    )

    implied = npv.implied_weights(structure)
    print("\nimplied weights:", implied.weights.values, "sum:", implied.weights.values.sum())
    print("dimension 1 carries more weight: it is connected to both others")

    asym = npv.validate_dependence_structure([[1.0, 0.8], [0.0, 1.0]])
    implied = npv.implied_weights(asym)
    print("\nasymmetric structure:", asym.entries.tolist())
    print("implied weights:", implied.weights.values, "sum:", implied.weights.values.sum())
    cutoffs = [10.0, 10.0]
    people = [[4.0, 12.0], [6.0, 3.0], [11.0, 9.0]]
    k = 1.5
    ours = npv.fgt_network_adjusted(people, cutoffs, asym, None, 1.0, k)
    classic = npv.fgt_network_adjusted(
        people,
        cutoffs,
        npv.DependenceStructure.identity(2),
        implied.weights,
        1.0,
        asym.d * k / implied.upper,
    )
    print(f"M at k = {k}: {ours.value:.12g}")
    print(f"classic M, implied weights and scaled k: {classic.value:.12g}")

    bad = npv.check_symmetric_consistency(asym, [1.5, 0.5])
    print(
        "\nasymmetric structure with non-uniform weights:",
        bad.coefficient_sum,
        "vs",
        bad.weighted_upper,
        "->",
        "consistent" if bad.equal else "inconsistent (unit endpoint fails here)",
    )

    a = npv.validate_dependence_structure(
        [[1, 0.6, 0, 0], [0.6, 1, 0, 0], [0, 0, 1, 0.6], [0, 0, 0.6, 1]]
    )
    b = npv.validate_dependence_structure(
        [[1, 0, 0.6, 0], [0, 1, 0, 0.6], [0.6, 0, 1, 0], [0, 0.6, 0, 1]]
    )
    same = np.array_equal(
        npv.implied_weights(a).weights.values, npv.implied_weights(b).weights.values
    )
    print("\ntwo different structures, same column totals, same implied weights:", same)


if __name__ == "__main__":
    main()

"""Dependence structures and deprivation scores.

Three dimensions: health, education, income.  Health problems make it
harder to do well in education (entry (2, 1) below), and weak education
drags on income prospects (entry (3, 2)); the reverse effects are
weaker or absent.  The demo shows how one person's plain gaps turn into
dependence-adjusted scores, and that a disconnected structure recovers
the plain gaps.
"""

import os
import sys

# allow running straight from a checkout
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import numpy as np

import netpoverty as npv


def main() -> None:
    structure = npv.validate_dependence_structure(
        [
            [1.0, 0.2, 0.0],  # health is mildly affected by education
            [0.6, 1.0, 0.1],  # education depends strongly on health
            [0.1, 0.5, 1.0],  # income depends on education
        ]
    )
    print("dependence structure:")
    print(structure.entries)
    print("symmetric:", bool(np.array_equal(structure.entries, structure.entries.T)))
    for j, name in enumerate(["health", "education", "income"], start=1):
        print(f"connections of {name}: {sorted(npv.connections_of(structure, j))}")
    print("disconnected:", npv.is_disconnected(structure))

    cutoffs = [70.0, 12.0, 1000.0]
    person = [[49.0, 9.0, 1250.0]]  # deprived in health and education only
    print("\ncutoffs:", cutoffs, " achievements:", person[0])

    for alpha in (0.0, 1.0, 2.0):
        gaps = npv.gap_matrix(person, cutoffs, alpha).values[0]
        scored = npv.deprivation_matrix(person, cutoffs, structure, alpha).values[0]
        print(f"\nalpha = {alpha}")
        print("  plain gaps :", np.round(gaps, 4))
        print("  scores     :", np.round(scored, 4))

    plain = npv.deprivation_matrix(
        person, cutoffs, npv.DependenceStructure.identity(3), 1.0
    ).values[0]
    print("\nidentity structure reduces scores to plain gaps:", np.round(plain, 4))

    counts = npv.deprivation_counts(person, cutoffs, structure)
    print("deprivation count with dependence:", round(float(counts.values[0]), 4))
    print("(two deprived dimensions, but connections push the count above 2)")


if __name__ == "__main__":
    main()

"""Acceptance suite: one test per criterion, one printed line each.

Run with:  pytest tests/test_acceptance.py -v -s

The oracles, from ``tests/oracles.py``, are written independently of the
library internals (plain loops and fsum), so agreement is evidence, not
tautology.  Random draws for the unit-endpoint checks come from the
configuration family where the per-dimension aggregation coefficients
sum to the weighted count ceiling (symmetric structure, or uniform
weights); outside that family the unit endpoint provably fails, see the
weights module notes and tests/test_cli.py::TestAxioms::test_inconsistent_methodology_reports_violation.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import netpoverty as npv
import oracles
from conftest import random_structure, random_weights


def _consistent_family(rng, d):
    """(structure, weights) on which the unit endpoint holds exactly."""
    if rng.random() < 0.5:
        return random_structure(rng, d, symmetric=True), random_weights(rng, d)
    return random_structure(rng, d, symmetric=False), None


def test_criterion_01_normalization_endpoints():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        for _ in range(10):
            d = int(rng.integers(2, 7))
            structure, weights = _consistent_family(rng, d)
            z = rng.uniform(0.5, 10, d)
            n = int(rng.integers(1, 8))
            k = float(rng.uniform(0.05, 0.99)) * npv.weighted_upper_bound(
                structure, weights
            )
            at_zero = npv.fgt_network_adjusted(
                np.zeros((n, d)), z, structure, weights, alpha, k
            )
            at_cutoff = npv.fgt_network_adjusted(
                np.tile(z, (n, 1)), z, structure, weights, alpha, k
            )
            assert at_cutoff.value == 0.0
            assert abs(at_zero.value - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion  1 PASS: unit and zero endpoints at alpha in {{0,0.5,1,2}} "
        f"({elapsed:.2f}s)"
    )


def test_criterion_02_lemma_bounds_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        structure = random_structure(rng, d, symmetric=bool(rng.integers(0, 2)))
        counts = oracles.pattern_counts(structure)[1:]  # every pattern but the empty one
        assert abs(max(counts) - npv.upper_bound(structure)) <= 1e-12
        assert abs(min(counts) - npv.bounds_summary(structure).lower_nonzero) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"criterion  2 PASS: 100 random structures match brute-force count "
        f"bounds to 1e-12 ({elapsed:.2f}s)"
    )


def test_criterion_03_special_structures_exact():
    for d in range(2, 7):
        identity = npv.DependenceStructure.identity(d)
        assert npv.upper_bound(identity) == float(d)
        assert npv.bounds_summary(identity).lower_nonzero == 1.0
        assert npv.upper_bound(npv.DependenceStructure.complete(d)) == float(2 * d)
    print("criterion  3 PASS: identity and all-ones bounds exact for d in 2..6")


def test_criterion_04_classic_adjusted_fgt_reduction():
    rng = np.random.default_rng(104)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 51))
        z = rng.uniform(0.5, 10, d)
        y = rng.uniform(0, 2 * z, (n, d))
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        k = float(rng.uniform(0.1, d))
        ours = npv.fgt_network_adjusted(
            y, z, npv.DependenceStructure.identity(d), None, alpha, k
        )
        assert abs(ours.value - oracles.classic_adjusted_fgt(y, z, None, alpha, k)) <= 1e-12
    print("criterion  4 PASS: identity structure reproduces classic adjusted FGT")


def test_criterion_05_coefficient_rewriting_identity():
    rng = np.random.default_rng(105)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 21))
        structure = random_structure(rng, d, symmetric=bool(rng.integers(0, 2)))
        weights = random_weights(rng, d) if rng.random() < 0.75 else None
        z = rng.uniform(0.5, 10, d)
        y = rng.uniform(0, 2 * z, (n, d))
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        k = float(rng.uniform(0.05, 1.0)) * npv.weighted_upper_bound(structure, weights)
        want = oracles.fgt(y, z, structure, weights, alpha, k)
        a = npv.fgt_network_adjusted(y, z, structure, weights, alpha, k)
        b = npv.fgt_via_coefficients(y, z, structure, weights, alpha, k)
        assert abs(a.value - want) <= 1e-12
        assert abs(b.value - want) <= 1e-12
    print("criterion  5 PASS: both public aggregates equal the score-form oracle")


def test_criterion_06_symmetric_coefficient_identity():
    rng = np.random.default_rng(106)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        structure = random_structure(rng, d, symmetric=True)
        weights = random_weights(rng, d)
        report = npv.check_symmetric_consistency(structure, weights)
        assert abs(report.coefficient_sum - report.weighted_upper) <= 1e-9
        assert report.equal
    counter = npv.check_symmetric_consistency(
        npv.validate_dependence_structure([[1, 0.8], [0, 1]]), [1.5, 0.5]
    )
    assert abs(counter.coefficient_sum - 3.2) <= 1e-12
    assert abs(counter.weighted_upper - 2.4) <= 1e-12
    assert not counter.equal
    print(
        "criterion  6 PASS: symmetric structures satisfy the coefficient "
        "identity; the asymmetric counterexample gives 3.2 vs 2.4"
    )


def test_criterion_07_implied_weights_worked_example():
    result = npv.implied_weights(
        npv.validate_dependence_structure([[1, 0.5, 0.5], [0.5, 1, 0], [0.5, 0, 1]])
    )
    assert list(result.weights.values) == [1.125, 0.9375, 0.9375]
    assert math.fsum(result.weights.values) == 3.0
    print("criterion  7 PASS: implied weights (1.125, 0.9375, 0.9375), sum exactly 3")


def test_criterion_08_axiom_suite_zero_violations():
    start = time.perf_counter()
    uncovered = {0.0: {"monotonicity", "weak_transfer"}, 1.0: set(), 2.0: set()}
    for alpha in (0.0, 1.0, 2.0):
        reports = npv.run_axiom_suite(
            alpha,
            npv.GeneratorSettings(trials=200, n_range=(2, 30), d_range=(2, 6), seed=108),
        )
        for report in reports:
            if report.axiom in uncovered[alpha]:
                assert report.status == "not_covered"
            else:
                assert report.status == "pass", (alpha, report)
                assert report.violations == 0
                assert report.trials == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion  8 PASS: 200 trials per axiom at alpha in {{0,1,2}}, "
        f"zero violations ({elapsed:.1f}s)"
    )


def test_criterion_09_sensitivity_finite_differences():
    rng = np.random.default_rng(109)
    h = 1e-6
    for _ in range(50):
        d = int(rng.integers(2, 7))
        structure = random_structure(rng, d, symmetric=bool(rng.integers(0, 2)))
        alpha = float(rng.choice([1.0, 2.0]))
        z = rng.uniform(0.5, 10, d)
        eta = float(rng.uniform(0.1, 0.9))  # common relative achievement
        y = np.full(d, eta) * z
        theta = -alpha * (1 - eta) ** (alpha - 1)

        j = int(rng.integers(1, d + 1))
        # the base row, one row per dimension j' with relative achievement j'
        # raised by h, and one row with every dimension but j raised by h
        rows = np.tile(y, (d + 2, 1))
        for jp in range(d):
            rows[1 + jp, jp] = (eta + h) * z[jp]
            if jp != j - 1:
                rows[d + 1, jp] = (eta + h) * z[jp]
        scores = npv.deprivation_matrix(rows, z, structure, alpha).values[:, j - 1]
        # d score_j / d gap_j' from the structure: 1 for j' = j, m[j, j'] / (d - 1) otherwise
        sensitivity = [
            1.0 if jp == j - 1 else structure.entries[j - 1, jp] / (d - 1) for jp in range(d)
        ]
        for jp in range(d):
            fd = (scores[1 + jp] - scores[0]) / h
            expected = theta * sensitivity[jp]
            if abs(expected) > 1e-12:
                assert abs(fd - expected) <= 1e-4 * abs(expected)
            else:
                assert abs(fd) <= 1e-8

        # joint unit increase of all other relative achievements
        total = theta * math.fsum(c for jp, c in enumerate(sensitivity) if jp != j - 1)
        assert theta - 1e-12 <= total <= 0.0
        fd_total = (scores[d + 1] - scores[0]) / h
        if abs(total) > 1e-12:
            assert abs(fd_total - total) <= 1e-4 * abs(total)
        else:
            assert abs(fd_total) <= 1e-8
    print(
        "criterion  9 PASS: finite differences match the sensitivity "
        "coefficients; joint effect lies in [theta, 0]"
    )


def test_criterion_10_manipulation_contrast():
    z = [10.0, 10.0, 10.0]
    y = [[2.0, 4.0, 12.0], [11.0, 12.0, 13.0]]  # person 1 poor, deprived in dims 1, 2
    k = 1.0
    previous_numerator = -1.0
    for step in range(11):
        entry = step / 10
        m = np.eye(3)
        m[1, 0] = entry  # dimension 1 starts affecting dimension 2
        structure = npv.validate_dependence_structure(m)
        naive = npv.fgt_naive(y, z, structure, 1.0, k)
        adjusted = npv.fgt_network_adjusted(y, z, structure, None, 1.0, k)
        numerator = naive.value * naive.denominator
        assert numerator > previous_numerator
        previous_numerator = numerator
        assert 0.0 <= adjusted.value <= 1.0
    print(
        "criterion 10 PASS: naive numerator strictly increases along the "
        "entry sweep while the corrected value stays in [0, 1]"
    )


def test_criterion_11_worked_instance_via_cli(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("health,education\n5,10\n10,10\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "cutoffs": [10.0, 10.0],
                "alpha": 1.0,
                "k": 1.0,
                "dependence": [[1.0, 0.5], [0.0, 1.0]],
            }
        ),
        encoding="utf-8",
    )
    outputs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [
                sys.executable, "-m", "netpoverty", "compute",
                "--dataset", str(data),
                "--config", str(config),
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["fgt_value"] == 0.1
    assert report["headcount_ratio"] == 0.5
    print(
        "criterion 11 PASS: CLI worked instance gives fgt 0.1, headcount 0.5, "
        "byte-identical across runs"
    )

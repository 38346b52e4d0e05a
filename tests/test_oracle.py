"""Every public kernel held to the exact formula oracle of ``oracles``.

The oracle shares nothing with the package's coefficient rewriting: it
scores each person by the explicit neighbour loop and sums Fractions.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import random_structure, random_weights
from netpoverty import (
    DependenceStructure,
    MethodologyConfig,
    WeightVector,
    decompose_by_group,
    deprivation_counts,
    deprivation_matrix,
    dimension_jumps,
    fgt_naive,
    fgt_network_adjusted,
    fgt_via_coefficients,
    identify,
    upper_bound,
    weighted_upper_bound,
)
from netpoverty import core
from netpoverty.aggregation import _coefficient_pass

TOL = 1e-12


def draw(rng):
    """An asymmetric structure with non-uniform weights, and an instance to measure on it."""
    d = int(rng.integers(2, 6))
    n = int(rng.integers(1, 13))
    m = random_structure(rng, d)
    while np.array_equal(m.entries, m.entries.T):
        m = random_structure(rng, d)
    w = random_weights(rng, d)
    z = rng.uniform(0.5, 10, d)
    y = rng.uniform(0, 2, (n, d)) * z
    at = rng.random((n, d)) < 0.1  # exactly at the cutoff: not deprived
    y[at] = np.broadcast_to(z, (n, d))[at]
    alpha = int(rng.integers(0, 3))
    share = float(rng.uniform(0.05, 1.0))
    k, k_naive = share * weighted_upper_bound(m, w), share * upper_bound(m)
    labels = rng.integers(0, 3, n).tolist()
    return y, z, m, w, alpha, k, k_naive, labels


def exact_inputs(y, z, m, w):
    """Achievements, cutoffs, structure entries and weights as Fractions."""
    return [oracles.exact(v) for v in (y, z, m.entries, w.values)]


def mismatches(y, z, m, w, alpha, k, k_naive, labels):
    """The public kernels that differ from the exact oracle on one instance, by name.

    Values must lie within 1e-12 of the oracle's; statuses must equal it.
    ``alpha`` is an integer, so the oracle is exact.
    """
    ey, ez, em, ew = exact_inputs(y, z, m, w)
    bad = []

    def check(name, got, want):
        if abs(Fraction(got) - want) > TOL:
            bad.append(name)

    check("weighted_upper_bound", weighted_upper_bound(m, w), oracles.ceiling(em, ew))
    want = oracles.fgt(ey, ez, em, ew, alpha, k)
    check("fgt_network_adjusted", fgt_network_adjusted(y, z, m, w, float(alpha), k).value, want)
    check("fgt_via_coefficients", fgt_via_coefficients(y, z, m, w, float(alpha), k).value, want)
    check(
        "fgt_naive",
        fgt_naive(y, z, m, float(alpha), k_naive).value,
        oracles.fgt(ey, ez, em, None, alpha, k_naive, "naive"),
    )
    counts = [oracles.count(row, ez, em, ew) for row in ey]
    for got, want in zip(deprivation_counts(y, z, m, w).values, counts):
        check("deprivation_counts", got, want)
    scored = deprivation_matrix(y, z, m, float(alpha), w).values
    for got_row, row in zip(scored, ey):
        for got, want in zip(got_row, oracles.scores(oracles.gaps(row, ez, alpha), em, ew)):
            check("deprivation_matrix", got, want)
    poor = [int(oracles.is_poor(c, k)) for c in counts]
    if identify(deprivation_counts(y, z, m, w), k).statuses.tolist() != poor:
        bad.append("identify")
    config = MethodologyConfig(float(alpha), k, m, w, z)
    if _coefficient_pass(y, config)[2].statuses.tolist() != poor:
        bad.append("kernel statuses")
    for g, group in decompose_by_group(y, labels, config).group_results.items():
        rows = [row for row, label in zip(ey, labels) if label == g]
        check("decompose_by_group", group.value, oracles.fgt(rows, ez, em, ew, alpha, k))
    return sorted(set(bad))


def test_every_kernel_equals_the_exact_oracle():
    rng = np.random.default_rng(2301)
    start = time.perf_counter()
    for _ in range(300):
        instance = draw(rng)
        assert mismatches(*instance) == [], instance
    assert time.perf_counter() - start < 30.0


# a fully deprived population where the structure is asymmetric and the weights
# are not uniform: the ceiling d_tilde, 3.25, lies below the largest count, 5.5
REPRO_M = DependenceStructure(np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
REPRO_W = WeightVector([2.5, 0.25, 0.25])
REPRO = (np.zeros((2, 3)), np.ones(3), REPRO_M, REPRO_W, 1, 1.0, 1.0, [0, 1])


def test_repro_value_is_22_over_13():
    y, z, m, w, alpha, k, _, _ = REPRO
    assert oracles.fgt(*exact_inputs(y, z, m, w), alpha, k) == Fraction(22, 13)
    assert fgt_network_adjusted(y, z, m, w, 1.0, k).value == pytest.approx(22 / 13, abs=TOL)
    assert mismatches(*REPRO) == []


def test_gate_rejects_source_weighted_coefficients(monkeypatch):
    # the mutation: each coefficient weighted by its own dimension, w[j] * jump[j]
    monkeypatch.setattr(core, "_coefficient_values", lambda s, w: w * dimension_jumps(s))
    y, z, m, w, _, k, _, _ = REPRO
    assert fgt_network_adjusted(y, z, m, w, 1.0, k).value == pytest.approx(1.0, abs=TOL)
    assert "fgt_network_adjusted" in mismatches(*REPRO)


class TestCeilings:
    def test_the_two_ceilings_agree_for_symmetric_structures_or_uniform_weights(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 6))
            m = oracles.exact(random_structure(rng, d, symmetric=True).entries)
            w = oracles.exact(random_weights(rng, d).values)
            assert oracles.d_tilde(m, w) == oracles.all_deprived_count(m, w)
            m = oracles.exact(random_structure(rng, d).entries)
            assert oracles.d_tilde(m) == oracles.all_deprived_count(m)

    def test_they_differ_on_the_repro(self):
        _, _, m, w = exact_inputs(REPRO[0], REPRO[1], REPRO_M, REPRO_W)
        assert oracles.d_tilde(m, w) == Fraction(13, 4)
        assert oracles.all_deprived_count(m, w) == Fraction(11, 2)

    def test_float_and_exact_routes_agree(self, rng):
        for _ in range(30):
            y, z, m, w, alpha, k, _, _ = draw(rng)
            exact = oracles.fgt(*exact_inputs(y, z, m, w), alpha, k)
            assert abs(Fraction(oracles.fgt(y, z, m, w, alpha, k)) - exact) <= TOL

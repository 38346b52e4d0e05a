"""The paper's formulas, each written once: the tests' oracle.

Formula oracles are explicit loops over persons and dimensions, with no
structure shared with the package's coefficient rewriting.  They work
on floats, summing with ``math.fsum``, and on ``Fraction`` inputs with
an integer alpha, where every step is exact (see :func:`exact`).  A
structure is given by its entries (a ``DependenceStructure`` is read
through ``.entries``) and weights by their values, or ``None`` for
uniform weights.

Bit oracles (:func:`clipped_gaps`, :func:`whole_array_scores`) are the
whole-array numpy forms that the row-block and thread tests compare
with bit for bit; their order of operations is the point.

Not collected by pytest; tests import it as they import ``conftest``.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np


def exact(values):
    """Every number in a (nested) sequence or array as the Fraction of its value."""
    if np.ndim(values):
        return [exact(v) for v in values]
    return Fraction(values)


def total(terms):
    """The sum of the terms: exact over Fractions, math.fsum over floats."""
    terms = list(terms)
    if any(isinstance(t, Fraction) for t in terms):
        return sum(terms, Fraction(0))
    return math.fsum(terms)


def _entries(m):
    return getattr(m, "entries", m)


def _weights(w, d):
    return [1] * d if w is None else getattr(w, "values", w)


def gap(y, z, alpha):
    """The normalized gap ((z - y) / z) ** alpha below the cutoff, 0 at or above it."""
    return ((z - y) / z) ** alpha if y < z else 0 * z


def gaps(row, z, alpha):
    """One person's gaps."""
    return [gap(y, c, alpha) for y, c in zip(row, z)]


def scores(g, m, w=None):
    """Weighted scores of one gap row: w[j] * (g[j] + sum_{j' != j} m[j][j'] * g[j'] / (d - 1))."""
    m, d = _entries(m), len(g)
    w = _weights(w, d)
    return [
        w[j] * (g[j] + total(m[j][jp] * g[jp] for jp in range(d) if jp != j) / (d - 1))
        for j in range(d)
    ]


def count(row, z, m, w=None):
    """A person's weighted deprivation count: the row sum of their alpha = 0 weighted scores."""
    return total(scores(gaps(row, z, 0), m, w))


def pattern_counts(m, w=None):
    """The count of every deprivation pattern, in ``product((0, 1), repeat=d)`` order."""
    d = len(_entries(m))
    return [total(scores(list(p), m, w)) for p in product((0, 1), repeat=d)]


def is_poor(count_, k):
    """Dual-cutoff identification: poor when the count reaches k - 1e-12 * max(1, k)."""
    return count_ >= k - 1e-12 * max(1.0, k)


def d_tilde(m, w=None):
    """The ceiling as the code defines it: sum_j w[j] * jump[j], jump[j] from column j.

    Source-weighted: for an asymmetric structure with non-uniform weights
    it differs from :func:`all_deprived_count`.
    """
    m = _entries(m)
    d = len(m)
    w = _weights(w, d)
    return total(
        w[j] * (1 + total(m[jp][j] for jp in range(d) if jp != j) / (d - 1))
        for j in range(d)
    )


def all_deprived_count(m, w=None):
    """The count of a person deprived in every dimension: the largest count."""
    return total(scores([1] * len(_entries(m)), m, w))


#: the ceiling that k is checked against and the aggregate divides by
ceiling = d_tilde


def fgt(y, z, m, w, alpha, k, kind="network_adjusted"):
    """The censored aggregate: the poor's weighted scores summed, over N times the ceiling.

    The naive kind identifies on uniform-weight counts, scores with
    uniform weights and divides by N * d.
    """
    n, d = len(y), len(z)
    if kind == "naive":
        w, denominator = None, n * d
    else:
        denominator = n * ceiling(m, w)
    terms = []
    for row in y:
        if is_poor(count(row, z, m, w), k):
            terms.extend(scores(gaps(row, z, alpha), m, w))
    return total(terms) / denominator


def classic_adjusted_fgt(y, z, w, alpha, k):
    """The weighted adjusted FGT of Alkire and Foster (2011), with no dependence at all."""
    n, d = len(y), len(z)
    w = _weights(w, d)
    terms = []
    for row in y:
        deprived = [j for j in range(d) if row[j] < z[j]]
        if is_poor(total(w[j] for j in deprived), k):
            terms.extend(w[j] * gap(row[j], z[j], alpha) for j in deprived)
    return total(terms) / (n * d)


def clipped_gaps(y, z, alpha):
    """The gap formula with its [0, 1] clip, over every cell at once."""
    deprived = y < z
    with np.errstate(over="ignore"):  # the clip takes the overflowed cells to 0
        base = np.clip((z - y) / z, 0.0, 1.0)
    return np.where(deprived, base**alpha, 0.0)


def whole_array_scores(y, z, m, alpha, w=None):
    """The scores by the whole-array formula: every gap, then one broadcast neighbor sum."""
    gaps = clipped_gaps(y, z, alpha)
    off_diag = m.off_diagonal()
    d = off_diag.shape[0]
    scores = gaps + np.sum(gaps[:, None, :] * off_diag[None, :, :], axis=2) / (d - 1)
    return scores if w is None else scores * w.values

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, strategies as st

from netpoverty import (
    DependenceStructure,
    deprivation_counts,
    deprivation_matrix,
    deprivation_score,
    gap_matrix,
    gap_sensitivity,
    validate_dependence_structure,
)
from netpoverty.deprivation import (
    _BLOCK_CELLS,
    _PARALLEL_CELLS,
    _gaps,
    _counts,
    _row_blocks,
)
from netpoverty.errors import (
    IndexOutOfRange,
    InvalidAlpha,
    NonPositiveCutoff,
    ShapeMismatch,
)

ASYM = validate_dependence_structure([[1, 0.5, 0], [0.2, 1, 0.4], [0, 0, 1]])


def cell_gap(y, z, alpha):
    """One achievement's gap, as gap_matrix computes it."""
    return float(gap_matrix([[y]], [z], alpha).values[0, 0])


class TestGapMatrixCells:
    def test_midpoint_linear_gap(self):
        assert cell_gap(5, 10, 1) == oracles.gap(5, 10, 1) == 0.5

    def test_at_cutoff_is_zero_for_any_alpha(self):
        for alpha in (0.0, 0.5, 1.0, 2.0):
            assert cell_gap(10, 10, alpha) == 0.0

    def test_above_cutoff_is_zero(self):
        assert cell_gap(15, 10, 2) == 0.0

    def test_squared_gap(self):
        assert cell_gap(2.5, 10, 2) == oracles.gap(2.5, 10, 2) == 0.5625

    def test_alpha_zero_is_indicator(self):
        assert cell_gap(9.999, 10, 0) == 1.0
        assert cell_gap(0, 10, 0) == 1.0

    def test_non_positive_cutoff_rejected(self):
        with pytest.raises(NonPositiveCutoff):
            gap_matrix([[5]], [0], 1)

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidAlpha):
            gap_matrix([[5]], [10], -1)

    @given(
        y1=st.floats(0, 20, allow_nan=False),
        y2=st.floats(0, 20, allow_nan=False),
        alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    def test_non_increasing_in_achievement(self, y1, y2, alpha):
        lo, hi = gap_matrix([[min(y1, y2)], [max(y1, y2)]], [10.0], alpha).values[:, 0]
        assert hi <= lo

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_cells_match_the_formula(self, rng, alpha):
        z = rng.uniform(0.5, 10, 3)
        y = rng.uniform(0, 1.2, (2000, 3)) * z
        got = gap_matrix(y, z, alpha).values
        cutoffs = z.tolist()
        want = [[oracles.gap(v, c, alpha) for v, c in zip(row, cutoffs)] for row in y.tolist()]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        # numpy's power, as the clipped form takes it, off the half-integer squaring path
        if alpha % 0.5 or alpha in (0.0, 0.5, 1.0, 2.0):
            assert got.tobytes() == oracles.clipped_gaps(y, z, alpha).tobytes()

    def test_strict_decrease_below_cutoff(self):
        rng = np.random.default_rng(3)
        for alpha in (0.5, 1.0, 2.0):
            y = np.sort(rng.uniform(0.001, 9.99, 50))
            gaps = gap_matrix(y[:, None], [10.0], alpha).values[:, 0]
            assert np.all(gaps[:-1] > gaps[1:])


class TestDeprivationScore:
    GAPS = (0.6, 0.25, 0.0)

    def test_identity_returns_plain_gap(self):
        assert deprivation_score(self.GAPS, DependenceStructure.identity(3), 1) == 0.6

    def test_neighbor_effects_enter_row_weighted(self):
        assert deprivation_score(self.GAPS, ASYM, 1) == pytest.approx(0.6625, abs=1e-12)
        assert deprivation_score(self.GAPS, ASYM, 2) == pytest.approx(0.31, abs=1e-12)

    def test_unconnected_dimension_keeps_zero(self):
        assert deprivation_score(self.GAPS, ASYM, 3) == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            deprivation_score(self.GAPS, ASYM, 4)

    def test_gap_row_length_checked(self):
        with pytest.raises(ShapeMismatch):
            deprivation_score((0.5, 0.5), ASYM, 1)


class TestDeprivationMatrix:
    def test_identity_is_gap_matrix(self, rng):
        y = rng.uniform(0, 20, (6, 3))
        z = np.array([10.0, 8.0, 12.0])
        m = DependenceStructure.identity(3)
        scored = deprivation_matrix(y, z, m, 1.5)
        gaps = gap_matrix(y, z, 1.5)
        assert np.array_equal(scored.values, gaps.values)
        assert not scored.weighted

    def test_fully_deprived_complete_structure_hits_two(self):
        scored = deprivation_matrix(
            [[0.0, 0.0]], [10, 10], DependenceStructure.complete(2), 0.0
        )
        assert np.array_equal(scored.values, [[2.0, 2.0]])

    def test_weighted_entries_scale_after_scoring(self):
        scored = deprivation_matrix(
            [[4.0, 7.5, 10.0]], [10, 10, 10], ASYM, 1.0, [1.5, 1.0, 0.5]
        )
        assert scored.weighted
        assert scored.values[0] == pytest.approx([0.99375, 0.31, 0.0], abs=1e-12)

    def test_range_bounded_by_two_unweighted(self, rng):
        from conftest import random_structure

        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d)
            z = rng.uniform(0.5, 10, d)
            y = rng.uniform(0, 2 * z, (8, d))
            scored = deprivation_matrix(y, z, m, float(rng.uniform(0, 3)))
            assert np.all(scored.values >= 0.0)
            assert np.all(scored.values <= 2.0)

    def test_matches_scalar_score_bitwise(self, rng):
        y = rng.uniform(0, 20, (5, 3))
        z = np.array([10.0, 10.0, 10.0])
        scored = deprivation_matrix(y, z, ASYM, 2.0)
        gaps = gap_matrix(y, z, 2.0)
        for i in range(5):
            for j in range(3):
                assert scored.values[i, j] == deprivation_score(
                    gaps.values[i], ASYM, j + 1
                )

    def test_average_form_equivalence(self, rng):
        # the vectorised scores against the formula's explicit neighbour loop
        from conftest import random_structure

        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d)
            z = rng.uniform(0.5, 10, d)
            y = rng.uniform(0, 2 * z, (4, d))
            alpha = float(rng.uniform(0, 3))
            scored = deprivation_matrix(y, z, m, alpha)
            for i in range(4):
                direct = oracles.scores(oracles.gaps(y[i], z, alpha), m)
                assert scored.values[i] == pytest.approx(direct, abs=1e-12)

    def test_chunked_neighbor_path_matches_single_pass(self, rng, monkeypatch):
        import netpoverty.deprivation as dep
        from conftest import random_structure

        m = random_structure(rng, 4)
        y = rng.uniform(0, 20, (50, 4))
        z = np.full(4, 10.0)
        whole = deprivation_matrix(y, z, m, 1.0).values
        monkeypatch.setattr(dep, "_BLOCK_CELLS", 7 * 16)  # 7 rows per block
        chunked = deprivation_matrix(y, z, m, 1.0).values
        assert np.array_equal(whole, chunked)

    def test_gap_level_deprivation_focus_is_bitwise(self, rng):
        from conftest import random_structure

        d = 4
        m = random_structure(rng, d)
        z = np.full(d, 10.0)
        y = rng.uniform(0, 20, (6, d))
        y[2, 1] = 14.0  # non-deprived cell
        before = deprivation_matrix(y, z, m, 2.0).values
        y2 = y.copy()
        y2[2, 1] = 19.0
        after = deprivation_matrix(y2, z, m, 2.0).values
        assert np.array_equal(before, after)


def squared(b, times):
    for _ in range(times):
        b *= b
    return b


class TestGapValues:
    """Without the clip or np.where the in-place gaps keep every bit of the clipped formula."""

    @staticmethod
    def edge_inputs(rng):
        tiny = 5e-324  # the least subnormal
        z = np.array([10.0, 0.5, 3e-320, 1e-10, 1.0, 7 * tiny])
        y = rng.uniform(0, 2, (200, z.size)) * z
        edges = np.array([
            np.zeros_like(z),  # y = 0: gap 1
            np.nextafter(z, 0),  # the smallest gaps; at alpha 20 they are subnormal
            z,  # at the cutoff: not deprived
            np.nextafter(z, np.inf),
            np.array([1e300, 1e300, 1.0, 1e300, 2.0, 1.0]),  # far above; most overflow
        ])
        return np.vstack([y, edges]), z

    # numpy's power at every alpha that is not a multiple of 1/2, at 0.5 and 2, and above 32
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.7, 2.0, 20.2, 32.5, 1e300])
    def test_bitwise_equal_to_clipped_form(self, rng, alpha):
        y, z = self.edge_inputs(rng)
        got = _gaps(y, z, alpha, np.empty(y.shape))
        assert got.tobytes() == oracles.clipped_gaps(y, z, alpha).tobytes()
        if alpha == 20.2:
            assert 0.0 < got[201, 0] < np.finfo(float).tiny

    @pytest.mark.parametrize(
        "alpha, power",
        [
            (1.5, lambda b: b * math.sqrt(b)),
            (2.5, lambda b: (b * b) * math.sqrt(b)),
            (3.0, lambda b: (b * b) * b),
            (3.5, lambda b: ((b * b) * b) * math.sqrt(b)),
            (4.0, lambda b: (b * b) * (b * b)),
            # b**2, b**4, b**5, b**10, b**20
            (20.0, lambda b: (lambda b5: (b5 * b5) * (b5 * b5))((b * b) * (b * b) * b)),
            (32.0, lambda b: squared(b, 5)),
        ],
    )
    def test_half_integer_alpha_is_products_and_a_sqrt(self, rng, alpha, power):
        y, z = self.edge_inputs(rng)
        got = _gaps(y, z, alpha, np.empty(y.shape))
        bases = oracles.clipped_gaps(y, z, 1.0).tolist()
        want = [[power(b) if b else 0.0 for b in row] for row in bases]
        assert got.tobytes() == np.array(want).tobytes()
        if alpha == 20.0:
            assert 0.0 < got[201, 0] < np.finfo(float).tiny


_GAP_HASHES = """
import hashlib
import numpy as np
from netpoverty import gap_matrix
rng = np.random.default_rng(9)
z = rng.uniform(0.5, 10, 4)
y = rng.uniform(0, 1.2, (50_000, 4)) * z
for alpha in (1.5, 2.5, 3.0):
    print(hashlib.sha256(gap_matrix(y, z, alpha).values.tobytes()).hexdigest())
"""


class TestPortableBits:
    """At half-integer alpha the gaps' bits do not follow numpy's SIMD dispatch."""

    def test_gap_hashes_with_and_without_simd_features(self):
        try:
            from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        except ImportError:  # numpy < 2
            from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        # every feature this CPU has that this build dispatches to; maybe none
        disabled = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        hashes = [
            subprocess.run(
                [sys.executable, "-c", _GAP_HASHES],
                env=dict(env, PYTHONPATH=path, **extra),
                capture_output=True,
                check=True,
                text=True,
            ).stdout.split()
            for extra in ({}, {"NPY_DISABLE_CPU_FEATURES": disabled})
        ]
        assert hashes[0] == hashes[1] == [
            "cab706b699f21643ad5af6861c378157c459a8d4060c4954db30a2f69ff456d6",
            "e768257fa547089e1265fffd3790b609f06a2673611395d5c71564895208095e",
            "018e686a91ee718efcbf6f98f93ecc4a05c196d135ae19bc2abd6e24cf38c60b",
        ]


class TestDeprivationCounts:
    def test_non_deprived_person_counts_zero(self):
        counts = deprivation_counts([[12.0, 11.0, 10.0]], [10, 10, 10], ASYM)
        assert counts.values[0] == 0.0

    def test_connected_deprivations_count_more(self):
        counts = deprivation_counts([[5.0, 5.0, 15.0]], [10, 10, 10], ASYM)
        assert counts.values[0] == pytest.approx(2.35, abs=1e-12)

    def test_identity_counts_deprived_dimensions(self, rng):
        d = 5
        z = np.full(d, 10.0)
        y = rng.uniform(0, 20, (30, d))
        counts = deprivation_counts(y, z, DependenceStructure.identity(d))
        assert np.array_equal(counts.values, np.sum(y < z, axis=1).astype(float))

    def test_counts_zero_or_above_lower_bound(self, rng):
        from conftest import random_structure
        from netpoverty import lower_bound

        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d)
            z = rng.uniform(0.5, 10, d)
            y = rng.uniform(0, 2 * z, (20, d))
            counts = deprivation_counts(y, z, m).values
            floor = lower_bound(m)
            assert np.all((counts == 0.0) | (counts >= floor - 1e-12))

    def test_row_permutation_is_bitwise(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(10):
            d = int(rng.integers(2, 21))
            m = random_structure(rng, d)
            w = random_weights(rng, d)
            z = rng.uniform(0.5, 10, d)
            y = rng.uniform(0, 2 * z, (40, d))
            perm = rng.permutation(40)
            base = deprivation_counts(y, z, m, w).values
            assert np.array_equal(deprivation_counts(y[perm], z, m, w).values, base[perm])


class TestGapSensitivity:
    def test_own_effect_is_one(self, rng):
        from conftest import random_structure

        m = random_structure(rng, 4)
        assert gap_sensitivity(m, 2, 2) == 1.0

    def test_cross_effect_is_scaled_entry(self):
        assert gap_sensitivity(ASYM, 1, 2) == 0.25

    def test_disconnected_cross_effect_is_zero(self):
        assert gap_sensitivity(DependenceStructure.identity(3), 1, 2) == 0.0

    def test_total_cross_effect_in_unit_interval(self, rng):
        from conftest import random_structure

        for _ in range(20):
            d = int(rng.integers(2, 7))
            m = random_structure(rng, d)
            for j in range(1, d + 1):
                total = math.fsum(
                    gap_sensitivity(m, j, jp) for jp in range(1, d + 1) if jp != j
                )
                assert -1e-15 <= total <= 1.0 + 1e-15

    def test_total_effect_one_only_at_full_row(self):
        m = DependenceStructure.complete(3)
        total = math.fsum(gap_sensitivity(m, 1, jp) for jp in (2, 3))
        assert total == 1.0


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_finite_difference_matches_sensitivity(alpha, rng):
    from conftest import random_structure

    h = 1e-6
    for _ in range(30):
        d = int(rng.integers(2, 7))
        m = random_structure(rng, d)
        z = rng.uniform(0.5, 10, d)
        eta = rng.uniform(0.05, 0.9, d)
        y = eta * z
        j = int(rng.integers(1, d + 1))
        jp = int(rng.integers(1, d + 1))

        gaps = gap_matrix([y], z, alpha).values[0]
        before = deprivation_score(gaps, m, j)
        y2 = y.copy()
        y2[jp - 1] = (eta[jp - 1] + h) * z[jp - 1]
        gaps2 = gap_matrix([y2], z, alpha).values[0]
        after = deprivation_score(gaps2, m, j)

        theta_fd = (gaps2[jp - 1] - gaps[jp - 1]) / h
        theta_exact = -alpha * (1 - eta[jp - 1]) ** (alpha - 1)
        assert theta_fd == pytest.approx(theta_exact, rel=1e-4)

        expected = theta_fd * gap_sensitivity(m, j, jp)
        actual = (after - before) / h
        if abs(expected) > 1e-12:
            assert actual == pytest.approx(expected, rel=1e-4)
        else:
            assert actual == pytest.approx(expected, abs=1e-8)


class TestBlockedCounts:
    """Counts over row blocks and ranges keep the whole-array counts' bits."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("size", ["one-block", "one-block+1", "parallel+7"])
    @pytest.mark.parametrize("d", [2, 5, 20])
    def test_bitwise_equal_to_whole_array_counts(self, monkeypatch, rng, d, size, cpus):
        from conftest import random_structure, random_weights
        from netpoverty.core import _coefficient_values

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        step = _BLOCK_CELLS // d
        n = {"one-block": step, "one-block+1": step + 1,
             "parallel+7": -(-_PARALLEL_CELLS // d) + 7}[size]
        z = rng.uniform(0.5, 10, d)
        y = rng.uniform(0, 2, (n, d)) * z
        at = rng.random((n, d)) < 0.05  # exactly at the cutoff: not deprived
        y[at] = np.broadcast_to(z, (n, d))[at]
        coef = _coefficient_values(random_structure(rng, d), random_weights(rng, d).values)
        want = np.sum(np.where(y < z, coef, 0.0), axis=1)
        assert _counts(y, z, coef).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    def test_every_row_once_in_its_threads_buffer(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        d = 4
        step = _BLOCK_CELLS // d
        n = 7 * step + 5
        done = np.zeros(n, dtype=np.int64)
        buffers = {}
        baseline = threading.active_count()

        def body(rows, block):
            assert block.shape == (rows.stop - rows.start, d) and block.flags.c_contiguous
            assert rows.start % step == 0 and rows.stop == min(rows.start + step, n)
            done[rows] += 1
            address = block.__array_interface__["data"][0]
            buffers.setdefault(threading.current_thread(), set()).add(address)

        _row_blocks(n, d, body)
        assert np.all(done == 1)
        # one scratch buffer per thread, reused for every block it runs
        assert len(buffers) <= cpus
        assert all(len(addresses) == 1 for addresses in buffers.values())
        assert threading.active_count() == baseline


def score_inputs(rng, n, d):
    from conftest import random_structure, random_weights

    z = rng.uniform(0.5, 10, d)
    y = rng.uniform(0, 2, (n, d)) * z
    at = rng.random((n, d)) < 0.05  # exactly at the cutoff: not deprived
    y[at] = np.broadcast_to(z, (n, d))[at]
    return y, z, random_structure(rng, d), random_weights(rng, d)


class TestBlockedScores:
    """Scores over row blocks and ranges keep the whole-array formula's bits."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize(
        "size", ["one-row", "block-1", "block", "block+1", "parallel-1", "parallel"]
    )
    @pytest.mark.parametrize("d", [2, 5, 20])
    def test_bitwise_equal_to_whole_array_scores(self, monkeypatch, rng, d, size, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        rows = _BLOCK_CELLS // (d * d)
        parallel = -(-_PARALLEL_CELLS // (d * d))  # the fewest rows whose blocks are split
        n = {"one-row": 1, "block-1": rows - 1, "block": rows, "block+1": rows + 1,
             "parallel-1": parallel - 1, "parallel": parallel}[size]
        y, z, m, w = score_inputs(rng, n, d)
        calls = 0
        for alpha in (0.0, 0.5, 1.0, 2.0):
            for weights in (None, w):
                got = deprivation_matrix(y, z, m, alpha, weights)
                want = oracles.whole_array_scores(y, z, m, alpha, weights)
                assert got.weighted is (weights is not None)
                assert got.values.tobytes() == want.tobytes()
                calls += 1
        # from the threshold on, every call starts one thread per CPU past the caller's
        threads = cpus - 1 if size == "parallel" else 0
        assert len(started) == calls * threads

    def test_row_permutation_across_blocks_and_ranges(self, monkeypatch, rng):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
        d = 5
        n = 4 * (_BLOCK_CELLS // (d * d)) + 7  # five blocks in three ranges
        assert n * d * d >= _PARALLEL_CELLS
        y, z, m, w = score_inputs(rng, n, d)
        perm = rng.permutation(n)
        for alpha in (0.5, 2.0):
            base = deprivation_matrix(y, z, m, alpha, w).values
            permuted = deprivation_matrix(y[perm], z, m, alpha, w).values
            assert permuted.tobytes() == base[perm].tobytes()


class TestBlockedGaps:
    """The gap matrix over row blocks and ranges keeps the clipped formula's bits."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize(
        "size", ["one-row", "block-1", "block", "block+1", "parallel-1", "parallel"]
    )
    @pytest.mark.parametrize("d", [2, 5, 20])
    def test_bitwise_equal_to_clipped_gaps(self, monkeypatch, rng, d, size, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        rows = _BLOCK_CELLS // d
        parallel = -(-_PARALLEL_CELLS // d)  # the fewest rows whose blocks are split
        n = {"one-row": 1, "block-1": rows - 1, "block": rows, "block+1": rows + 1,
             "parallel-1": parallel - 1, "parallel": parallel}[size]
        y, z, _, _ = score_inputs(rng, n, d)
        alphas = (0.0, 0.5, 1.0, 2.0)
        for alpha in alphas:
            got = gap_matrix(y, z, alpha)
            assert got.alpha == alpha and not got.values.flags.writeable
            assert got.values.tobytes() == oracles.clipped_gaps(y, z, alpha).tobytes()
        # from the threshold on, every call starts one thread per CPU past the caller's
        threads = cpus - 1 if size == "parallel" else 0
        assert len(started) == len(alphas) * threads

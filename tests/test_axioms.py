import hashlib
import json
import os
import threading
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import assert_reaped, usable_cpus
from hypothesis import given, strategies as st

from netpoverty import (
    AXIOMS,
    AchievementMatrix,
    DependenceStructure,
    GeneratorSettings,
    MethodologyConfig,
    WeightVector,
    apply_bistochastic_average,
    apply_rearrangement,
    apply_simple_increment,
    axiom_covered,
    deprivation_counts,
    identify,
    run_axiom_suite,
)
from netpoverty import axioms, bounds, core
from netpoverty.axioms import (
    AMONG_NON_DEPRIVED,
    AMONG_NON_POOR,
    DEPRIVED_AMONG_POOR,
    DIMENSIONAL_AMONG_POOR,
    SIMPLE_INCREMENT,
    _choose_k,
    _draw_materials,
)
from netpoverty.errors import (
    IndexOutOfRange,
    InvalidGeneratorSettings,
    NegativeAchievement,
    NonPoorRowNotIdentity,
    NonPositiveAmount,
    NotBistochastic,
    PersonNotPoor,
    ValidationError,
)

CFG = MethodologyConfig(
    alpha=1.0,
    k=1.0,
    structure=DependenceStructure.identity(2),
    weights=None,
    cutoffs=[10.0, 10.0],
)
# person 1 poor (deprived in both dimensions), person 2 non-poor
Y = np.array([[5.0, 5.0], [10.0, 10.0]])


class TestSimpleIncrement:
    def test_non_poor_classification(self):
        _, labels = apply_simple_increment(Y, 2, 1, 3.0, CFG)
        assert SIMPLE_INCREMENT in labels
        assert AMONG_NON_POOR in labels
        assert AMONG_NON_DEPRIVED not in labels  # y equals the cutoff, not above

    def test_deprived_increment_among_poor(self):
        _, labels = apply_simple_increment(Y, 1, 1, 2.0, CFG)
        assert DEPRIVED_AMONG_POOR in labels
        assert DIMENSIONAL_AMONG_POOR not in labels

    def test_dimensional_increment_among_poor(self):
        after, labels = apply_simple_increment(Y, 1, 1, 7.0, CFG)
        assert DIMENSIONAL_AMONG_POOR in labels
        assert after.values[0, 0] == 12.0

    def test_non_deprived_classification(self):
        y = np.array([[5.0, 12.0], [10.0, 10.0]])
        _, labels = apply_simple_increment(y, 1, 2, 1.0, CFG)
        assert AMONG_NON_DEPRIVED in labels

    def test_original_matrix_untouched(self):
        after, _ = apply_simple_increment(Y, 1, 1, 2.0, CFG)
        assert Y[0, 0] == 5.0
        assert after.values[0, 0] == 7.0
        # the result is adopted: read-only, as the constructor would store it
        assert not after.values.flags.writeable
        assert after.values.tobytes() == AchievementMatrix(after.values).values.tobytes()

    def test_amount_must_be_positive(self):
        with pytest.raises(NonPositiveAmount):
            apply_simple_increment(Y, 1, 1, 0.0, CFG)

    def test_indices_checked(self):
        with pytest.raises(IndexOutOfRange):
            apply_simple_increment(Y, 3, 1, 1.0, CFG)
        with pytest.raises(IndexOutOfRange):
            apply_simple_increment(Y, 1, 3, 1.0, CFG)

    def test_overflow_names_the_cell_and_amount_without_a_warning(self):
        y = np.array([[1e308, 5.0], [10.0, 10.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NegativeAchievement) as err:
                apply_simple_increment(y, 1, 1, 1.7e308, CFG)
        assert str(err.value) == "achievement (1, 1) = 1e+308 plus amount 1.7e+308 is not finite"
        assert (err.value.row, err.value.column) == (1, 1)
        assert y[0, 0] == 1e308


class TestBistochasticAverage:
    STATUSES = identify(
        deprivation_counts(Y, CFG.cutoffs, CFG.structure, CFG.weights), CFG.k
    )

    def test_identity_matrix_changes_nothing(self):
        after = apply_bistochastic_average(Y, np.eye(2), self.STATUSES)
        assert np.array_equal(after.values, Y)

    def test_full_average_of_two_poor(self):
        y = np.array([[2.0, 8.0], [6.0, 0.0]])
        statuses = identify(
            deprivation_counts(y, CFG.cutoffs, CFG.structure, CFG.weights), CFG.k
        )
        b = np.full((2, 2), 0.5)
        after = apply_bistochastic_average(y, b, statuses)
        assert np.array_equal(after.values, [[4.0, 4.0], [4.0, 4.0]])

    def test_partial_mix_leaves_non_poor_row_alone(self):
        y = np.array([[2.0, 8.0], [6.0, 0.0], [12.0, 15.0]])
        statuses = identify(
            deprivation_counts(y, [10, 10], CFG.structure, CFG.weights), 1.0
        )
        lam = 0.3
        b = np.array([[1 - lam, lam, 0.0], [lam, 1 - lam, 0.0], [0.0, 0.0, 1.0]])
        after = apply_bistochastic_average(y, b, statuses)
        assert after.values[0] == pytest.approx((1 - lam) * y[0] + lam * y[1])
        assert after.values[1] == pytest.approx(lam * y[0] + (1 - lam) * y[1])
        assert np.array_equal(after.values[2], y[2])

    def test_row_sums_checked(self):
        b = np.array([[0.5, 0.4], [0.5, 0.6]])
        with pytest.raises(NotBistochastic):
            apply_bistochastic_average(Y, b, self.STATUSES)

    def test_negative_entries_rejected(self):
        b = np.array([[1.2, -0.2], [-0.2, 1.2]])
        with pytest.raises(NotBistochastic):
            apply_bistochastic_average(Y, b, self.STATUSES)

    def test_mixing_a_non_poor_row_rejected(self):
        b = np.full((2, 2), 0.5)  # person 2 is non-poor
        with pytest.raises(NonPoorRowNotIdentity):
            apply_bistochastic_average(Y, b, self.STATUSES)


class TestRearrangement:
    YPAIR = np.array([[8.0, 9.0], [2.0, 3.0]])
    STATUSES = identify(
        deprivation_counts(YPAIR, CFG.cutoffs, CFG.structure, CFG.weights), CFG.k
    )

    def test_empty_swap_is_not_association_decreasing(self):
        after, decreasing = apply_rearrangement(self.YPAIR, 1, 2, set(), self.STATUSES)
        assert np.array_equal(after.values, self.YPAIR)
        assert not decreasing

    def test_partial_swap_breaks_dominance(self):
        after, decreasing = apply_rearrangement(self.YPAIR, 1, 2, {1}, self.STATUSES)
        assert np.array_equal(after.values, [[2.0, 9.0], [8.0, 3.0]])
        assert decreasing

    def test_full_swap_preserves_dominance(self):
        after, decreasing = apply_rearrangement(
            self.YPAIR, 1, 2, {1, 2}, self.STATUSES
        )
        assert np.array_equal(after.values, [[2.0, 3.0], [8.0, 9.0]])
        assert not decreasing

    def test_non_poor_person_rejected(self):
        y = np.array([[8.0, 9.0], [12.0, 13.0]])
        statuses = identify(
            deprivation_counts(y, CFG.cutoffs, CFG.structure, CFG.weights), CFG.k
        )
        with pytest.raises(PersonNotPoor):
            apply_rearrangement(y, 1, 2, {1}, statuses)

    def test_distinct_persons_required(self):
        with pytest.raises(IndexOutOfRange):
            apply_rearrangement(self.YPAIR, 1, 1, {1}, self.STATUSES)


class TestRegistry:
    def test_axiom_order_is_pinned(self):
        # trial seeds are [seed, axiom index, trial]: reordering changes every report
        assert AXIOMS == (
            "decomposability",
            "replication_invariance",
            "symmetry",
            "poverty_focus",
            "deprivation_focus",
            "weak_monotonicity",
            "monotonicity",
            "dimensional_monotonicity",
            "nontriviality",
            "normalization",
            "weak_transfer",
            "weak_rearrangement",
        )


class TestCoverage:
    def test_monotonicity_needs_positive_alpha(self):
        assert not axiom_covered("monotonicity", 0.0)
        assert axiom_covered("monotonicity", 0.5)

    def test_weak_transfer_needs_alpha_at_least_one(self):
        assert not axiom_covered("weak_transfer", 0.5)
        assert axiom_covered("weak_transfer", 1.0)

    def test_everything_else_always_covered(self):
        for axiom in AXIOMS:
            if axiom in ("monotonicity", "weak_transfer"):
                continue
            assert axiom_covered(axiom, 0.0)


class TestSuite:
    SETTINGS = GeneratorSettings(trials=20, n_range=(2, 12), d_range=(2, 4), seed=7)

    def test_classic_configuration_passes(self):
        reports = run_axiom_suite(CFG, self.SETTINGS)
        assert [r.axiom for r in reports] == list(AXIOMS)
        for r in reports:
            assert r.status == "pass", (r.axiom, r.worst_violation)

    def test_randomized_methodology_passes(self):
        for r in run_axiom_suite(2.0, self.SETTINGS):
            assert r.status == "pass", (r.axiom, r.worst_violation)

    def test_half_alpha_marks_weak_transfer_uncovered(self):
        reports = {r.axiom: r for r in run_axiom_suite(0.5, self.SETTINGS)}
        assert reports["weak_transfer"].status == "not_covered"
        assert reports["weak_transfer"].trials == 0
        assert reports["weak_transfer"].worst_violation is None
        assert reports["monotonicity"].status == "pass"

    def test_alpha_zero_marks_monotonicity_uncovered(self):
        reports = {r.axiom: r for r in run_axiom_suite(0.0, self.SETTINGS)}
        assert reports["monotonicity"].status == "not_covered"
        assert reports["weak_transfer"].status == "not_covered"

    def test_same_seed_reproduces_reports(self):
        a = run_axiom_suite(1.0, self.SETTINGS)
        b = run_axiom_suite(1.0, self.SETTINGS)
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"d_range": (1, 3)},
            # a bool is an int to Python, but never a count or a seed
            {"trials": True},
            {"n_range": (True, 5)},
            {"n_range": (2, True)},
            {"d_range": (True, 3)},
            {"d_range": (2, True)},
            {"seed": False},
        ],
        ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_bad_settings_rejected(self, kwargs):
        with pytest.raises(InvalidGeneratorSettings) as err:
            GeneratorSettings(**kwargs)
        assert "\n" not in str(err.value)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidGeneratorSettings):
            GeneratorSettings(seed=-1)


def assert_equals_constructed(cfg):
    """Every part of an adopted random config is what its constructor would store."""
    built = MethodologyConfig(cfg.alpha, cfg.k, cfg.structure, cfg.weights, cfg.cutoffs)
    assert type(cfg.k) is float
    assert (cfg.alpha, cfg.k, cfg.score_ceiling) == (
        built.alpha,
        built.k,
        built.score_ceiling,
    )
    assert cfg.cutoffs.values.tobytes() == built.cutoffs.values.tobytes()
    assert cfg.coefficients.tobytes() == built.coefficients.tobytes()
    structure = DependenceStructure(cfg.structure.entries)
    assert cfg.structure.entries.tobytes() == structure.entries.tobytes()
    assert vars(cfg.structure).keys() == vars(structure).keys()
    assert cfg.weights.values.tobytes() == WeightVector(cfg.weights.values).values.tobytes()
    for array in (
        cfg.coefficients,
        cfg.cutoffs.values,
        cfg.structure.entries,
        cfg.weights.values,
    ):
        assert not array.flags.writeable


def bit_rows(reports):
    """Each report's row with its worst defect as ``float.hex``, so -0.0 and 0.0 differ."""
    return [
        [r.axiom, r.trials, r.violations, r.trials and r.worst_violation.hex(), r.status]
        for r in reports
    ]


def serial_rows(monkeypatch, config, settings):
    usable_cpus(monkeypatch, 1)
    return bit_rows(run_axiom_suite(config, settings))


def replace_trial(monkeypatch, axiom, wrapper):
    """Run ``wrapper(trial, rng, *args)`` in place of the axiom's trial."""
    trial = axioms._TRIALS[axiom]
    monkeypatch.setitem(axioms._TRIALS, axiom, lambda *args: wrapper(trial, *args))


class TestForkedSuite:
    """Shares folded by forked workers give the serial rows; no worker outlives the suite."""

    SETTINGS = GeneratorSettings(trials=30, seed=4)
    PINNED = MethodologyConfig(
        alpha=2.0,
        k=1.1,
        structure=DependenceStructure([[1.0, 0.6, 0.0], [0.2, 1.0, 0.9], [0.0, 0.4, 1.0]]),
        weights=[0.6, 1.0, 1.4],
        cutoffs=[2.0, 5.0, 9.0],
    )

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "config, digest",
        [
            (0.0, "79cdc3ca48a3caaaaa7193b09be5221fa9237325562bad9d131b173645cf7b14"),
            (1.0, "21cef1c9baa4a7933aa0a88369d6c1cf12efa7c0ffd95fcbf199c3bbb4a9e109"),
            (2.0, "feb7ef148c415d6c04c5d8491b6955deceef28dce194b4597aac85bae71da128"),
            ("pinned", "b7627e18893e52fcb55aa607fc14fb897bac5d9e8810795b9c1114679cebb18a"),
        ],
        ids=["alpha0", "alpha1", "alpha2", "pinned"],
    )
    def test_rows_are_pinned(self, monkeypatch, config, digest, cpus):
        # the rows at 200 trials and seed 1, as the serial suite wrote them: every
        # axiom's worst defect at three alphas, and the pinned methodology's
        config = self.PINNED if config == "pinned" else config
        usable_cpus(monkeypatch, cpus)
        rows = bit_rows(run_axiom_suite(config, GeneratorSettings(trials=200, seed=1)))
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "config, seed",
        [(alpha, seed) for alpha in (0.0, 1.0, 2.0) for seed in (0, 1, 9)] + [("pinned", 3)],
    )
    def test_equals_serial_on_every_cpu_count(self, forks, monkeypatch, config, seed):
        config = self.PINNED if config == "pinned" else config
        settings = GeneratorSettings(trials=30, seed=seed)
        want = serial_rows(monkeypatch, config, settings)
        assert forks == []
        for cpus in (2, 3):
            usable_cpus(monkeypatch, cpus)
            assert bit_rows(run_axiom_suite(config, settings)) == want
        assert len(forks) == 1 + 2
        assert_reaped(forks)

    def test_threads_running_keep_it_serial(self, forks, monkeypatch):
        want = serial_rows(monkeypatch, 1.0, self.SETTINGS)
        usable_cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            rows = bit_rows(run_axiom_suite(1.0, self.SETTINGS))
        finally:
            release.set()
            thread.join()
        assert rows == want
        assert forks == []

    @pytest.mark.parametrize("trials, forked", [(1, 0), (2, 1)])
    def test_a_share_needs_fork_trials(self, forks, monkeypatch, trials, forked):
        # 12 covered axioms at alpha 1: one share at 12 trials in all, two at 24
        monkeypatch.setattr(axioms, "_FORK_TRIALS", 12)
        settings = GeneratorSettings(trials=trials, seed=2)
        want = serial_rows(monkeypatch, 1.0, settings)
        usable_cpus(monkeypatch, 3)
        assert bit_rows(run_axiom_suite(1.0, settings)) == want
        assert len(forks) == forked
        assert_reaped(forks)

    def test_failure_only_in_a_worker_gives_the_serial_rows(self, forks, monkeypatch):
        parent = os.getpid()

        def failing(trial, *args):
            if os.getpid() != parent:
                raise RuntimeError("worker fault")
            return trial(*args)

        replace_trial(monkeypatch, "symmetry", failing)
        want = serial_rows(monkeypatch, 1.0, self.SETTINGS)
        usable_cpus(monkeypatch, 3)
        assert bit_rows(run_axiom_suite(1.0, self.SETTINGS)) == want
        assert len(forks) == 2
        assert_reaped(forks)

    @pytest.mark.parametrize("raising", [(3,), (3, 4)], ids=["worker", "worker-and-caller"])
    def test_error_is_the_serial_error(self, forks, monkeypatch, raising):
        # symmetry's trial t is at position 2 * 30 + t: odd t in the worker's share
        # of two, even t in the caller's; the serial loop reaches t = 3 first
        def failing(trial, rng, *args):
            seed, idx, t = rng.bit_generator.seed_seq.entropy
            if t in raising:
                raise ValidationError(f"trial {t} of axiom {idx} at seed {seed}")
            return trial(rng, *args)

        replace_trial(monkeypatch, "symmetry", failing)
        usable_cpus(monkeypatch, 1)
        with pytest.raises(ValidationError) as serial:
            run_axiom_suite(1.0, self.SETTINGS)
        usable_cpus(monkeypatch, 2)
        with pytest.raises(ValidationError) as forked:
            run_axiom_suite(1.0, self.SETTINGS)
        assert type(forked.value) is type(serial.value)
        assert str(forked.value) == str(serial.value) == "trial 3 of axiom 2 at seed 4"
        assert len(forks) == 1
        assert_reaped(forks)

    def test_interrupt_in_the_callers_share_reaps_every_worker(self, forks, monkeypatch):
        parent = os.getpid()

        def interrupted(trial, *args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return trial(*args)

        replace_trial(monkeypatch, "weak_transfer", interrupted)
        usable_cpus(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            run_axiom_suite(1.0, self.SETTINGS)
        assert len(forks) == 2
        assert_reaped(forks)


class TestRandomDraws:
    """A random methodology is adopted from parts derived once, not rebuilt."""

    # the keyword arguments each entry of _TRIALS passes to _draw_materials
    FLAGS = [
        {},
        {"min_n": 2},
        {"min_non_poor": 1},
        {"need_non_deprived": True},
        {"min_poor": 1, "need_material_gap": True},
        {"restricted": True},
        {"min_poor": 2},
        {"min_poor": 1, "min_n": 2},
    ]

    @pytest.mark.parametrize("flags", FLAGS, ids=lambda f: ",".join(f) or "plain")
    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_adopted_config_equals_constructed(self, flags, seed):
        settings = GeneratorSettings(seed=seed)
        for t in range(10):
            rng = np.random.default_rng([seed, t])
            assert_equals_constructed(_draw_materials(rng, None, 1.5, settings, **flags)[0])

    @pytest.mark.parametrize("flags", FLAGS, ids=lambda f: ",".join(f) or "plain")
    def test_chance_symmetry_and_uniform_weights_are_adopted_as_built(self, monkeypatch, flags):
        # at d = 2 an asymmetric draw with both off-diagonal entries zeroed is
        # symmetric by chance; it is adopted as the constructor would store it too
        drawn = []

        def recorded(draw):
            def wrapper(rng, d, **flag):  # symmetric= or uniform=
                out = draw(rng, d, **flag)
                drawn.append((draw.__name__, *flag.values(), out))
                return out

            return wrapper

        for name in ("_random_structure", "_random_weights"):
            monkeypatch.setattr(axioms, name, recorded(getattr(axioms, name)))
        settings = GeneratorSettings(d_range=(2, 2), seed=5)
        for t in range(60):
            rng = np.random.default_rng([5, t])
            assert_equals_constructed(_draw_materials(rng, None, 1.5, settings, **flags)[0])
        by_chance = [
            out
            for name, flag, out in drawn
            if name == "_random_structure"
            and not flag
            and np.array_equal(out.entries, out.entries.T)
        ]
        uniform = [out for name, flag, out in drawn if name == "_random_weights" and flag]
        assert by_chance and uniform
        assert all(np.array_equal(s.entries, np.eye(2)) for s in by_chance)
        assert all(w.values.tobytes() == np.ones(2).tobytes() for w in uniform)

    def test_each_draw_derives_constants_once(self, monkeypatch):
        calls = Counter()

        def spy(owner, name, key=None):
            target = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key or name] += 1
                return target(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        # every random draw places k once; the config's constructor would
        # derive both constants again, reading core's binding of the
        # coefficients and the bounds module's ceiling, which
        # weighted_upper_bound reads too
        spy(axioms, "_choose_k")
        for module in (axioms, bounds):
            spy(module, "_ceiling")
        for module in (axioms, core):
            spy(module, "_coefficient_values")
        # and no part of a random config is checked again
        for cls in (MethodologyConfig, DependenceStructure, WeightVector):
            spy(cls, "__post_init__", cls.__name__)
        run_axiom_suite(1.0, GeneratorSettings(trials=5, seed=1))
        draws = calls["_choose_k"]
        assert draws >= len(AXIOMS) * 5
        assert calls["_ceiling"] == draws
        assert calls["_coefficient_values"] == draws
        assert calls["MethodologyConfig"] == 0
        assert calls["DependenceStructure"] == 0
        assert calls["WeightVector"] == 0

    # counts are 0 or sums of positive weights and a ceiling is such a sum,
    # so neither is subnormal; any other finite size is fair
    POSITIVE = st.floats(0.0, 1e300, exclude_min=True, allow_subnormal=False)

    @given(
        counts=st.lists(st.just(0.0) | POSITIVE, min_size=1, max_size=30),
        ceiling=POSITIVE,
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_choose_k_is_none_or_within_ceiling(self, counts, ceiling, data, seed):
        # the fact that lets a random config be adopted without the k check,
        # and a Python float, as the constructor would store it
        n = len(counts)
        min_poor = data.draw(st.integers(0, n))
        min_non_poor = data.draw(st.integers(0, n - min_poor))
        rng = np.random.default_rng(seed)
        k = _choose_k(rng, np.array(counts), ceiling, min_poor, min_non_poor)
        assert k is None or (type(k) is float and 0.0 < k <= ceiling)

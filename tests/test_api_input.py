"""Raw input at the public API: every malformed argument ends in a NetpovertyError.

The probe table pins the error class and the one-line message shape for
inputs that used to escape as a Python error or be silently
reinterpreted (a 2-D cutoff vector flattened, 1.7 read as dimension 1,
a NaN count read as not poor).  The fuzz test starts from one valid call
to each public callable that takes numbers, arrays, indices, statuses or
labels, and replaces one argument at a time with junk.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

import netpoverty as npv
from netpoverty.config import ConfigDocument
from netpoverty.deprivation import _PARALLEL_CELLS
from netpoverty.errors import (
    CutoffOutOfRange,
    EntryOutOfRange,
    IndexOutOfRange,
    InvalidAlpha,
    InvalidGeneratorSettings,
    NegativeAchievement,
    NetpovertyError,
    NonPositiveAmount,
    NotBistochastic,
    ShapeMismatch,
    SumNotD,
    ValidationError,
)

S = np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.3], [0.0, 0.4, 1.0]])
Z = [10.0, 10.0, 10.0]
# persons 1 and 3 are poor at k = 1, person 2 is not
Y = [[1.0, 12.0, 3.0], [11.0, 12.0, 13.0], [2.0, 2.0, 2.0]]
CFG = npv.MethodologyConfig(1.0, 1.0, S, None, Z)
STATUSES = npv.identify(npv.deprivation_counts(Y, Z, S), 1.0)
REPORT = npv.run_report(npv.Dataset(npv.AchievementMatrix(Y), ("a", "b", "c")), CFG)
# d = 2, identity structure, uniform weights: the ceiling is 2
REPORT2 = npv.run_report(
    npv.Dataset(npv.AchievementMatrix([[5.0, 10.0]]), ("a", "b")),
    npv.MethodologyConfig(1.0, 1.0, np.eye(2), None, [10.0, 10.0]),
)
Y2 = [[1.0, 12.0], [11.0, 2.0]]


def one_record(report, **record):
    """``report`` with ``record`` as its only person."""
    return dict(report, per_person=[record])


PROBES = {
    # errors that used to escape as ValueError or TypeError
    "connections-of-str": (lambda: npv.connections_of(S, "x"), IndexOutOfRange),
    "settings-trials-str": (lambda: npv.GeneratorSettings(trials="x"), InvalidGeneratorSettings),
    "connections-of-none": (lambda: npv.connections_of(S, None), IndexOutOfRange),
    "fgt-str-achievements": (
        lambda: npv.fgt_network_adjusted([["a", "b", "c"]], Z, S, None, 1.0, 1.0),
        ShapeMismatch,
    ),
    "structure-str": (
        lambda: npv.validate_dependence_structure([["a", "b"], ["c", "d"]]),
        ShapeMismatch,
    ),
    "weights-ragged": (lambda: npv.validate_weights([[1], [1, 1]], 2), ShapeMismatch),
    # input that used to be silently reinterpreted
    "connections-of-float": (lambda: npv.connections_of(S, 1.7), IndexOutOfRange),
    "settings-trials-float": (lambda: npv.GeneratorSettings(trials=2.5), InvalidGeneratorSettings),
    "identify-matrix": (lambda: npv.identify([[1, 2], [3, 4]], 1), ShapeMismatch),
    "identify-nan": (lambda: npv.identify([math.nan], 1), ValidationError),
    # statuses must be 0 or 1, one person per entry
    "headcount-matrix": (lambda: npv.headcount_ratio([[1, 0], [0, 1]]), ShapeMismatch),
    "headcount-not-binary": (lambda: npv.headcount_ratio([2, 3]), ValidationError),
    "headcount-scalar": (lambda: npv.headcount_ratio(5), ShapeMismatch),
    "status-vector-not-binary": (
        lambda: npv.PovertyStatusVector([0.5, 1.7], 1),
        ValidationError,
    ),
    # a vector argument given as a matrix is rejected, not flattened
    "cutoffs-2d": (lambda: npv.CutoffVector([[1, 2], [3, 4]]), ShapeMismatch),
    "weights-2d": (lambda: npv.WeightVector([[1, 1], [1, 1]]), ShapeMismatch),
    "validate-weights-2d": (lambda: npv.validate_weights([[1, 1]], 2), ShapeMismatch),
    "settings-range-none": (
        lambda: npv.GeneratorSettings(n_range=None),
        InvalidGeneratorSettings,
    ),
    "settings-range-float": (
        lambda: npv.GeneratorSettings(d_range=(2, 3.5)),
        InvalidGeneratorSettings,
    ),
    # apply_rearrangement checks the statuses' length and its swap set
    "rearrangement-short-statuses": (
        lambda: npv.apply_rearrangement(Y, 1, 3, [1], [1, 0]),
        ShapeMismatch,
    ),
    "rearrangement-swap-none": (
        lambda: npv.apply_rearrangement(Y, 1, 3, None, STATUSES),
        IndexOutOfRange,
    ),
    # a dimension count goes through the same integer check as an index
    "identity-str": (lambda: npv.DependenceStructure.identity("x"), ShapeMismatch),
    "complete-negative": (lambda: npv.DependenceStructure.complete(-2), ShapeMismatch),
    "uniform-float": (lambda: npv.WeightVector.uniform(2.0), ShapeMismatch),
    # a cast to float would drop the imaginary part
    "cutoffs-complex": (lambda: npv.CutoffVector(np.array([10 + 1j, 10])), ShapeMismatch),
    # numbers given as text are refused, not parsed: float() reads numerals
    # the dataset format rejects, such as "1_0" and Arabic-Indic digits
    "cutoffs-underscore": (lambda: npv.CutoffVector(["1_0", "20"]), ShapeMismatch),
    "cutoffs-arabic-indic": (lambda: npv.CutoffVector(["١٠", "20"]), ShapeMismatch),
    "cutoffs-bytes": (lambda: npv.CutoffVector(np.array([b"10", b"20"])), ShapeMismatch),
    "cutoffs-object-str": (
        lambda: npv.CutoffVector(np.array(["10", 20.0], dtype=object)),
        ShapeMismatch,
    ),
    "weights-str": (lambda: npv.WeightVector(["1", "1"]), ShapeMismatch),
    "validate-weights-str": (lambda: npv.validate_weights(["1.5", "1.5"], 2), ShapeMismatch),
    "structure-numeric-str": (
        lambda: npv.validate_dependence_structure([["1", "0.5"], ["0", "1"]]),
        ShapeMismatch,
    ),
    "structure-object-str": (
        lambda: npv.DependenceStructure(np.array([[1.0, "0.5"], [0.0, 1.0]], dtype=object)),
        ShapeMismatch,
    ),
    "fgt-str-alpha": (
        lambda: npv.fgt_network_adjusted(Y, Z, S, None, "1", 1.0),
        InvalidAlpha,
    ),
    "fgt-str-k": (lambda: npv.fgt_network_adjusted(Y, Z, S, None, 1.0, "1"), CutoffOutOfRange),
    "config-str-alpha": (lambda: npv.MethodologyConfig("1", 1.0, S, None, Z), InvalidAlpha),
    "config-str-k": (lambda: npv.MethodologyConfig(1.0, "1", S, None, Z), CutoffOutOfRange),
    "increment-str-amount": (
        lambda: npv.apply_simple_increment(Y, 1, 1, "0.5", CFG),
        NonPositiveAmount,
    ),
    # a person id per person, as text, so reports list every person
    "dataset-short-ids": (
        lambda: npv.Dataset(npv.AchievementMatrix(Y), ("a", "b", "c"), ("p1",)),
        ShapeMismatch,
    ),
    "dataset-int-ids": (
        lambda: npv.Dataset(npv.AchievementMatrix(Y), ("a", "b", "c"), (1, 2, 3)),
        ShapeMismatch,
    ),
    # d distinct dimension names as text; raw achievements checked as AchievementMatrix does
    "dataset-short-names": (
        lambda: npv.Dataset(npv.AchievementMatrix(np.zeros((2, 3))), ("a",)),
        ShapeMismatch,
    ),
    "dataset-duplicate-names": (
        lambda: npv.Dataset(npv.AchievementMatrix(Y), ("a", "a", "b")),
        ValidationError,
    ),
    "dataset-int-names": (
        lambda: npv.Dataset(npv.AchievementMatrix(Y), (1, 2, 3)),
        ShapeMismatch,
    ),
    "dataset-raw-negative-achievements": (
        lambda: npv.Dataset(np.array([[1.0, -2.0, 3.0]]), ("a", "b", "c")),
        NegativeAchievement,
    ),
    # a report missing what recompute_fgt_value reads
    "recompute-empty": (lambda: npv.recompute_fgt_value({}), ValidationError),
    "recompute-not-dict": (lambda: npv.recompute_fgt_value([1, 2]), ValidationError),
    "recompute-no-per-person": (
        lambda: npv.recompute_fgt_value({"config": REPORT["config"]}),
        ValidationError,
    ),
    "recompute-no-scores": (
        lambda: npv.recompute_fgt_value(dict(REPORT, per_person=[{"poor": 1}])),
        ValidationError,
    ),
    "recompute-no-poor": (
        lambda: npv.recompute_fgt_value(dict(REPORT, per_person=[{"scores": [1.0]}])),
        ValidationError,
    ),
    "recompute-str-scores": (
        lambda: npv.recompute_fgt_value(
            dict(REPORT, per_person=[{"poor": 1, "scores": ["a"]}])
        ),
        ValidationError,
    ),
    "recompute-nan-score": (
        lambda: npv.recompute_fgt_value(
            dict(REPORT, per_person=[{"poor": 1, "scores": [math.nan, 0.0]}])
        ),
        ValidationError,
    ),
    "recompute-overflowing-scores": (
        lambda: npv.recompute_fgt_value(
            dict(REPORT, per_person=[{"poor": 1, "scores": [1e308, 1e308]}])
        ),
        ValidationError,
    ),
    "recompute-poor-2": (
        lambda: npv.recompute_fgt_value(
            dict(REPORT, per_person=[{"poor": 2, "scores": [0.5, 0.0]}])
        ),
        ValidationError,
    ),
    # a JSON boolean is not a number, and every record holds d scores, poor or not
    "recompute-bool-score": (
        lambda: npv.recompute_fgt_value(one_record(REPORT2, poor=1, scores=[True, 0.0])),
        ValidationError,
    ),
    "recompute-bool-poor": (
        lambda: npv.recompute_fgt_value(one_record(REPORT2, poor=True, scores=[0.5, 0.0])),
        ValidationError,
    ),
    "recompute-short-scores": (
        lambda: npv.recompute_fgt_value(one_record(REPORT2, poor=1, scores=[0.5])),
        ValidationError,
    ),
    "recompute-long-scores": (
        lambda: npv.recompute_fgt_value(one_record(REPORT2, poor=1, scores=[0.5, 0.1, 9.0])),
        ValidationError,
    ),
    "recompute-non-poor-junk-scores": (
        lambda: npv.recompute_fgt_value(one_record(REPORT2, poor=0, scores="junk")),
        ValidationError,
    ),
    "recompute-d-nan-score": (
        lambda: npv.recompute_fgt_value(one_record(REPORT2, poor=1, scores=[math.nan, 0.0])),
        ValidationError,
    ),
    "recompute-d-overflowing-scores": (
        lambda: npv.recompute_fgt_value(one_record(REPORT2, poor=1, scores=[1e308, 1e308])),
        ValidationError,
    ),
    "recompute-no-persons": (
        lambda: npv.recompute_fgt_value(dict(REPORT, per_person=[])),
        ValidationError,
    ),
    # a ceiling k is checked against is a positive real
    "identify-upper-nan": (lambda: npv.identify([1.0, 2.0], 1.5, math.nan), CutoffOutOfRange),
    "identify-upper-inf": (lambda: npv.identify([1.0, 2.0], 1.5, math.inf), CutoffOutOfRange),
    "identify-upper-0": (lambda: npv.identify([1.0, 2.0], 1.5, 0), CutoffOutOfRange),
    "identify-upper-negative": (lambda: npv.identify([1.0, 2.0], 1.5, -1.0), CutoffOutOfRange),
    # achievements of d = 2 against a methodology of d = 3
    "counts-d-mismatch": (lambda: npv.deprivation_counts(Y2, Z, S), ShapeMismatch),
    "matrix-d-mismatch": (lambda: npv.deprivation_matrix(Y2, Z, S, 1.0), ShapeMismatch),
    "gap-matrix-d-mismatch": (lambda: npv.gap_matrix(Y2, Z, 1.0), ShapeMismatch),
    "increment-d-mismatch": (
        lambda: npv.apply_simple_increment(Y2, 1, 1, 0.5, CFG),
        ShapeMismatch,
    ),
    "structure-nan": (
        lambda: npv.DependenceStructure([[1, math.nan], [0, 1]]),
        EntryOutOfRange,
    ),
    "weights-empty": (lambda: npv.WeightVector([]), ShapeMismatch),
    # positive, finite weights whose sum passes the largest double
    "weights-sum-overflows": (lambda: npv.validate_weights([1e308, 1e308], 2), SumNotD),
    "settings-range-reversed": (
        lambda: npv.GeneratorSettings(n_range=(3, 2)),
        InvalidGeneratorSettings,
    ),
    # the sizes are drawn as int64
    "settings-n-range-past-int64": (
        lambda: npv.GeneratorSettings(n_range=(2, 2**63)),
        InvalidGeneratorSettings,
    ),
    "settings-d-range-past-int64": (
        lambda: npv.GeneratorSettings(d_range=(2, 2**63)),
        InvalidGeneratorSettings,
    ),
    # a pair axiom draws two persons at least
    "suite-one-person": (
        lambda: npv.run_axiom_suite(1.0, npv.GeneratorSettings(trials=1, n_range=(1, 1))),
        InvalidGeneratorSettings,
    ),
    "bistochastic-columns": (
        lambda: npv.apply_bistochastic_average(Y, [[0.5, 0.5, 0.0]] * 3, [1, 0, 1]),
        NotBistochastic,
    ),
    # a boolean is not a number: float() and operator.index() would read True as 1
    "fgt-bool-alpha": (
        lambda: npv.fgt_network_adjusted([[0, 0], [3, 3]], [1, 1], np.eye(2), None, True, 1.0),
        InvalidAlpha,
    ),
    "fgt-numpy-bool-k": (
        lambda: npv.fgt_network_adjusted([[0, 0], [3, 3]], [1, 1], np.eye(2), None, 1.0, np.True_),
        CutoffOutOfRange,
    ),
    "identify-bool-upper": (lambda: npv.identify([1.0, 0.0], 0.5, upper=True), CutoffOutOfRange),
    "connections-of-bool": (lambda: npv.connections_of(np.eye(2), True), IndexOutOfRange),
    "increment-bool-person": (
        lambda: npv.apply_simple_increment(Y, True, 1, 0.5, CFG),
        IndexOutOfRange,
    ),
    "increment-bool-amount": (
        lambda: npv.apply_simple_increment(Y, 1, 1, True, CFG),
        NonPositiveAmount,
    ),
    "settings-trials-bool": (
        lambda: npv.GeneratorSettings(trials=True),
        InvalidGeneratorSettings,
    ),
}

# the raise each of these probes reaches, by its message
PROBE_MESSAGES = {
    "recompute-bool-score": "per_person[0] scores must be an array of 2 numbers",
    "recompute-bool-poor": "per_person[0] poor must be 0 or 1, got True",
    "recompute-short-scores": "per_person[0] scores must be an array of 2 numbers",
    "recompute-long-scores": "per_person[0] scores must be an array of 2 numbers",
    "recompute-non-poor-junk-scores": "per_person[0] scores must be an array of 2 numbers",
    "recompute-d-nan-score": "per_person[0] scores must be numbers with a finite sum",
    "recompute-d-overflowing-scores": "per_person[0] scores must be numbers with a finite sum",
    "recompute-no-persons": "per_person must be a nonempty array",
    "identify-upper-nan": "upper = nan must be a positive real",
    "identify-upper-inf": "upper = inf must be a positive real",
    "identify-upper-0": "upper = 0.0 must be a positive real",
    "identify-upper-negative": "upper = -1.0 must be a positive real",
    "counts-d-mismatch": "inconsistent dimensions: achievements 2, cutoffs 3, structure 3",
    "matrix-d-mismatch": "inconsistent dimensions: achievements 2, cutoffs 3, structure 3",
    "gap-matrix-d-mismatch": "achievements have d = 2, cutoffs have d = 3",
    "increment-d-mismatch": "achievements have d = 2, config has d = 3",
    "structure-nan": "dependence entries must be finite",
    "weights-empty": "weight vector is empty",
    "weights-sum-overflows": "weights sum to inf, expected 2",
    "settings-range-reversed": "bad n_range (3, 2)",
    "settings-n-range-past-int64": "bad n_range (2, 9223372036854775808)",
    "settings-d-range-past-int64": "bad d_range (2, 9223372036854775808)",
    "suite-one-person": "n_range (1, 1) cannot host 2 persons",
    "bistochastic-columns": "column sums differ from 1",
    "fgt-bool-alpha": "alpha must be a real number, got bool",
    "fgt-numpy-bool-k": "k must be a real number, got bool",
    "identify-bool-upper": "upper must be a real number, got bool",
    "connections-of-bool": "dimension index must be an integer, got bool",
    "increment-bool-person": "person index must be an integer, got bool",
    "increment-bool-amount": "amount must be a real number, got bool",
    "settings-trials-bool": "each generator setting must be an integer, got bool",
    "dataset-short-names": "dimension_names must be 3 strings, one per dimension",
    "dataset-duplicate-names": "duplicate dimension name 'a'",
    "dataset-int-names": "dimension_names must be 3 strings, one per dimension",
    "dataset-raw-negative-achievements": "achievement (1, 2) = -2.0 is negative",
}


@pytest.mark.parametrize("call, error", PROBES.values(), ids=PROBES.keys())
def test_probe_rejected(call, error):
    with pytest.raises(NetpovertyError) as info:
        call()
    assert type(info.value) is error
    message = str(info.value)
    assert message and "\n" not in message


@pytest.mark.parametrize("name, text", PROBE_MESSAGES.items(), ids=PROBE_MESSAGES.keys())
def test_probe_reaches_its_raise(name, text):
    with pytest.raises(NetpovertyError) as info:
        PROBES[name][0]()
    assert text in str(info.value)


def valid_calls(config_path: Path) -> dict:
    """One valid call per public callable whose arguments can be junk."""
    doc = ConfigDocument(CFG.cutoffs, CFG.structure, CFG.weights, 1.0, "absolute", 1.0)
    suite = npv.GeneratorSettings(trials=1, n_range=(2, 6), d_range=(2, 3))
    return {
        "AchievementMatrix": (npv.AchievementMatrix, [Y]),
        "AxiomReport": (npv.AxiomReport, ["symmetry", 1.0, 1, 0, 0.0, 0, "pass"]),
        "BoundsSummary": (npv.BoundsSummary, [2.0, 1.0, 2.0, [1.0, 1.0], 2.0, [1.0, 1.0]]),
        "CutoffVector": (npv.CutoffVector, [Z]),
        "DependenceStructure": (npv.DependenceStructure, [S]),
        "DeprivationCounts": (npv.DeprivationCounts, [[1.0, 2.0]]),
        "DeprivationMatrix": (npv.DeprivationMatrix, [1.0, False, [[0.5, 0.0]]]),
        "FgtResult": (npv.FgtResult, [0.5, 1.0, 1.0, 3.0, "0" * 64, "naive"]),
        "GapMatrix": (npv.GapMatrix, [1.0, [[0.5, 0.0]]]),
        "GeneratorSettings": (npv.GeneratorSettings, [1, (2, 5), (2, 3), 0]),
        "MethodologyConfig": (npv.MethodologyConfig, [1.0, 1.0, S, None, Z]),
        "PovertyStatusVector": (npv.PovertyStatusVector, [[0, 1], 1.0]),
        "SymmetricConsistencyReport": (npv.SymmetricConsistencyReport, [2.0, 2.0, True]),
        "WeightVector": (npv.WeightVector, [[1.0, 1.0, 1.0]]),
        "aggregation_coefficients": (npv.aggregation_coefficients, [S, None]),
        "apply_bistochastic_average": (npv.apply_bistochastic_average, [Y, np.eye(3), STATUSES]),
        "apply_rearrangement": (npv.apply_rearrangement, [Y, 1, 3, [1], [1, 0, 1]]),
        "apply_simple_increment": (npv.apply_simple_increment, [Y, 1, 1, 0.5, CFG]),
        "attainable_scores": (npv.attainable_scores, [S, None]),
        "axiom_covered": (npv.axiom_covered, ["monotonicity", 1.0]),
        "bounds_summary": (npv.bounds_summary, [S, None]),
        "check_symmetric_consistency": (npv.check_symmetric_consistency, [S, None]),
        "connections_of": (npv.connections_of, [S, 1]),
        "decompose_by_group": (npv.decompose_by_group, [Y, [0, 1, 0], CFG]),
        "deprivation_counts": (npv.deprivation_counts, [Y, Z, S, None]),
        "deprivation_matrix": (npv.deprivation_matrix, [Y, Z, S, 1.0, None]),
        "fgt_naive": (npv.fgt_naive, [Y, Z, S, 1.0, 1.0]),
        "fgt_network_adjusted": (npv.fgt_network_adjusted, [Y, Z, S, None, 1.0, 1.0]),
        "fgt_via_coefficients": (npv.fgt_via_coefficients, [Y, Z, S, None, 1.0, 1.0]),
        "gap_matrix": (npv.gap_matrix, [Y, Z, 1.0]),
        "headcount_ratio": (npv.headcount_ratio, [[0, 1]]),
        "identify": (npv.identify, [[1.0, 2.0], 1.5, 3.0]),
        "implied_weights": (npv.implied_weights, [np.eye(3)]),
        "is_disconnected": (npv.is_disconnected, [S]),
        "load_config": (npv.load_config, [config_path, 1.0, None, 0.5]),
        "resolve_methodology": (npv.resolve_methodology, [doc, 1.0, None, 0.5]),
        "run_axiom_suite": (npv.run_axiom_suite, [1.0, suite]),
        "upper_bound": (npv.upper_bound, [S]),
        "validate_dependence_structure": (npv.validate_dependence_structure, [S]),
        "validate_weights": (npv.validate_weights, [[1.0, 1.0, 1.0], 3]),
        "weighted_upper_bound": (npv.weighted_upper_bound, [S, None]),
    }


#: public callables left out of the table: they take files, reports or
#: package objects only, and none of those is a number, array or label
NOT_FUZZED = {
    "ConfigDocument",
    "Dataset",
    "DecompositionResult",
    "ImpliedWeights",
    "load_config_document",
    "load_dataset",
    "recompute_fgt_value",
    "run_report",
}

#: arguments typed as a package object or a path keep their valid value
FIXED = (npv.MethodologyConfig, npv.GeneratorSettings, ConfigDocument, Path)

JUNK = st.one_of(
    st.text(max_size=3),
    st.none(),
    st.sampled_from(
        [
            math.nan,
            1.7,
            [],
            10**400,
            {},
            [[1.0, 2.0], [3.0]],
            [["a", "b"]],
            [[1.0, 2.0], [3.0, 4.0]],
            [[[1.0]]],
            np.ones((2, 2)),
        ]
    ),
    st.recursive(
        st.none() | st.floats() | st.text(max_size=2),
        lambda inner: st.lists(inner, max_size=3),
        max_leaves=6,
    ),
)


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps({"cutoffs": Z, "dependence": S.tolist()}), encoding="utf-8")
    return valid_calls(path)


def test_table_covers_the_public_api(calls):
    public = {name for name in npv.__all__ if callable(getattr(npv, name))}
    assert set(calls) | NOT_FUZZED == public
    assert not set(calls) & NOT_FUZZED
    for fn, args in calls.values():
        fn(*args)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_junk_argument_raises_package_error(calls, data):
    name = data.draw(st.sampled_from(sorted(calls)), label="callable")
    fn, args = calls[name]
    free = [i for i, arg in enumerate(args) if not isinstance(arg, FIXED)]
    position = data.draw(st.sampled_from(free), label="position")
    args = list(args)
    args[position] = data.draw(JUNK, label="junk")
    try:
        fn(*args)
    except NetpovertyError as exc:
        assert "\n" not in str(exc)


# every kernel that reads a raw achievement array in place, on cutoffs z and structure s
KERNELS = {
    "network-adjusted": lambda y, z, s: npv.fgt_network_adjusted(y, z, s, None, 1.0, 1.0),
    "naive": lambda y, z, s: npv.fgt_naive(y, z, s, 1.0, 1.0),
    "via-coefficients": lambda y, z, s: npv.fgt_via_coefficients(y, z, s, None, 1.0, 1.0),
    "counts": lambda y, z, s: npv.deprivation_counts(y, z, s),
    "scores": lambda y, z, s: npv.deprivation_matrix(y, z, s, 1.0),
    "groups": lambda y, z, s: npv.decompose_by_group(
        y, [i % 3 for i in range(len(y))], npv.MethodologyConfig(1.0, 1.0, s, None, z)
    ),
}

BAD_ACHIEVEMENTS = {
    "nan": [[1.0, 2.0, 3.0], [4.0, 5.0, math.nan]],
    "inf": [[1.0, math.inf, 3.0]],
    "minus-inf": [[1.0, 2.0, 3.0], [-math.inf, 5.0, 6.0]],
    "negative": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, -0.5, 9.0]],
    "nan-after-negative": [[1.0, -2.0, 3.0], [4.0, 5.0, math.nan]],
    "empty": np.empty((0, 3)),
    "one-d": [1.0, 2.0, 3.0],
    "complex": np.array(Y) + 1j,
    "string": [["a", "b", "c"]],
    "numeric-strings": [["1_0", "2", "3"]],
    "arabic-indic": [["١", "٢", "٣"]],
    "bytes": np.array([[b"1", b"2", b"3"]]),
    "object-strings": np.array([[1.0, "2", 3.0]], dtype=object),
}


def kernel_bits(result):
    """The arrays' bytes, or the repr that spells every float exactly."""
    values = getattr(result, "values", None)
    return values.tobytes() if isinstance(values, np.ndarray) else repr(result)


@pytest.mark.parametrize("raw", BAD_ACHIEVEMENTS.values(), ids=BAD_ACHIEVEMENTS.keys())
@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_raw_achievements_rejected_as_the_matrix_rejects_them(kernel, raw):
    with pytest.raises(NetpovertyError) as want:
        npv.AchievementMatrix(raw)
    with pytest.raises(NetpovertyError) as got:
        kernel(raw, Z, S)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert (got.value.row, got.value.column) == (want.value.row, want.value.column)


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_raw_achievements_read_in_place(kernel, monkeypatch):
    # n * d past the parallel threshold, so the threads share the blocks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    from conftest import random_structure

    rng = np.random.default_rng(5)
    # d past numpy's 8-way unrolled row sums, whose order a Fortran layout would change
    n, d = 12_000, 12
    assert n * d >= _PARALLEL_CELLS
    z, s = rng.uniform(5.0, 15.0, d), random_structure(rng, d)
    ints = rng.integers(0, 20, (n, d))
    floats = ints.astype(float)
    want = kernel_bits(kernel(floats.copy(), z, s))
    read_only = floats.copy()
    read_only.flags.writeable = False
    strided = np.zeros((2 * n, 2 * d))
    strided[::2, ::2] = floats
    layouts = {
        "C": floats,
        "int": ints,
        "read-only": read_only,
        "Fortran": np.asfortranarray(floats),
        "strided": strided[::2, ::2],
    }
    for name, raw in layouts.items():
        before = raw.copy()
        writeable = raw.flags.writeable
        assert kernel_bits(kernel(raw, z, s)) == want, name
        assert raw.tobytes() == before.tobytes() and raw.dtype == before.dtype, name
        assert raw.flags.writeable == writeable, name


def test_non_finite_named_before_negative():
    with pytest.raises(NegativeAchievement, match="must be finite") as got:
        npv.AchievementMatrix(BAD_ACHIEVEMENTS["nan-after-negative"])
    assert (got.value.row, got.value.column) == (None, None)


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_negative_zero_achievement_accepted(kernel):
    minus_zero = np.array(Y)
    minus_zero[0, 1] = minus_zero[2, 2] = -0.0
    plus_zero = np.abs(minus_zero)
    assert kernel_bits(kernel(minus_zero, Z, S)) == kernel_bits(kernel(plus_zero, Z, S))


def test_checking_raw_achievements_allocates_no_n_by_d_mask():
    import tracemalloc

    from netpoverty.core import _achievement_values

    n, d = 50_000, 20
    y = np.random.default_rng(3).uniform(0.0, 20.0, (n, d))
    _achievement_values(y)
    tracemalloc.start()
    try:
        assert _achievement_values(y) is y
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * d / 4


def test_matrix_payload_is_a_frozen_copy():
    raw = np.array(Y)
    matrix = npv.AchievementMatrix(raw)
    assert not np.shares_memory(matrix.values, raw)
    assert not matrix.values.flags.writeable and raw.flags.writeable


def _from_bits(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


class TestOneScanCheckBoundaries:
    """Raw achievements at the bit boundaries of the finite, nonnegative range.

    The check reads the cells' bits as unsigned integers: +0.0 up to the largest
    finite double lie below +inf's pattern, and -0.0, the negatives, the
    infinities and the nans lie above it.
    """

    # each accepted value, and one below the cutoff 10 or at it that gives the same gaps
    ACCEPTED = {
        "plus-zero": (0.0, 0.0),
        "minus-zero": (-0.0, 0.0),
        "least-subnormal": (5e-324, 0.0),  # 10 - 5e-324 rounds to 10
        "largest-finite": (1.7976931348623157e308, 10.0),
    }
    NEGATIVE = {"minus-least-subnormal": -5e-324, "minus-one": -1.0}
    NON_FINITE = {
        "plus-inf": math.inf,
        "minus-inf": -math.inf,
        "nan": math.nan,
        "sign-bit-nan": _from_bits(0xFFF8000000000000),
        "least-nan-pattern": _from_bits(0x7FF0000000000001),  # +inf's pattern plus one
    }
    CALLS = {
        "matrix": npv.AchievementMatrix,
        "network-adjusted": lambda y: npv.fgt_network_adjusted(y, Z, S, None, 1.0, 1.0),
        "gap-matrix": lambda y: npv.gap_matrix(y, Z, 1.0),
    }
    CELLS = [(1, 1), (2, 3), (3, 3)]

    @staticmethod
    def with_cell(value, row, column):
        y = np.array(Y)
        y[row - 1, column - 1] = value
        return y

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("value, same", ACCEPTED.values(), ids=ACCEPTED.keys())
    def test_accepted(self, value, same, cell):
        y, y_same = self.with_cell(value, *cell), self.with_cell(same, *cell)
        assert npv.AchievementMatrix(y).values.tobytes() == y.tobytes()
        gaps = npv.gap_matrix(y, Z, 1.0).values
        assert gaps.tobytes() == npv.gap_matrix(y_same, Z, 1.0).values.tobytes()
        assert gaps[cell[0] - 1, cell[1] - 1] == oracles.gap(value, 10.0, 1.0)
        got = npv.fgt_network_adjusted(y, Z, S, None, 1.0, 1.0)
        want = npv.fgt_network_adjusted(y_same, Z, S, None, 1.0, 1.0)
        assert (got.value, got.censored_matrix_hash) == (want.value, want.censored_matrix_hash)

    @pytest.mark.parametrize("fill", [0.0, -0.0, 1.7976931348623157e308])
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_every_cell_at_a_boundary_accepted(self, call, fill):
        call(np.full((4, 3), fill))

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("value", NEGATIVE.values(), ids=NEGATIVE.keys())
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_negative_rejected_and_named(self, call, value, cell):
        y = self.with_cell(value, *cell)
        y[0, 1] = -0.0  # passes the ordered check, so is never named
        with pytest.raises(NegativeAchievement) as got:
            call(y)
        assert str(got.value) == f"achievement ({cell[0]}, {cell[1]}) = {value!r} is negative"
        assert (got.value.row, got.value.column) == cell

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_non_finite_rejected(self, call, value, cell):
        with pytest.raises(NegativeAchievement) as got:
            call(self.with_cell(value, *cell))
        assert str(got.value) == "achievements must be finite"
        assert (got.value.row, got.value.column) == (None, None)

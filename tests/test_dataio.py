import csv
import inspect
import json
import math
import os
import struct
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from conftest import assert_reaped, usable_cpus
from hypothesis import given, settings, strategies as st

import netpoverty
from netpoverty import (
    AchievementMatrix,
    Dataset,
    MethodologyConfig,
    bounds_summary,
    deprivation_counts,
    deprivation_matrix,
    fgt_network_adjusted,
    headcount_ratio,
    identify,
    load_config,
    load_config_document,
    load_dataset,
    recompute_fgt_value,
    resolve_methodology,
    run_report,
    weighted_upper_bound,
)
from netpoverty import dataio
from netpoverty.aggregation import _aggregate
from netpoverty.config import _numbers, config_echo
from netpoverty.dataio import (
    _CHUNK_PERSONS,
    _InDoubt,
    _float_fields,
    _json_floats,
    _numeral,
    _read_bulk,
    _read_checked,
    _report_text,
    _round12,
    render_report,
    stream_report,
    write_text,
)
from netpoverty.errors import (
    CutoffOutOfRange,
    EmptyDataset,
    MissingField,
    NegativeAchievement,
    NetpovertyError,
    ParseError,
    RaggedRow,
    ShapeMismatch,
    ValidationError,
    WriteError,
)

WORKED_CONFIG = {
    "cutoffs": [10.0, 10.0],
    "alpha": 1.0,
    "k": 1.0,
    "dependence": [[1.0, 0.5], [0.0, 1.0]],
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def worked_files(tmp_path):
    data = write(tmp_path, "data.csv", "health,education\n5,10\n10,10\n")
    config = write(tmp_path, "config.json", json.dumps(WORKED_CONFIG))
    return data, config


class TestLoadDataset:
    def test_two_by_two(self, tmp_path):
        ds = load_dataset(write(tmp_path, "d.csv", "h,e\n5,10\n10,10\n"))
        assert ds.n == 2 and ds.d == 2
        assert ds.dimension_names == ("h", "e")
        assert ds.person_ids is None
        assert ds.ids() == (1, 2)
        assert np.array_equal(ds.achievements.values, [[5.0, 10.0], [10.0, 10.0]])

    def test_id_column(self, tmp_path):
        ds = load_dataset(write(tmp_path, "d.csv", "id,h,e\nalice,5,10\nbob,10,10\n"))
        assert ds.d == 2
        assert ds.person_ids == ("alice", "bob")

    def test_negative_achievement_located(self, tmp_path):
        with pytest.raises(NegativeAchievement) as info:
            load_dataset(write(tmp_path, "d.csv", "h,e\n5,10\n10,-3\n"))
        assert info.value.row == 2 and info.value.column == 2

    def test_ragged_row_located(self, tmp_path):
        with pytest.raises(RaggedRow) as info:
            load_dataset(write(tmp_path, "d.csv", "h,e\n5,10,7\n"))
        assert info.value.row == 1

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(ParseError) as info:
            load_dataset(write(tmp_path, "d.csv", "h,e\n5,x\n"))
        assert info.value.row == 1 and info.value.column == 2

    def test_missing_cell_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_dataset(write(tmp_path, "d.csv", "h,e\n5,\n"))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_dataset(write(tmp_path, "d.csv", "h,e\n5,inf\n"))

    def test_byte_order_mark_does_not_hide_id_header(self, tmp_path):
        ds = load_dataset(write(tmp_path, "d.csv", "\ufeffid,h,e\np1,5,10\n"))
        assert ds.person_ids == ("p1",)
        assert ds.dimension_names == ("h", "e")

    def test_digit_separator_rejected(self, tmp_path):
        with pytest.raises(ParseError) as info:
            load_dataset(write(tmp_path, "d.csv", "h,e\n5,10\n7,1_000\n"))
        assert info.value.row == 2 and info.value.column == 2

    def test_duplicate_dimension_names_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate dimension name 'h'"):
            load_dataset(write(tmp_path, "d.csv", "id,h,e,h\np1,5,10,7\n"))

    def test_duplicate_person_ids_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate person id 'p1'"):
            load_dataset(write(tmp_path, "d.csv", "id,h,e\np1,5,10\np2,1,1\np1,6,10\n"))

    def test_header_only_is_empty(self, tmp_path):
        with pytest.raises(EmptyDataset):
            load_dataset(write(tmp_path, "d.csv", "h,e\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyDataset):
            load_dataset(write(tmp_path, "d.csv", ""))

    def test_peak_memory_is_a_small_multiple_of_the_array(self, tmp_path):
        n, d = 20_000, 5
        values = np.random.default_rng(3).uniform(0, 100, (n, d))
        lines = [",".join(f"dim{j}" for j in range(d))]
        lines += [",".join(map(repr, row)) for row in values.tolist()]
        path = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            ds = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(ds.achievements.values, values)
        # the parsed buffer plus the frozen array; the file is never held whole
        assert peak < 4 * n * d * 8

    def test_surrogate_person_id_rejected(self):
        y = AchievementMatrix([[1.0, 2.0]])
        with pytest.raises(ShapeMismatch, match="surrogate"):
            Dataset(y, ("h", "e"), ("\ud83d\ude00",))
        assert Dataset(y, ("h", "e"), ("\U0001f600",)).person_ids == ("\U0001f600",)

    def test_raw_achievements_are_checked_and_reported(self):
        cfg = MethodologyConfig(1.0, 1.0, np.eye(3), None, [10.0, 10.0, 10.0])
        raw = Dataset(np.zeros((2, 3)), ("a", "b", "c"))
        assert isinstance(raw.achievements, AchievementMatrix)
        built = Dataset(AchievementMatrix(np.zeros((2, 3))), ("a", "b", "c"))
        assert "".join(stream_report(raw, cfg)) == "".join(stream_report(built, cfg))


class TestLoadConfig:
    def test_worked_config(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.json", json.dumps(WORKED_CONFIG)))
        assert cfg.alpha == 1.0 and cfg.k == 1.0
        assert cfg.score_ceiling == 2.5
        assert np.array_equal(cfg.weights.values, [1.0, 1.0])

    def test_missing_dependence_defaults_to_identity(self, tmp_path):
        doc = {"cutoffs": [10, 10], "alpha": 1, "k": 1}
        cfg = load_config(write(tmp_path, "c.json", json.dumps(doc)))
        assert np.array_equal(cfg.structure.entries, np.eye(2))

    def test_fraction_mode_resolves_to_ceiling_share(self, tmp_path):
        doc = dict(WORKED_CONFIG, k={"mode": "fraction", "value": 1.0})
        cfg = load_config(write(tmp_path, "c.json", json.dumps(doc)))
        assert cfg.k == cfg.score_ceiling

    def test_fraction_above_one_rejected(self, tmp_path):
        doc = dict(WORKED_CONFIG, k={"mode": "fraction", "value": 1.2})
        with pytest.raises(CutoffOutOfRange):
            load_config(write(tmp_path, "c.json", json.dumps(doc)))

    def test_missing_alpha(self, tmp_path):
        doc = {"cutoffs": [10, 10], "k": 1}
        with pytest.raises(MissingField):
            load_config(write(tmp_path, "c.json", json.dumps(doc)))

    def test_alpha_override_fills_gap(self, tmp_path):
        doc = {"cutoffs": [10, 10], "k": 1}
        cfg = load_config(write(tmp_path, "c.json", json.dumps(doc)), alpha_override=2.0)
        assert cfg.alpha == 2.0

    def test_missing_k(self, tmp_path):
        doc = {"cutoffs": [10, 10], "alpha": 1}
        with pytest.raises(MissingField):
            load_config(write(tmp_path, "c.json", json.dumps(doc)))

    def test_k_override_beats_config(self, tmp_path):
        cfg = load_config(
            write(tmp_path, "c.json", json.dumps(WORKED_CONFIG)), k_override=2.0
        )
        assert cfg.k == 2.0

    def test_unknown_k_mode(self, tmp_path):
        doc = dict(WORKED_CONFIG, k={"mode": "relative", "value": 0.5})
        with pytest.raises(ValidationError):
            load_config(write(tmp_path, "c.json", json.dumps(doc)))

    def test_invalid_json_located(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(write(tmp_path, "c.json", "{not json"))

    def test_nested_cutoffs_not_flattened(self, tmp_path):
        doc = {"cutoffs": [[5, 5], [5, 5]], "alpha": 1, "k": 1}
        with pytest.raises(ValidationError, match=r"'cutoffs\[0\]' must be a number"):
            load_config_document(write(tmp_path, "c.json", json.dumps(doc)))

    def test_dimension_mismatch(self, tmp_path):
        doc = dict(WORKED_CONFIG, cutoffs=[10, 10, 10])
        with pytest.raises(ValidationError):
            load_config(write(tmp_path, "c.json", json.dumps(doc)))

    def test_nesting_limit_independent_of_stack_depth(self, tmp_path):
        # deep enough that the JSON parser alone would fail only from the deeper stack
        depth = sys.getrecursionlimit() - len(inspect.stack(0)) - 100
        alpha = "[" * depth + "1" + "]" * depth
        path = write(tmp_path, "c.json", f'{{"cutoffs": [10], "alpha": {alpha}, "k": 1}}')

        def load(frames):
            if frames:
                return load(frames - 1)
            with pytest.raises(ParseError) as info:
                load_config_document(path)
            return str(info.value)

        assert load(0) == load(200) == f"{path}: invalid JSON: nested too deeply"

    @pytest.mark.parametrize(
        "override, named",
        [
            ({"weigths": [1.5, 0.5]}, "unknown config field 'weigths'"),
            ({"k": {"mode": "fraction", "value": 0.5, "valu": 0.9}}, "unknown k field 'valu'"),
            ({"x" * 100: 1}, "unknown config field '" + "x" * 40 + "...'"),
        ],
        ids=["misspelled-field", "misspelled-k-field", "long-key"],
    )
    def test_unknown_field_named(self, tmp_path, override, named):
        path = write(tmp_path, "c.json", json.dumps(dict(WORKED_CONFIG, **override)))
        with pytest.raises(ValidationError) as info:
            load_config_document(path)
        assert str(info.value) == f"{path}: {named}"

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"cutoffs": [10, 10], "alpha": 1, "alpha": 2, "k": 1}', "config field 'alpha'"),
            (
                '{"cutoffs": [10, 10], "alpha": 1, '
                '"k": {"mode": "fraction", "value": 0.5, "value": 1.0}}',
                "k field 'value'",
            ),
            ('{"alpha": 1, "k": 1, "k": 2, "alpha": 2, "cutoffs": [1]}', "config field 'k'"),
        ],
        ids=["top-level", "inside-k", "first-repeat-named"],
    )
    def test_repeated_field_named(self, tmp_path, text, named):
        path = write(tmp_path, "c.json", text)
        with pytest.raises(ValidationError) as info:
            load_config_document(path)
        assert str(info.value) == f"{path}: duplicate {named}"

    def test_repeated_key_elsewhere_is_an_object_of_the_wrong_type(self, tmp_path):
        path = write(tmp_path, "c.json", '{"cutoffs": [{"a": 1, "a": 2}]}')
        with pytest.raises(ValidationError) as info:
            load_config_document(path)
        assert str(info.value) == (
            f"{path}: config field 'cutoffs[0]' must be a number, got an object"
        )

    @pytest.mark.parametrize(
        "text", [json.dumps(WORKED_CONFIG), '{"cutoffs": []}'], ids=["valid", "invalid"]
    )
    def test_byte_order_mark_is_ignored(self, tmp_path, text):
        def outcome(path):
            try:
                cfg = load_config(path)
            except NetpovertyError as exc:
                return type(exc), str(exc).replace(str(path), "<path>")
            fields = (cfg.cutoffs.values, cfg.structure.entries, cfg.weights.values)
            return cfg.alpha, cfg.k, [a.tobytes() for a in fields], config_echo(cfg)

        plain = outcome(write(tmp_path, "plain.json", text))
        marked = outcome(write(tmp_path, "marked.json", "\ufeff" + text))
        assert marked == plain

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"alpha": 1, "k": 1}, "'cutoffs'"),
            ({"cutoffs": [10, 10], "k": {"mode": "fraction"}}, "'k.value'"),
        ],
        ids=["no-cutoffs", "no-k-value"],
    )
    def test_missing_field_named_with_path(self, tmp_path, doc, named):
        path = write(tmp_path, "c.json", json.dumps(doc))
        with pytest.raises(MissingField) as info:
            load_config_document(path)
        assert str(info.value) == f"{path}: config field {named} is required"

    def test_error_names_the_json_type_not_the_value(self):
        # called on the parsed value: under a test runner's stack a 990-deep
        # document already fails in the JSON parser
        alpha = 1.0
        for _ in range(990):
            alpha = [alpha]
        with pytest.raises(ValidationError) as info:
            _numbers("c.json", alpha, "alpha", 0)
        message = str(info.value)
        assert message.endswith("must be a number, got an array")
        assert "\n" not in message and len(message) < 200


class TestReports:
    def test_worked_report_values(self, worked_files):
        data, config = worked_files
        report = run_report(load_dataset(data), load_config(config))
        assert report["fgt_value"] == 0.1
        assert report["headcount_ratio"] == 0.5
        assert report["d_bar"] == 2.5
        assert report["d_under"] == 1.0
        assert report["d_tilde"] == 2.5
        assert report["dimensions"] == ["health", "education"]
        assert report["per_person"][0]["poor"] == 1
        assert report["per_person"][1]["poor"] == 0
        assert "naive_diagnostic" not in report

    def test_field_order_is_stable(self, worked_files):
        data, config = worked_files
        report = run_report(load_dataset(data), load_config(config))
        assert list(report) == [
            "fgt_value",
            "headcount_ratio",
            "d_bar",
            "d_under",
            "d_tilde",
            "deltas",
            "dimensions",
            "per_person",
            "config",
            "software_version",
        ]

    def test_diagnostic_naive_labeled(self, worked_files):
        data, config = worked_files
        report = run_report(load_dataset(data), load_config(config), diagnostic_naive=True)
        assert report["naive_diagnostic"]["label"] == "naive (manipulable)"
        # identity denominators differ: naive divides by N*d
        assert report["naive_diagnostic"]["value"] == pytest.approx(0.125)

    def test_byte_identical_across_runs(self, worked_files, tmp_path):
        data, config = worked_files
        ds, cfg = load_dataset(data), load_config(config)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        run_report(ds, cfg, out_path=out1)
        run_report(ds, cfg, out_path=out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_recompute(self, worked_files):
        data, config = worked_files
        report = run_report(load_dataset(data), load_config(config))
        assert recompute_fgt_value(report) == pytest.approx(
            report["fgt_value"], abs=1e-12
        )

    def test_round_trip_on_random_instances(self, tmp_path, rng):
        from conftest import random_structure, random_weights

        for trial in range(10):
            d = int(rng.integers(2, 6))
            m = random_structure(rng, d)
            w = random_weights(rng, d)
            z = rng.uniform(1, 10, d)
            n = int(rng.integers(2, 20))
            y = rng.uniform(0, 2 * z, (n, d))
            doc = {
                "cutoffs": z.tolist(),
                "alpha": float(rng.choice([0.0, 0.5, 1.0, 2.0])),
                "k": {"mode": "fraction", "value": float(rng.uniform(0.1, 1.0))},
                "dependence": m.entries.tolist(),
                "weights": w.values.tolist(),
            }
            header = ",".join(f"dim{j}" for j in range(d))
            rows = "\n".join(",".join(repr(float(v)) for v in row) for row in y)
            data = write(tmp_path, f"d{trial}.csv", f"{header}\n{rows}\n")
            config = write(tmp_path, f"c{trial}.json", json.dumps(doc))
            report = run_report(load_dataset(data), load_config(config))
            assert recompute_fgt_value(report) == pytest.approx(
                report["fgt_value"], abs=1e-12
            )

    def test_config_echo_reloads_identically(self, worked_files, tmp_path):
        data, config = worked_files
        cfg = load_config(config)
        report = run_report(load_dataset(data), cfg)
        echoed = write(tmp_path, "echo.json", json.dumps(report["config"]))
        cfg2 = load_config(echoed)
        assert cfg2.alpha == cfg.alpha and cfg2.k == cfg.k
        assert np.array_equal(cfg2.structure.entries, cfg.structure.entries)
        assert np.array_equal(cfg2.weights.values, cfg.weights.values)
        assert np.array_equal(cfg2.cutoffs.values, cfg.cutoffs.values)

    def test_render_ends_with_newline(self, worked_files):
        data, config = worked_files
        report = run_report(load_dataset(data), load_config(config))
        assert render_report(report).endswith("}\n")

    def test_rows_match_public_counts_and_statuses_bitwise(self, rng):
        from conftest import random_structure, random_weights

        for _ in range(20):
            d = int(rng.integers(2, 7))
            z = rng.uniform(1, 10, d)
            n = int(rng.integers(1, 40))
            y = rng.uniform(0, 2 * z, (n, d))
            m, w = random_structure(rng, d), random_weights(rng, d)
            cfg = MethodologyConfig(
                alpha=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
                k=float(rng.uniform(0.05, 1.0)) * weighted_upper_bound(m, w),
                structure=m,
                weights=w,
                cutoffs=z,
            )
            names = tuple(f"d{j}" for j in range(d))
            ds = Dataset(achievements=AchievementMatrix(y), dimension_names=names)
            rows = run_report(ds, cfg)["per_person"]
            counts = deprivation_counts(y, z, m, w)
            statuses = identify(counts, cfg.k, upper=cfg.score_ceiling).statuses
            got = np.array([rec["deprivation_count"] for rec in rows])
            want = np.array([_round12(v) for v in counts.values])
            assert got.tobytes() == want.tobytes()
            assert [rec["poor"] for rec in rows] == statuses.tolist()


#: ids json.dumps must escape: a quote, non-ASCII, a control character
_TRICKY_IDS = ('a"b', "\u00e9", "\t", "\\", "\u2028", "", "p01")


def _golden_inputs(seed, n, d, alpha, fraction, uniform_weights, ids):
    """A dataset and methodology whose scores take every kind of float text."""
    from conftest import random_structure, random_weights

    rng = np.random.default_rng(seed)
    z = rng.uniform(1, 10, d)
    # shortfalls down to 1e-12 of the cutoff give gaps in exponent form;
    # whole-number achievements with whole cutoffs give whole-number scores
    near = z * (1 - 10.0 ** -rng.uniform(0, 12, (n, d)))
    far = rng.uniform(0, 2, (n, d)) * z
    y = np.where(rng.random((n, d)) < 0.5, near, far)
    if rng.random() < 0.3:
        z, y = np.ceil(z), np.round(y)
    m = random_structure(rng, d)
    w = None if uniform_weights else random_weights(rng, d)
    cfg = MethodologyConfig(alpha, fraction * weighted_upper_bound(m, w), m, w, z)
    person_ids = None if ids is None else tuple(ids[i % len(ids)] for i in range(n))
    names = tuple(f"dim {j}" for j in range(d))
    return Dataset(AchievementMatrix(y), names, person_ids), cfg


def _exact(value):
    """A report with every float as its hex text, so -0.0 and the last bit count."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(key, _exact(v)) for key, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


def reference_report(ds, cfg, naive):
    """The report dict from the public functions, apart from the report's own code."""
    y, z, m, w = ds.achievements, cfg.cutoffs, cfg.structure, cfg.weights
    counts = deprivation_counts(y, z, m, w)
    statuses = identify(counts, cfg.k, upper=cfg.score_ceiling)
    bounds = bounds_summary(m, w)
    report = {
        "fgt_value": _round12(fgt_network_adjusted(y, z, m, w, cfg.alpha, cfg.k).value),
        "headcount_ratio": _round12(headcount_ratio(statuses)),
        "d_bar": _round12(bounds.upper),
        "d_under": _round12(bounds.lower_nonzero),
        "d_tilde": _round12(bounds.weighted_upper),
        "deltas": [_round12(v) for v in bounds.jumps],
    }
    if naive:
        # fgt_naive takes uniform weights, and so rejects a k above their ceiling
        result = _aggregate(y, cfg, "naive")
        report["naive_diagnostic"] = {
            "label": "naive (manipulable)",
            "value": _round12(result.value),
            "denominator": _round12(result.denominator),
        }
    report["dimensions"] = list(ds.dimension_names)
    scores = deprivation_matrix(y, z, m, cfg.alpha, w).values
    report["per_person"] = [
        {
            "id": pid,
            "deprivation_count": _round12(counts.values[i]),
            "poor": int(statuses.statuses[i]),
            "scores": [_round12(v) for v in scores[i]],
        }
        for i, pid in enumerate(ds.ids())
    ]
    report["config"] = config_echo(cfg)
    report["software_version"] = netpoverty.__version__
    return report


_FORMATTER_CASES = [
    1e-05, -0.0, 0.0, 1.0, 123456789012.0, 1.23456789012e14, 1e16, 5e-324,
    0.0001, 9.99999999999995e-05, 999999999999.5, 2.9999999999999, -7.0, 1e300,
]


def assert_json_texts(values):
    """``_json_floats`` gives each value's JSON text by its definition, ``repr(float("%.12g" % v))``."""
    assert _json_floats(np.array(values, dtype=float)) == [repr(float(f"{v:.12g}")) for v in values]


class TestStreamedReport:
    """Every report path gives exactly :func:`reference_report`."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        d=st.integers(2, 5),
        alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.7]),
        fraction=st.floats(0.01, 1.0),
        uniform_weights=st.booleans(),
        ids=st.none()
        | st.lists(st.sampled_from(_TRICKY_IDS) | st.text(max_size=4), min_size=1, max_size=6),
        naive=st.booleans(),
    )
    def test_equals_rendered_report(
        self, seed, n, d, alpha, fraction, uniform_weights, ids, naive
    ):
        ds, cfg = _golden_inputs(seed, n, d, alpha, fraction, uniform_weights, ids)
        want = reference_report(ds, cfg, naive)
        assert "".join(stream_report(ds, cfg, naive)) == render_report(want)
        assert _exact(run_report(ds, cfg, None, naive)) == _exact(want)

    @pytest.mark.parametrize("ids", [None, _TRICKY_IDS], ids=["integer-ids", "string-ids"])
    @pytest.mark.parametrize("n", [1, 2 * _CHUNK_PERSONS + 1])
    def test_single_person_and_chunk_boundaries(self, tmp_path, n, ids):
        ds, cfg = _golden_inputs(7, n, 3, 1.0, 0.4, False, ids)
        for naive in (False, True):
            want = render_report(reference_report(ds, cfg, naive))
            chunks = list(stream_report(ds, cfg, naive))
            assert len(chunks) == 2 + -(-n // _CHUNK_PERSONS)
            assert "".join(chunks) == want
            run_report(ds, cfg, out_path=tmp_path / "r.json", diagnostic_naive=naive)
            assert (tmp_path / "r.json").read_bytes() == want.encode("utf-8")

    def test_dimension_mismatch_raises_before_any_text(self, worked_files):
        data, config = worked_files
        ds = load_dataset(data)
        cfg = MethodologyConfig(1.0, 1.0, np.eye(3), None, [10.0, 10.0, 10.0])
        with pytest.raises(ValidationError, match="d = 2, config has d = 3"):
            stream_report(ds, cfg)

    @pytest.mark.parametrize(
        "rows",
        [[[10.0, 10.0, 12.0]] * 5, [[-0.0, 10.0, 3.0], [0.0, 11.0, 3.0]] * 3],
        ids=["every-score-zero", "negative-zero-entries"],
    )
    def test_repeated_counts_and_zero_scores(self, rows):
        cfg = MethodologyConfig(1.0, 1.0, [[1, 0.5, 0], [0, 1, 0.2], [0.3, 0, 1]], None, [10] * 3)
        ds = Dataset(AchievementMatrix(rows), ("a", "b", "c"))
        for naive in (False, True):
            text = "".join(stream_report(ds, cfg, naive))
            assert text == render_report(reference_report(ds, cfg, naive))

    def test_negative_zero_prints_as_negative_zero(self):
        counts = np.array([0.0, -0.0, 1.5, 1.5, -0.0])
        statuses = np.array([0, 0, 1, 1, 0])
        scores = np.array([[0.0, -0.0], [-0.0, -0.0], [0.75, 0.0], [0.75, 2.5e-13], [0.0, 0.0]])
        head, tail = {"fgt_value": 0.5}, {"software_version": "x"}
        text = "".join(_report_text(head, None, counts, statuses, scores, tail))
        persons = [
            {"id": i + 1, "deprivation_count": _round12(c), "poor": int(p),
             "scores": [_round12(v) for v in row]}
            for i, (c, p, row) in enumerate(zip(counts, statuses, scores))
        ]
        assert text == render_report({**head, "per_person": persons, **tail})
        assert text.count("-0.0") == 5

    @pytest.mark.parametrize("v", _FORMATTER_CASES)
    def test_formatter_cases(self, v):
        assert_json_texts([v])

    @settings(max_examples=500, deadline=None)
    @given(v=st.floats(allow_nan=False, allow_infinity=False))
    def test_formatter_random_floats(self, v):
        assert_json_texts([v])

    def test_formatter_over_the_whole_exponent_range(self):
        bits = np.random.default_rng(11).integers(0, 2**64, 50_000, dtype=np.uint64)
        values = [v for (v,) in struct.iter_unpack("<d", bits.tobytes()) if math.isfinite(v)]
        assert_json_texts(values)


class TestBatchedFormatter:
    """``_json_floats`` formats a whole chunk of scores as each value's definition says."""

    def test_formatter_cases(self):
        assert_json_texts(_FORMATTER_CASES)

    def test_pinned_texts(self):
        values = [-0.0, 5e-324, 999999999999.5, 1e12, 1e13, 1e14, 1e15, 1e16, 1e300]
        assert _json_floats(np.array(values)) == [
            "-0.0", "5e-324", "1000000000000.0", "1000000000000.0", "10000000000000.0",
            "100000000000000.0", "1000000000000000.0", "1e+16", "1e+300",
        ]

    def test_near_whole_numbers_and_form_edges(self):
        # the values whose text loses its "." or takes exponent form, and their neighbours
        rng = np.random.default_rng(12)
        whole = np.concatenate([rng.integers(0, 10**12, 3000), 10 ** rng.integers(0, 17, 3000)])
        rel = 10.0 ** rng.uniform(-16, -9, whole.size) * rng.choice([-1, 1], whole.size)
        edges = np.array([1e-4, 1e11, 1e12, 1e16]).repeat(1000)
        rel_edge = 10.0 ** rng.uniform(-17, -10, edges.size) * rng.choice([-1, 1], edges.size)
        values = np.concatenate([whole * (1 + rel), edges * (1 + rel_edge)])
        assert_json_texts(np.concatenate([values, -values]).tolist())

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    def test_random_lists(self, values):
        assert_json_texts(values)


def float_texts(values):
    """Each value's text as :func:`_float_fields` writes it, its row with the NULs deleted."""
    fields = _float_fields(np.array(values, dtype=float))
    assert fields.shape == (len(values), dataio._FLOAT_FIELD)
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in fields]


def definition_texts(values):
    return [repr(float(f"{v:.12g}")) for v in values]


def ulps_around(values, ulps=1):
    """``values`` and their neighbours up to ``ulps`` representable doubles away, both sides."""
    values = np.asarray(values, dtype=float)
    out, down, up = [values], values, values
    for _ in range(ulps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out).tolist()


class TestFloatFields:
    """``_float_fields`` writes ``repr(float("%.12g" % v))`` for every value, table path or not."""

    def test_exact_twelve_digit_ties_and_neighbours(self):
        # q / 2**(12 - e) with q odd has 13 significant digits ending in a 5
        # whenever it lies in [10**e, 10**(e + 1)): an exact tie, rounded half even
        ties = []
        for e in range(-4, 3):
            scale = 2.0 ** (12 - e)
            q = np.arange(math.ceil(10.0**e * scale) | 1, 10.0 ** (e + 1) * scale, 2)
            ties.append(q[:: max(1, q.size // 400)] / scale)
        ties = np.concatenate(ties)
        assert all(f"{v:.13g}".rstrip("0").endswith("5") for v in ties[:50])
        values = ulps_around(ties, 2)
        assert float_texts(values) == definition_texts(values)

    def test_decimal_ties_and_neighbours(self):
        # the doubles nearest to a 13-digit decimal ending in 5, in every decade the tables cover
        rng = np.random.default_rng(31)
        digits = rng.integers(10**11, 10**12, 5000)
        exponent = rng.integers(-5, 4, digits.size)
        ties = [float(f"{m}5e{x - 12}") for m, x in zip(digits.tolist(), exponent.tolist())]
        values = ulps_around(ties, 2)
        assert float_texts(values) == definition_texts(values)

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([10.0**k for k in range(-5, 4)])
        # and where 12 digits below a power of ten stop rounding up to it
        below = powers[:, None] * (1 - np.arange(1, 13) * 1e-13)
        values = ulps_around(powers, 3) + ulps_around(below.ravel(), 1)
        assert float_texts(values) == definition_texts(values)

    def test_pinned_texts(self):
        values = [0.1, 1.0, 1e3, 0.0, -0.0, 5e-324, 2.0, 123.0, 0.000123]
        assert float_texts(values) == [
            "0.1", "1.0", "1000.0", "0.0", "-0.0", "5e-324", "2.0", "123.0", "0.000123",
        ]

    def test_decades_are_at_or_above_their_powers(self):
        # so v >= _DECADES[e + 4] shows 10**e <= v exactly
        decades = zip(range(-4, 3), dataio._DECADES.tolist(), strict=True)
        assert all(Fraction(x) >= Fraction(10) ** e for e, x in decades)

    def test_powers_of_ten_take_the_tables(self, monkeypatch):
        # a deprived dimension with no deprived neighbour scores 1.0 at alpha 0
        monkeypatch.setattr(dataio, "_json_floats", None)
        values = [1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0, 100.0, 0.0, 2.5]
        assert float_texts(values) == definition_texts(values)

    def test_just_below_one_ten_thousandth(self):
        values = ulps_around([1e-4], 4) + [9.99999999999995e-05, 9.9999999999999e-05, 9.9e-05]
        assert float_texts(values) == definition_texts(values)

    def test_every_path_in_one_call(self):
        # table rows, "0.0" rows and definition rows interleaved in one matrix
        values = [0.0, 0.5, -0.0, 5e-324, 1.000244140625, 7.5, 1e3, 2e-5, 0.333333333333333, 1e300]
        assert float_texts(values * 3) == definition_texts(values * 3)

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=40))
    def test_random_floats(self, values):
        assert float_texts(values) == definition_texts(values)


def assert_report_in_ranges(monkeypatch, forks, ds, cfg):
    """The streamed report is the rendered reference, in one range and in two forced ranges."""
    want = render_report(reference_report(ds, cfg, False))
    usable_cpus(monkeypatch, 1)
    assert "".join(stream_report(ds, cfg)) == want
    assert forks == []
    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(dataio, "_FORK_PERSONS", 1)
    assert "".join(stream_report(ds, cfg)) == want
    assert len(forks) == min(ds.n, 2) - 1  # one person is one range
    assert_reaped(forks)


class TestRecordMatrix:
    """Each chunk's records, built as one byte matrix, make the reference report's text."""

    @pytest.fixture
    def small_chunks(self, monkeypatch, forks):
        monkeypatch.setattr(dataio, "_CHUNK_PERSONS", 16)
        return forks

    def test_escaped_and_plain_ids_in_one_chunk(self, monkeypatch, small_chunks):
        ids = ["p1", 'a"b', "p2", "back\\slash", "bell\x07", "caf\u00e9", "", "\u2028", "p3"] * 5
        ds, cfg = _golden_inputs(41, len(ids), 3, 1.0, 0.4, False, ids)
        assert_report_in_ranges(monkeypatch, small_chunks, ds, cfg)

    def test_plain_ids_of_one_width(self, monkeypatch, small_chunks):
        ids = [f"p{i:06d}" for i in range(1, 61)]
        ds, cfg = _golden_inputs(42, len(ids), 4, 1.0, 0.4, True, ids)
        assert_report_in_ranges(monkeypatch, small_chunks, ds, cfg)

    def test_no_id_column(self, monkeypatch, small_chunks):
        ds, cfg = _golden_inputs(43, 150, 3, 2.0, 0.3, False, None)
        assert_report_in_ranges(monkeypatch, small_chunks, ds, cfg)

    @pytest.mark.parametrize("ids", [None, ("p", "q\n", "r")], ids=["integer-ids", "string-ids"])
    @pytest.mark.parametrize("n", [1, _CHUNK_PERSONS - 1, _CHUNK_PERSONS, _CHUNK_PERSONS + 1])
    def test_real_chunk_boundaries(self, monkeypatch, forks, n, ids):
        if ids is not None:  # one id in three needs an escape
            ids = [f"{ids[i % 3]}{i}" for i in range(n)]
        ds, cfg = _golden_inputs(44, n, 3, 1.0, 0.4, False, ids)
        assert_report_in_ranges(monkeypatch, forks, ds, cfg)

    def test_one_id_much_longer_than_its_neighbours(self, monkeypatch, small_chunks):
        ids = [f"p{i}" for i in range(50)]
        ids[20] = "long id " * 500 + '"quoted"'
        ds, cfg = _golden_inputs(45, len(ids), 3, 1.0, 0.4, False, ids)
        assert_report_in_ranges(monkeypatch, small_chunks, ds, cfg)

    def test_id_at_the_csv_field_limit_costs_about_its_own_row(self, monkeypatch, forks):
        # at the real chunk size: were every row of its chunk padded to its width,
        # the chunk's matrix alone would take half a gigabyte
        ids = [f"p{i}" for i in range(_CHUNK_PERSONS)]
        ids[5] = "x" * csv.field_size_limit()
        ds, cfg = _golden_inputs(48, len(ids), 5, 1.0, 0.4, False, ids)
        usable_cpus(monkeypatch, 1)
        tracemalloc.start()
        try:
            text = "".join(stream_report(ds, cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == render_report(reference_report(ds, cfg, False))
        assert peak < 4 * dataio._MATRIX_BYTES

    def test_scores_at_or_above_1e3_and_below_1e_4(self, monkeypatch, small_chunks):
        # weight d - 1 on a dimension every other one feeds, 1 / (d - 1) on each of the
        # rest, which no other feeds: past 1e3 where most are deprived, below 1e-4 on a
        # shallow gap of a light dimension
        d = 600
        w = np.full(d, 1.0 / (d - 1))
        w[0] = d - 1.0
        m = np.eye(d)
        m[0] = 1.0
        rng = np.random.default_rng(46)
        z = np.full(d, 10.0)
        deep = rng.random((40, d)) < 0.9
        y = z * np.where(deep, rng.uniform(0, 0.05, (40, d)), 0.999)
        y[::7] = 20.0  # nobody deprived: every score 0.0
        cfg = MethodologyConfig(1.0, 0.3 * weighted_upper_bound(m, w), m, w, z)
        ds = Dataset(AchievementMatrix(y), tuple(f"d{j}" for j in range(d)))
        scores = deprivation_matrix(ds.achievements, z, m, 1.0, w).values
        assert scores.max() >= 1e3 and 0 < scores[scores > 0].min() < 1e-4
        assert_report_in_ranges(monkeypatch, small_chunks, ds, cfg)

    @pytest.mark.parametrize("d", [2, 12])
    def test_dimension_counts(self, monkeypatch, small_chunks, d):
        ds, cfg = _golden_inputs(47 + d, 70, d, 0.5, 0.4, False, _TRICKY_IDS)
        assert_report_in_ranges(monkeypatch, small_chunks, ds, cfg)


def fail_in_workers(monkeypatch):
    """Make the per-chunk record formatter raise in every process but this one."""
    parent, records = os.getpid(), dataio._records

    def failing(*args):
        if os.getpid() != parent:
            raise RuntimeError("worker fault")
        return records(*args)

    monkeypatch.setattr(dataio, "_records", failing)


class TestForkedReport:
    """A report whose ranges forked workers format is the serial report, byte for byte."""

    @pytest.mark.parametrize("naive", [False, True], ids=["adjusted", "naive"])
    @pytest.mark.parametrize("ids", [None, _TRICKY_IDS], ids=["integer-ids", "string-ids"])
    @pytest.mark.parametrize("offset", [-1, 0, 7], ids=["below", "at", "past-a-chunk"])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_equals_rendered_report(
        self, small_ranges, monkeypatch, tmp_path, cpus, offset, ids, naive
    ):
        usable_cpus(monkeypatch, cpus)
        n = 48 * cpus + offset  # at the threshold, cpus ranges
        ds, cfg = _golden_inputs(cpus, n, 3, 1.0, 0.4, False, ids)
        want = reference_report(ds, cfg, naive)
        text = render_report(want)
        assert "".join(stream_report(ds, cfg, naive)) == text
        out = tmp_path / "r.json"
        assert _exact(run_report(ds, cfg, out_path=out, diagnostic_naive=naive)) == _exact(want)
        assert out.read_bytes() == text.encode("utf-8")
        assert _exact(run_report(ds, cfg, None, naive)) == _exact(want)
        ranges = max(1, min(cpus, n // 48))
        assert len(small_ranges) == 3 * (ranges - 1)
        assert_reaped(small_ranges)

    def test_real_chunk_size(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        monkeypatch.setattr(dataio, "_FORK_PERSONS", _CHUNK_PERSONS)
        ds, cfg = _golden_inputs(5, 3 * _CHUNK_PERSONS + 5, 2, 2.0, 0.5, True, _TRICKY_IDS)
        want = render_report(reference_report(ds, cfg, False))
        assert "".join(stream_report(ds, cfg)) == want

    def test_threads_running_keep_it_serial(self, small_ranges, monkeypatch):
        usable_cpus(monkeypatch, 2)
        ds, cfg = _golden_inputs(3, 200, 3, 1.0, 0.4, False, None)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            text = "".join(stream_report(ds, cfg))
        finally:
            release.set()
            thread.join()
        assert text == render_report(reference_report(ds, cfg, False))
        assert small_ranges == []

    @pytest.mark.parametrize("stop", ["close", "drop"])
    def test_stopped_stream_reaps_every_worker(self, small_ranges, monkeypatch, stop):
        usable_cpus(monkeypatch, 3)
        ds, cfg = _golden_inputs(3, 400, 3, 1.0, 0.4, False, None)
        chunks = stream_report(ds, cfg)
        next(chunks), next(chunks)  # the head and the first chunk: the workers are forked
        assert len(small_ranges) == 2
        if stop == "close":
            chunks.close()
        else:
            del chunks
        assert_reaped(small_ranges)

    def test_worker_failure_raises_and_leaves_no_file(self, small_ranges, monkeypatch, tmp_path):
        usable_cpus(monkeypatch, 2)
        fail_in_workers(monkeypatch)
        ds, cfg = _golden_inputs(3, 200, 3, 1.0, 0.4, False, None)
        out = tmp_path / "r.json"
        with pytest.raises(WriteError, match="exit code 1"):
            run_report(ds, cfg, out_path=out)
        assert not out.exists()
        with pytest.raises(WriteError, match="exit code 1"):
            "".join(stream_report(ds, cfg))
        assert len(small_ranges) == 2
        assert_reaped(small_ranges)


class TestWriteText:
    def test_failure_part_way_removes_the_file(self, tmp_path):
        def chunks():
            yield "{\n"
            raise OSError(28, "No space left on device")

        out = tmp_path / "r.json"
        with pytest.raises(WriteError, match="No space left on device"):
            write_text(chunks(), out)
        assert not out.exists()

    def test_unopenable_path_is_left_alone(self, tmp_path):
        out = tmp_path / "dir"
        out.mkdir()
        with pytest.raises(WriteError):
            write_text("{}", out)
        assert out.is_dir()


# every JSON value shape a config field could hold, keyed by real field names
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["cutoffs", "alpha", "k", "mode", "value", "dependence", "weights"])
        | st.text(max_size=3),
        inner,
        max_size=5,
    ),
    max_leaves=16,
)
_CELL = st.sampled_from(["id", "1", "0.5", "-1", "nan", "1_0", "", " ", '"', "x"])
_CSV = st.lists(st.lists(_CELL | st.text(max_size=4), max_size=4), max_size=5).map(
    lambda rows: "\n".join(",".join(row) for row in rows).encode()
)


class TestBoundaryFuzz:
    """Any bytes either load or raise a NetpovertyError, never anything else."""

    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary() | _CSV)
    def test_dataset_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "data.csv"
        path.write_bytes(raw)
        try:
            load_dataset(path)
        except NetpovertyError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary() | _JSON.map(lambda doc: json.dumps(doc).encode()))
    def test_config_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "config.json"
        path.write_bytes(raw)
        try:
            load_config_document(path)
        except NetpovertyError:
            pass


def _outcome(path):
    """What ``load_dataset`` gives: the dataset's contents, or the error in full."""
    try:
        ds = load_dataset(path)
    except NetpovertyError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return ds.dimension_names, ds.person_ids, ds.achievements.values.tobytes()


def _checked_outcome(path):
    """:func:`_outcome` with the bulk pass always in doubt: the checking loop alone."""
    with mock.patch.object(dataio, "_read_bulk", side_effect=_InDoubt):
        return _outcome(path)


def _bulk(path):
    """The bulk pass's names, ids and value bytes, or None when it is in doubt."""
    try:
        names, ids, values = _read_bulk(path)
    except _InDoubt:
        return None
    return names, ids, values.tobytes()


_NUMBER_TEXT = st.one_of(
    st.floats(0, 1e6).map(repr),
    st.floats(0, 1e300).map(lambda v: f"{v:e}"),
    st.integers(0, 10**20).map(str),
    st.sampled_from(
        ["-0", "+1", ".5", "5.", "1E+3", " 2 ", "\t3", "0.1000000000000000055511151231257827"]
    ),
)
#: cells float() or the csv module read otherwise than the format allows
_FAULTY_TEXT = st.sampled_from(
    ["1e999", "1e-400", "-1", "1_0", "inf", "nan", "", " ", "1 2", "1e", "\u0661", '"4"',
     "\x0b5", "5\x00", "4\r", "4\n", "p,"]
)
#: what a cell may hold: digits of two scripts, numeral signs, grouping, the
#: letters of inf and nan, and ASCII and other white space
_CELL_ALPHABET = "0123456789.eE+-_ \t\u00a0\u001c\u3000\u0660\u0661\u0669infaINFAty"
_ID_TEXT = st.sampled_from(["p1", "p2", " p3\t", "\u2028p4\x85"]) | st.text(max_size=3)


@st.composite
def _csv_files(draw):
    """CSV-shaped bytes, valid or with one fault: a cell, a ragged row, a line ending."""
    d = draw(st.integers(1, 4))
    has_ids = draw(st.booleans())
    names = st.text("hxyz\u00e9 ", min_size=1, max_size=3)
    header = ["id"] * has_ids + [draw(names) for _ in range(d)]
    table = [header] + [
        [draw(_ID_TEXT)] * has_ids + [draw(_NUMBER_TEXT) for _ in range(d)]
        for _ in range(draw(st.integers(0, 8)))
    ]
    newline = "\n"
    fault = draw(st.sampled_from([None, None, "cell", "cell", "cell", "ragged", "blank", "crlf"]))
    i = draw(st.integers(0, len(table) - 1))
    if fault == "cell":
        table[i][draw(st.integers(0, len(table[i]) - 1))] = draw(_FAULTY_TEXT)
    elif fault == "ragged":
        table[i] = table[i][:-1] if draw(st.booleans()) else table[i] + ["1"]
    elif fault == "blank":
        table.insert(i + 1, [])
    elif fault == "crlf":
        newline = "\r\n"
    text = draw(st.sampled_from(["", "\ufeff"])) + newline.join(map(",".join, table))
    return (text + newline * draw(st.booleans())).encode()


class TestBulkParse:
    """The bulk pass gives the checking loop's result, or refers the file to it."""

    @settings(max_examples=500, deadline=None)
    @given(raw=_csv_files(), block=st.sampled_from([1, 3, 16, 1 << 16]))
    def test_agrees_with_checking_loop(self, tmp_path_factory, raw, block):
        self.check_agreement(tmp_path_factory, raw, block)

    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary() | _CSV, block=st.sampled_from([1, 3, 1 << 16]))
    def test_agrees_with_checking_loop_on_any_bytes(self, tmp_path_factory, raw, block):
        self.check_agreement(tmp_path_factory, raw, block)

    @staticmethod
    def check_agreement(tmp_path_factory, raw, block):
        path = tmp_path_factory.mktemp("bulk") / "data.csv"
        path.write_bytes(raw)
        with mock.patch.object(dataio, "_BLOCK", block):
            bulk = _bulk(path)
            if bulk is not None:
                names, ids, values = _read_checked(path)
                assert bulk == (names, ids, values.tobytes())
            assert _outcome(path) == _checked_outcome(path)

    def test_clean_file_takes_the_bulk_pass(self, tmp_path):
        rows = [
            f" p{i}\t, {i % 97}.{i % 13:02d},{i % 7}e-2 ,\t-0,{2.0**-i!r}" for i in range(20_000)
        ]
        path = write(tmp_path, "d.csv", "\ufeffID,a,b,c,d\n" + "\n".join(rows))
        names, ids, values = _read_checked(path)
        assert _bulk(path) == (names, ids, values.tobytes())
        assert _outcome(path) == _checked_outcome(path)

    @pytest.mark.parametrize("end", ["\n", ""], ids=["final-newline", "no-final-newline"])
    @pytest.mark.parametrize("ids", [False, True], ids=["no-ids", "ids"])
    def test_crlf_file_takes_the_bulk_pass(self, tmp_path, monkeypatch, ids, end):
        rows = [f"p{i}," * ids + f"{i % 97}.{i % 13:02d}, {i % 7}e-2" for i in range(20_000)]
        text = "\ufeff" + "id," * ids + "a,b\n" + "\n".join(rows) + end
        lf = write(tmp_path, "lf.csv", text)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        want = _outcome(lf)
        monkeypatch.setattr(dataio, "_read_checked", mock.Mock(side_effect=AssertionError))
        assert _outcome(crlf) == want

    @pytest.mark.parametrize(
        "body",
        [
            b'"5",10\n', b"5,1\r0\n", b"5,1\x000\n", b"5,10\n\n", b"5,10,7\n", b"5\n",
            b"5,1_0\n", b"5,inf\n", b"5,nan\n", b"5,1e999\n", b"5,-1\n", b"5,\xd9\xa1\n",
            b"5,\n", b"5,1 0\n", b"5," + b"1" * 131_073 + b"\n", b"5," + b"0" * 131_073 + b"\n",
        ],
    )
    @pytest.mark.parametrize("ids", [False, True], ids=["no-ids", "ids"])
    def test_doubtful_rows_go_to_the_checking_loop(self, tmp_path, body, ids):
        head = b"id,h,e\np0,5,10\np1," if ids else b"h,e\n5,10\n"
        path = tmp_path / "d.csv"
        path.write_bytes(head + body)
        assert _bulk(path) is None
        assert _outcome(path) == _checked_outcome(path)

    @pytest.mark.parametrize(
        "raw",
        [b"p\xff,5,10\n", b'"p",5,10\n', b"p\r,5,10\n", b"p\x00,5,10\n",
         b"p" * 131_073 + b",5,10\n"],
        ids=["not-utf8", "quote", "carriage-return", "nul", "long-id"],
    )
    def test_doubtful_ids_go_to_the_checking_loop(self, tmp_path, raw):
        path = tmp_path / "d.csv"
        path.write_bytes(b"id,h,e\nq,5,10\n" + raw)
        assert _bulk(path) is None
        assert _outcome(path) == _checked_outcome(path)

    @pytest.mark.parametrize(
        "raw",
        [b'"h",e\n5,10\n', b"h\r,e\n5,10\n", b"h,\x00e\n5,10\n", b"h,\xffe\n5,10\n",
         b"h,h\n5,10\n", b"\n5\n", b"\xef\xbb\xbf", b""],
        ids=["quote", "carriage-return", "nul", "not-utf8", "duplicate", "blank", "only-bom",
             "empty"],
    )
    def test_doubtful_headers_go_to_the_checking_loop(self, tmp_path, raw):
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        assert _bulk(path) is None
        assert _outcome(path) == _checked_outcome(path)

    def test_unbounded_field_limit(self, tmp_path):
        path = write(tmp_path, "d.csv", "h,e\n5,10\n")
        old = csv.field_size_limit(sys.maxsize)
        try:
            assert _bulk(path) == (["h", "e"], None, np.array([5.0, 10.0]).tobytes())
        finally:
            csv.field_size_limit(old)

    @settings(max_examples=1000, deadline=None)
    @given(cell=st.text(_CELL_ALPHABET, min_size=1, max_size=8))
    def test_numpy_reads_a_cell_as_the_loop_does(self, cell):
        # the bulk pass's reader refuses a cell or gives the loop's bits for it
        try:
            got = np.loadtxt([cell], delimiter=",", comments=None, ndmin=2)
        except ValueError:
            return
        assert got.tobytes() == np.float64(_numeral(cell.strip())).tobytes()

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    @pytest.mark.parametrize(
        "raw",
        [b"h\n\n5\n", b"h\n5\n\n6\n", b"h\n5\n\n", b"h\r\n5\r\n\r\n6\r\n", b"id,h\n\np,5\n"],
        ids=["first", "between", "last", "crlf", "ids"],
    )
    def test_a_blank_line_goes_to_the_checking_loop(self, tmp_path, monkeypatch, raw, block):
        # numpy's reader would skip it, where the loop finds a row of no fields
        monkeypatch.setattr(dataio, "_BLOCK", block)
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        assert _bulk(path) is None
        assert _outcome(path) == _checked_outcome(path)

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    @pytest.mark.parametrize(
        "raw",
        [b"a,b\n\n5,6\n", b"a,b\n5,6\n\n7,8\n", b"a,b\n5,6\n\n", b"a,b\r\n5,6\r\n\r\n7,8\r\n"],
        ids=["first", "between", "last", "crlf"],
    )
    def test_a_blank_line_among_two_columns_goes_to_the_checking_loop(
        self, tmp_path, monkeypatch, raw, block
    ):
        # with no comma, the blank line breaks the rows' separator skeleton
        monkeypatch.setattr(dataio, "_BLOCK", block)
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        assert _bulk(path) is None
        assert _outcome(path) == _checked_outcome(path)

    def test_byte_order_mark_in_an_id_is_kept(self, tmp_path):
        rows = "".join(f"\ufeffp{i},{i}\n" for i in range(9))
        path = write(tmp_path, "d.csv", "\ufeffID,a\n" + rows)
        names, ids, values = _read_checked(path)
        assert names == ["a"] and ids[0] == "\ufeffp0"
        assert _bulk(path) == (names, ids, values.tobytes())

    def test_negative_zero_cells(self, tmp_path):
        # -0.0's bits lie above +inf's, so the joined values take the ordered check too
        rows = "".join(f"{i},-0,-0.0, -0e3\n" for i in range(9))
        path = write(tmp_path, "d.csv", "a,b,c,d\n" + rows)
        names, ids, values = _read_checked(path)
        assert _bulk(path) == (names, ids, values.tobytes())
        signs = np.signbit(np.frombuffer(values).reshape(9, 4))
        assert signs[:, 1:].all() and not signs[:, 0].any()
        assert _outcome(path) == _checked_outcome(path)

    def test_over_long_line_between_short_ones(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n3," + b"4" * 300_000 + b"\n5,6\n")
        assert _bulk(path) is None
        assert _outcome(path) == _checked_outcome(path)

    def test_a_pipe_goes_to_the_checking_loop(self):
        # a pipe reports no size, so the bulk pass finds no header; the loop reads it
        read, write = os.pipe()
        os.write(write, b"a,b\n1,2\n3,4\n")
        os.close(write)
        try:
            ds = load_dataset(f"/dev/fd/{read}")
        finally:
            os.close(read)
        assert ds.achievements.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_load_forks_nothing(self, tmp_path, monkeypatch, forks):
        # 2.3 MB of data lines, a load large enough to split across the 3 CPUs
        usable_cpus(monkeypatch, 3)
        rows = "".join(f"p{i},{i % 97}.25,1\n" for i in range(150_000))
        path = write(tmp_path, "d.csv", "id,a,b\n" + rows)
        monkeypatch.setattr(dataio, "_read_checked", mock.Mock(side_effect=AssertionError))
        assert load_dataset(path).n == 150_000
        assert forks == []

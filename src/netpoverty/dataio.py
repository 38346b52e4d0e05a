"""File formats: dataset ingestion, methodology configs, poverty reports.

Dataset (CSV, UTF-8 with an optional byte-order mark, comma-delimited,
ASCII digits, '.' decimal separator, no thousands or digit separators):
a required header row of unique dimension names followed by one row per
person.  A first column headed ``id`` (case-insensitive) is treated as
a person identifier and must be unique; every other cell must parse as
a finite nonnegative real.  Missing cells are rejected, never imputed:
imputation would silently change poverty counts.  Cells longer than the
csv module's field limit (131,072 characters by default) are rejected.

Config (JSON object):

    {
      "cutoffs":    [z1, ..., zd],          required, positive reals
      "alpha":      a >= 0,                 optional here; see below
      "k":          1.5                      either a number (absolute)
                    | {"mode": "absolute", "value": 1.5}
                    | {"mode": "fraction", "value": f},   0 < f <= 1,
                                            resolved to f * ceiling
      "dependence": [[...], ...],           optional, default identity
      "weights":    [w1, ..., wd]           optional, default uniform
    }

Values must be JSON numbers in exactly the array shape shown, or are rejected.
So is any other field, at the top level or inside ``k``, and nesting deeper
than 32 arrays or objects.  ``bounds`` and ``implied-weights`` need neither
alpha nor k; ``compute``, ``axioms`` and ``compare`` need alpha from the
config or from ``--alpha``, and k from the config (``compute`` and
``compare`` also take ``--k`` / ``--k-fraction``).

Report (JSON object, fixed key order): fgt_value, headcount_ratio,
d_bar, d_under, d_tilde, deltas, optional naive_diagnostic, dimensions,
per_person (id, deprivation_count, poor, scores), config echo, and
software_version.  Computed numbers are rounded to 12 significant
digits (round half even) before emission so independent implementations
can be compared at the report level; the config echo keeps full
precision so it reloads to an identical methodology.  Same inputs give
byte-identical output.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import __version__
from .aggregation import _coefficient_pass
from .bounds import BoundsSummary, bounds_summary, weighted_upper_bound
from .core import (
    AchievementMatrix,
    CutoffVector,
    DependenceStructure,
    MethodologyConfig,
    WeightVector,
    _real,
    as_cutoff_vector,
    as_dependence_structure,
    validate_weights,
)
from .deprivation import deprivation_matrix
from .errors import (
    CutoffOutOfRange,
    EmptyDataset,
    MissingField,
    NegativeAchievement,
    NotSquare,
    ParseError,
    RaggedRow,
    ValidationError,
    WriteError,
)
from .identification import headcount_ratio


@dataclass(frozen=True)
class Dataset:
    """Validated achievements plus the header metadata they came with."""

    achievements: AchievementMatrix
    dimension_names: tuple[str, ...]
    person_ids: tuple[str, ...] | None = None

    @property
    def n(self) -> int:
        return self.achievements.n

    @property
    def d(self) -> int:
        return self.achievements.d

    def ids(self) -> tuple:
        if self.person_ids is not None:
            return self.person_ids
        return tuple(range(1, self.n + 1))


@dataclass(frozen=True)
class ConfigDocument:
    """Parsed config fields, core-validated, with k still unresolved."""

    cutoffs: CutoffVector
    structure: DependenceStructure
    weights: WeightVector
    alpha: float | None
    k_mode: str | None
    k_value: float | None


def load_dataset(path) -> Dataset:
    """Read and validate a dataset file.

    Row and column numbers in errors are 1-based and count data rows and
    achievement columns (the header and any id column excluded).
    """
    # utf-8-sig drops a byte-order mark that would otherwise hide the id header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise EmptyDataset(f"{path}: file is empty")
    header = [cell.strip() for cell in rows[0]]
    if not any(header):
        raise EmptyDataset(f"{path}: header row is empty")
    has_ids = header[0].lower() == "id"
    names = header[1:] if has_ids else header
    if not names:
        raise EmptyDataset(f"{path}: no achievement columns")
    _reject_duplicates(path, names, "dimension name")

    ids: list[str] = []
    data: list[list[float]] = []
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise RaggedRow(
                f"{path}: row {r} has {len(row)} fields, header has {len(header)}",
                row=r,
            )
        cells = row[1:] if has_ids else row
        if has_ids:
            ids.append(row[0].strip())
        parsed = []
        for c, cell in enumerate(cells, start=1):
            text = cell.strip()
            try:
                # float() takes `_` grouping and non-ASCII digits, the format does not
                if "_" in text or not text.isascii():
                    raise ValueError
                value = float(text)
            except ValueError:
                raise ParseError(
                    f"{path}: row {r}, column {c}: {text!r} is not a number",
                    row=r,
                    column=c,
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}: row {r}, column {c}: {text!r} is not finite",
                    row=r,
                    column=c,
                )
            if value < 0.0:
                raise NegativeAchievement(
                    f"{path}: row {r}, column {c}: negative achievement {value}",
                    row=r,
                    column=c,
                )
            parsed.append(value)
        data.append(parsed)
    if not data:
        raise EmptyDataset(f"{path}: no data rows")
    if has_ids:
        _reject_duplicates(path, ids, "person id")
    return Dataset(
        achievements=AchievementMatrix(np.array(data)),
        dimension_names=tuple(names),
        person_ids=tuple(ids) if has_ids else None,
    )


def _reject_duplicates(path, values: list[str], what: str) -> None:
    seen: set[str] = set()
    for value in values:
        if value in seen:
            raise ValidationError(f"{path}: duplicate {what} {value!r}")
        seen.add(value)


def _require(path, doc: dict, key: str, field: str | None = None):
    if key not in doc:
        raise MissingField(f"{path}: config field {field or key!r} is required")
    return doc[key]


#: the JSON type behind each value ``json.load(..., parse_int=float)`` returns
_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string",
    float: "a number", bool: "a boolean", type(None): "null",
}


def _numbers(path, value, field: str, depth: int):
    """JSON numbers nested ``depth`` arrays deep (0: one number).

    Parsing with ``parse_int=float`` makes every JSON number, and nothing else, a float.
    """
    if depth == 0 and isinstance(value, float):
        return value
    if depth == 0 or not isinstance(value, list):
        kind = "a number" if depth == 0 else "an array"
        got = _JSON_TYPES[type(value)]
        raise ValidationError(
            f"{path}: config field {field!r} must be {kind}, got {got}"
        )
    return [_numbers(path, v, f"{field}[{i}]", depth - 1) for i, v in enumerate(value)]


_CONFIG_FIELDS = ("cutoffs", "alpha", "k", "dependence", "weights")
_K_FIELDS = ("mode", "value")
#: deeper than any valid config (3 levels) and far below the recursion limit,
#: so acceptance does not depend on how deep the caller's stack already is
_MAX_NESTING = 32
# a string, closed or not, counts as one token, so brackets inside it are skipped
_JSON_TOKENS = re.compile(r'"[^"\\]*(?:\\.?[^"\\]*)*"?|[][{}]', re.S)
_NESTING_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _check_nesting(path, text: str) -> None:
    steps = (_NESTING_STEP.get(m.group(), 0) for m in _JSON_TOKENS.finditer(text))
    if any(depth > _MAX_NESTING for depth in accumulate(steps)):
        raise ParseError(f"{path}: invalid JSON: nested too deeply")


def _reject_unknown(path, doc: dict, known: tuple, where: str) -> None:
    for key in doc:
        if key not in known:
            shown = key if len(key) <= 40 else key[:40] + "..."
            raise ValidationError(f"{path}: unknown {where} {shown!r}")


def load_config_document(path) -> ConfigDocument:
    """Parse a config file and run core validation on each piece."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    _check_nesting(path, text)
    try:
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON: {exc.msg}", row=exc.lineno, column=exc.colno
        ) from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    _reject_unknown(path, doc, _CONFIG_FIELDS, "config field")

    cutoffs = as_cutoff_vector(_numbers(path, _require(path, doc, "cutoffs"), "cutoffs", 1))
    d = cutoffs.d
    if "dependence" in doc:
        rows = _numbers(path, doc["dependence"], "dependence", 2)
        if len({len(row) for row in rows}) > 1:
            raise NotSquare(f"{path}: dependence rows differ in length")
        structure = as_dependence_structure(rows)
    else:
        structure = DependenceStructure.identity(d)
    if structure.d != d:
        raise ValidationError(
            f"{path}: dependence is {structure.d}x{structure.d}, cutoffs have d = {d}"
        )
    if "weights" in doc:
        weights = validate_weights(_numbers(path, doc["weights"], "weights", 1), d)
    else:
        weights = WeightVector.uniform(d)

    alpha = _numbers(path, doc["alpha"], "alpha", 0) if "alpha" in doc else None
    k_mode: str | None = None
    k_value: float | None = None
    if "k" in doc:
        k_field = doc["k"]
        if isinstance(k_field, dict):
            _reject_unknown(path, k_field, _K_FIELDS, "k field")
            k_mode = k_field.get("mode")
            if k_mode not in ("absolute", "fraction"):
                raise ValidationError(f"{path}: unknown k mode {k_mode!r}")
            value = _require(path, k_field, "value", "k.value")
            k_value = _numbers(path, value, "k.value", 0)
        else:
            k_mode = "absolute"
            k_value = _numbers(path, k_field, "k", 0)
    return ConfigDocument(cutoffs, structure, weights, alpha, k_mode, k_value)


def resolve_methodology(
    doc: ConfigDocument,
    alpha_override: float | None = None,
    k_override: float | None = None,
    k_fraction_override: float | None = None,
) -> MethodologyConfig:
    """Turn a config document into a full methodology, applying overrides."""
    alpha = alpha_override if alpha_override is not None else doc.alpha
    if alpha is None:
        raise MissingField("config field 'alpha' is required (or pass --alpha)")

    if k_override is not None:
        k_mode, k = "absolute", k_override
    elif k_fraction_override is not None:
        k_mode, k = "fraction", k_fraction_override
    else:
        k_mode, k = doc.k_mode, doc.k_value
    if k_mode is None:
        raise MissingField(
            "config field 'k' is required (or pass --k / --k-fraction to compute or compare)"
        )
    k = _real(k, CutoffOutOfRange, "k")
    if k_mode == "fraction":
        if not 0.0 < k <= 1.0:
            raise CutoffOutOfRange(f"k fraction {k} outside (0, 1]")
        k *= weighted_upper_bound(doc.structure, doc.weights)
    return MethodologyConfig(
        alpha=alpha,
        k=k,
        structure=doc.structure,
        weights=doc.weights,
        cutoffs=doc.cutoffs,
    )


def load_config(
    path,
    alpha_override: float | None = None,
    k_override: float | None = None,
    k_fraction_override: float | None = None,
) -> MethodologyConfig:
    """Load and resolve a config file in one step; a missing field names the path."""
    doc = load_config_document(path)
    try:
        return resolve_methodology(doc, alpha_override, k_override, k_fraction_override)
    except MissingField as exc:
        raise MissingField(f"{path}: {exc}") from None


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _bounds_fields(summary: BoundsSummary) -> dict:
    """The rounded count bounds and jumps shared by the report and ``bounds``."""
    return {
        "d_bar": _round12(summary.upper),
        "d_under": _round12(summary.lower_nonzero),
        "d_tilde": _round12(summary.weighted_upper),
        "deltas": [_round12(v) for v in summary.jumps],
    }


def config_echo(config: MethodologyConfig) -> dict:
    """Full-precision config section; reloads to an identical methodology."""
    return {
        "cutoffs": [float(z) for z in config.cutoffs.values],
        "alpha": float(config.alpha),
        "k": {"mode": "absolute", "value": float(config.k)},
        "dependence": [[float(v) for v in row] for row in config.structure.entries],
        "weights": [float(w) for w in config.weights.values],
    }


def build_report(
    dataset: Dataset, config: MethodologyConfig, diagnostic_naive: bool = False
) -> dict:
    """Assemble the report dict, keys in their documented order."""
    y = dataset.achievements
    if y.d != config.d:
        raise ValidationError(
            f"dataset has d = {y.d} dimensions, config has d = {config.d}"
        )
    # the aggregate's own counts and statuses, so the rows match it exactly;
    # the censored matrix is dropped here, not held through the report build
    result, counts, statuses = _coefficient_pass(y, config)[:3]
    scored = deprivation_matrix(
        y, config.cutoffs, config.structure, config.alpha, config.weights
    )
    report: dict = {
        "fgt_value": _round12(result.value),
        "headcount_ratio": _round12(headcount_ratio(statuses)),
        **_bounds_fields(bounds_summary(config.structure, config.weights)),
    }
    if diagnostic_naive:
        # at the methodology's k, which was checked against d_tilde only
        naive = _coefficient_pass(y, config, "naive")[0]
        report["naive_diagnostic"] = {
            "label": "naive (manipulable)",
            "value": _round12(naive.value),
            "denominator": _round12(naive.denominator),
        }
    report["dimensions"] = list(dataset.dimension_names)
    report["per_person"] = [
        {
            "id": pid,
            "deprivation_count": _round12(counts[i]),
            "poor": int(statuses.statuses[i]),
            "scores": [_round12(v) for v in scored.values[i]],
        }
        for i, pid in enumerate(dataset.ids())
    ]
    report["config"] = config_echo(config)
    report["software_version"] = __version__
    return report


def render_report(report) -> str:
    """A report, or any JSON payload, as indented JSON ending in a newline."""
    return json.dumps(report, indent=2) + "\n"


def _write_text(text: str, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise WriteError(f"could not write {path}: {exc}") from exc


def run_report(
    dataset: Dataset,
    config: MethodologyConfig,
    out_path=None,
    diagnostic_naive: bool = False,
) -> dict:
    """Build the report and, when a path is given, write it to disk."""
    report = build_report(dataset, config, diagnostic_naive=diagnostic_naive)
    if out_path is not None:
        _write_text(render_report(report), out_path)
    return report


def recompute_fgt_value(report: dict) -> float:
    """Rebuild the aggregate from per-person records and the config echo.

    Must reproduce ``fgt_value`` to 1e-12; used to confirm a report is
    internally consistent.
    """
    config = report["config"]
    structure = as_dependence_structure(config["dependence"])
    weights = validate_weights(config["weights"], structure.d)
    ceiling = weighted_upper_bound(structure, weights)
    persons = report["per_person"]
    total = math.fsum(
        math.fsum(rec["scores"]) for rec in persons if rec["poor"] == 1
    )
    return total / (len(persons) * ceiling)

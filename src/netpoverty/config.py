"""Methodology configs: the JSON format, its loader and its echo.

Config (JSON object, UTF-8; a leading byte-order mark is ignored):

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
So is any other field, or a field given twice, at the top level or inside ``k``,
and nesting deeper than 32 arrays or objects.  ``bounds`` and
``implied-weights`` need neither alpha nor k; ``compute``, ``axioms`` and
``compare`` need alpha from the config or from ``--alpha``, and k from the
config (``compute`` and ``compare`` also take ``--k`` / ``--k-fraction``).

This module needs only ``core``, ``bounds`` and ``errors``, so loading a
config runs no kernel, reader or report code.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import accumulate

from .bounds import weighted_upper_bound
from .core import (
    CutoffVector,
    DependenceStructure,
    MethodologyConfig,
    WeightVector,
    _real,
    as_cutoff_vector,
    as_dependence_structure,
    validate_weights,
)
from .errors import CutoffOutOfRange, MissingField, NotSquare, ParseError, ValidationError


@dataclass(frozen=True)
class ConfigDocument:
    """Parsed config fields, core-validated, with k still unresolved."""

    cutoffs: CutoffVector
    structure: DependenceStructure
    weights: WeightVector
    alpha: float | None
    k_mode: str | None
    k_value: float | None


def _require(path, doc: dict, key: str, field: str | None = None):
    if key not in doc:
        raise MissingField(f"{path}: config field {field or key!r} is required")
    return doc[key]


class _Repeated(dict):
    """A JSON object that gives a key more than once; ``key`` is the first such key."""

    key: str


def _object(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook``: the object as a dict, a :class:`_Repeated` one if a key repeats."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set[str] = set()
        doc = _Repeated(doc)
        doc.key = next(key for key, _ in pairs if key in seen or seen.add(key))
    return doc


#: the JSON type behind each value ``json.loads(..., parse_int=float,
#: object_pairs_hook=_object)`` returns
_JSON_TYPES = {
    dict: "an object", _Repeated: "an object", list: "an array", str: "a string",
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


def _check_fields(path, doc: dict, known: tuple, where: str) -> None:
    """Refuse a field not in ``known``, then a field given twice."""
    for key in doc:
        if key not in known:
            shown = key if len(key) <= 40 else key[:40] + "..."
            raise ValidationError(f"{path}: unknown {where} {shown!r}")
    if isinstance(doc, _Repeated):
        raise ValidationError(f"{path}: duplicate {where} {doc.key!r}")


def load_config_document(path) -> ConfigDocument:
    """Parse a config file and run core validation on each piece."""
    # utf-8-sig drops the byte-order mark some editors write, as the dataset reader does
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    _check_nesting(path, text)
    try:
        doc = json.loads(text, parse_int=float, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON: {exc.msg}", row=exc.lineno, column=exc.colno
        ) from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    _check_fields(path, doc, _CONFIG_FIELDS, "config field")

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
            _check_fields(path, k_field, _K_FIELDS, "k field")
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


def config_echo(config: MethodologyConfig) -> dict:
    """Full-precision config section; reloads to an identical methodology."""
    return {
        "cutoffs": [float(z) for z in config.cutoffs.values],
        "alpha": float(config.alpha),
        "k": {"mode": "absolute", "value": float(config.k)},
        "dependence": [[float(v) for v in row] for row in config.structure.entries],
        "weights": [float(w) for w in config.weights.values],
    }

"""File formats: dataset ingestion, methodology configs, poverty reports.

Dataset (CSV, UTF-8 with an optional byte-order mark, comma-delimited,
ASCII digits, '.' decimal separator, no thousands or digit separators):
a required header row of unique dimension names followed by one row per
person.  A first column headed ``id`` (case-insensitive) is treated as
a person identifier and must be unique; every other cell must parse as
a finite nonnegative real.  Missing cells are rejected, never imputed:
imputation would silently change poverty counts.  Cells longer than the
csv module's field limit (131,072 characters by default) are rejected.
A bulk pass splits the lines after the header into contiguous byte
ranges, one per usable CPU and each of at least ``_FORK_BYTES`` bytes,
every cut just after a newline.  The caller parses the first range, and
a worker forked for each other range parses it and sends back its ids
and its doubles through its pipe (:func:`netpoverty.deprivation._forked`);
a worker in doubt exits 1.  Each range opens the file for itself, so no
two processes share a file offset.  Every range is read in chunks
of whole lines (about 64 KB), each parsed with one numpy call; the
ranges are joined in file order into one flat buffer of doubles.  With
one range, nothing is forked.  Line ends may be LF or CRLF.  When a
chunk holds anything it cannot vouch for (a quote, a carriage return
not right before a newline, a NUL, a blank or ragged row, an over-long
line, an id that is not UTF-8, an achievement cell with a byte other
than ASCII digits, ``.``, ``e``, ``E``, ``+``, ``-``, space or tab, a
value that is not finite or is negative), or a worker fails, a checking
loop reads the file again from the start, row by row.  That loop alone
names errors, so both give the same arrays and the same error.

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

Every report comes from :func:`stream_report`: every check and all
numeric work run first, then the text is produced a few thousand
persons at a time from one fixed per-person template, with no report
dict.  Each chunk's nonzero scores are formatted by one ``%``.  A
person's record depends on that person's row alone, so the chunks fall
into contiguous ranges, one per usable CPU and each of at least
``_FORK_PERSONS`` persons.  The caller formats the first range; every
other range is formatted by a worker forked for it, which writes its
text into a pipe that the caller copies out in order, 64 KB a read.
The fork, pipe and reaping code is :func:`netpoverty.deprivation._forked`,
which the dataset load and the axiom suite run on too.  With one range,
or with other threads running, nothing is forked.  However the stream
ends (done, failed, closed or dropped), every worker is reaped before
the caller goes on; a failed worker raises :class:`WriteError`.  There
is no option.  ``compute`` writes that text; :func:`run_report` and
:func:`build_report` also parse it, so their dict is the streamed text
read back.  The reference the text is tested against is built apart,
in the tests, from the public counts, statuses, scores and bounds.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import re
import struct
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from json.encoder import encode_basestring_ascii

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
    _adopted,
    _real,
    as_cutoff_vector,
    as_dependence_structure,
    validate_weights,
)
from .deprivation import _fork_count, _forked, _score_values
from .errors import (
    CutoffOutOfRange,
    EmptyDataset,
    MissingField,
    NegativeAchievement,
    NotSquare,
    ParseError,
    RaggedRow,
    ShapeMismatch,
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

    def __post_init__(self) -> None:
        ids = self.person_ids
        if ids is None:
            return
        try:
            if len(ids) != self.n:
                raise TypeError
            # a report is UTF-8: a lone surrogate has no encoding there
            "".join(ids).encode("utf-8")
        except TypeError:
            raise ShapeMismatch(f"person_ids must be {self.n} strings, one per person") from None
        except UnicodeEncodeError:
            raise ShapeMismatch("person_ids hold a surrogate code point, not UTF-8 text") from None

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
    achievement columns (the header and any id column excluded).  Rows
    are checked as they are read, so of several faulty rows the first in
    the file is reported.  Duplicate ids are checked after the last row;
    an invalid UTF-8 byte is reported when the block of text holding it
    is decoded, which can be before earlier rows in that block are read.

    A bulk pass parses the file first, in byte ranges of whole lines
    that forked workers parse beside the caller (see :func:`_read_bulk`).
    Whenever it cannot vouch for a chunk of any range, or a worker
    fails, the checking loop reads the file again from the start, and
    that loop alone names errors, so both give the same result.
    """
    try:
        names, ids, values = _read_bulk(path)
    except _InDoubt:
        names, ids, values = _read_checked(path)
    if not values:
        raise EmptyDataset(f"{path}: no data rows")
    if ids is not None:
        _reject_duplicates(path, ids, "person id")
    # both readers checked every cell, so the parsed buffer is frozen as the payload
    y = np.frombuffer(values).reshape(-1, len(names))
    return Dataset(
        achievements=_adopted(AchievementMatrix, values=y),
        dimension_names=tuple(names),
        person_ids=None if ids is None else tuple(ids),
    )


def _columns(path, header: list[str]) -> tuple[bool, list[str]]:
    """Whether the stripped header starts with an id column, and the dimension names."""
    if not any(header):
        raise EmptyDataset(f"{path}: header row is empty")
    has_ids = header[0].lower() == "id"
    names = header[has_ids:]  # True slices off the id column
    if not names:
        raise EmptyDataset(f"{path}: no achievement columns")
    _reject_duplicates(path, names, "dimension name")
    return has_ids, names


def _numeral(text: str, parse=float):
    """``parse(text)`` on the numerals a dataset cell may hold: ASCII, no ``_`` grouping."""
    if "_" in text or not text.isascii():  # float() and int() take both
        raise ValueError
    return parse(text)


def _read_checked(path) -> tuple[list[str], list[str] | None, array]:
    """Names, ids and the flat values, every cell checked as its row is read."""
    ids: list[str] = []
    values = array("d")
    # utf-8-sig drops a byte-order mark that would otherwise hide the id header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise EmptyDataset(f"{path}: file is empty")
            has_ids, names = _columns(path, [cell.strip() for cell in header])
            width = len(names) + has_ids
            for r, row in enumerate(reader, start=1):
                if len(row) != width:
                    raise RaggedRow(
                        f"{path}: row {r} has {len(row)} fields, header has {width}",
                        row=r,
                    )
                if has_ids:
                    ids.append(row[0].strip())
                for c, cell in enumerate(row[has_ids:], start=1):
                    text = cell.strip()
                    try:
                        value = _numeral(text)
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
                    values.append(value)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    return names, ids if has_ids else None, values


class _InDoubt(Exception):
    """The bulk pass cannot vouch for the file; the checking loop reads it instead."""


#: bytes the bulk pass reads at a time; lines up to this long stay in one chunk
_BLOCK = 1 << 16
#: fewest bytes of data lines in a range of the bulk pass: on 2 CPUs, loading the
#: first rows of the 100,000 x 5 benchmark file took 3.0 ms in one range against
#: 4.2 ms in two at 0.2 MB, 7.6 against 7.3 at 0.5 MB, 11.2 against 9.6 at 0.75 MB,
#: 16.3 against 13.3 at 1.05 MB and 64.6 against 47.0 at 4.2 MB (median of 21);
#: two ranges pay from ranges of about 0.23 MB, and this is twice that
_FORK_BYTES = 1 << 19
#: a worker's range, as it sends it: the byte lengths of its ids text and of
#: its values, which follow
_RECORD = struct.Struct("<qq")
#: every byte but the cell and row separators, deleted to leave a chunk's skeleton
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")
#: the bytes of an achievement cell the bulk pass parses: float() syntax for an
#: ASCII decimal, plus the spaces and tabs strip() removes (no `_`, inf or nan)
_NUMERIC = b"0123456789.eE+- \t"
#: bytes the csv module reads specially, other than the separators
_CSV_SPECIAL = (b'"', b"\r", b"\0")


def _read_bulk(path) -> tuple[list[str], list[str] | None, array]:
    """:func:`_read_checked`'s result a range of whole lines at a time, or :class:`_InDoubt`.

    The header is the file's first line.  The lines after it fall into
    contiguous byte ranges, one per usable CPU and each of at least
    ``_FORK_BYTES`` bytes, every cut just after a newline.  The caller
    parses the first range; each other range is parsed by a worker forked
    for it (:func:`netpoverty.deprivation._forked`), which sends back its
    ids text and its values, or exits 1 when it is in doubt.  Each range
    opens the file for itself: a worker opens it after the fork, so it
    shares no file offset with the caller.  One range is parsed in the
    caller by the same function, with no fork.  Each chunk of a
    range is split into cells and parsed by one
    ``np.array(cells, dtype=float)``, which calls ``float()`` on each
    cell, after checks that leave it no other reading: CRLF line ends
    made LF; no quote, other carriage return or NUL; every row the
    header's width; achievement cells made of :data:`_NUMERIC` bytes
    only; ids valid UTF-8; no line longer than the csv field limit.  The
    ranges are joined in file order, and finiteness and sign are checked
    once, on the joined values.  A range in doubt, a worker that fails,
    or a read or fork that fails makes the whole file :class:`_InDoubt`.
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        try:
            size = os.fstat(fh.fileno()).st_size
            first = next(_line_blocks(fh, limit, 0, size), b"")
            # the csv module ends a row at CRLF as at LF; any other carriage return
            # stays, and the cell checks below refer its chunk to the loop
            line = first.partition(b"\n")[0].removesuffix(b"\r")
            if any(c in line for c in _CSV_SPECIAL):
                raise _InDoubt
            try:
                header = line.decode("utf-8-sig").split(",")
                has_ids, names = _columns(path, [cell.strip() for cell in header])
            except (UnicodeDecodeError, ValidationError):  # the loop names the fault
                raise _InDoubt from None
            width = len(names) + has_ids
            skeleton = b"," * (width - 1) + b"\n"

            def parse(bounds: tuple[int, int]) -> tuple[list[str], array]:
                """The ids and values of the lines in ``[start, stop)``, or :class:`_InDoubt`."""
                ids: list[str] = []
                values = array("d")
                with open(path, "rb") as own:  # a worker opens its own after the fork
                    for chunk in _line_blocks(own, limit, *bounds):
                        chunk = chunk.replace(b"\r\n", b"\n")
                        if chunk.translate(None, _NOT_SEPARATORS) != skeleton * chunk.count(b"\n"):
                            raise _InDoubt
                        cells = chunk.replace(b"\n", b",").split(b",")
                        del cells[-1]  # after the last newline
                        if has_ids:
                            text = b"\n".join(cells[::width])
                            del cells[::width]
                            if any(c in text for c in _CSV_SPECIAL):
                                raise _InDoubt
                            try:
                                ids += map(str.strip, text.decode("utf-8").split("\n"))
                            except UnicodeDecodeError:
                                raise _InDoubt from None
                        if b"".join(cells).translate(None, _NUMERIC):
                            raise _InDoubt
                        try:
                            values.frombytes(np.array(cells, dtype=float).tobytes())
                        except ValueError:
                            raise _InDoubt from None
                return ids, values

            def record(bounds: tuple[int, int]) -> bytes:
                """A worker's range as :data:`_RECORD`, its ids one a line, and its values."""
                ids, values = parse(bounds)  # in doubt, the worker exits 1
                text = "\n".join(ids).encode()
                return b"".join([_RECORD.pack(len(text), len(values) * 8), text, values])

            start = min(first.find(b"\n") + 1, size)  # past the header
            cuts = [start]
            ranges = _fork_count(size - start, _FORK_BYTES)
            for i in range(1, ranges):
                at = start + (size - start) * i // ranges
                # just after the first newline from the byte before ``at`` on
                cut = at + next(_line_blocks(fh, limit, at - 1, size)).index(b"\n")
                if cuts[-1] < cut < size:  # a line across several cuts makes one range
                    cuts.append(cut)
            cuts.append(size)
            bounds = list(zip(cuts, cuts[1:]))
            parts = [map(parse, bounds[:1]), *(map(record, [b]) for b in bounds[1:])]
            stream = _forked(parts, 1 << 16)
            ids, values = next(stream)  # the first range, parsed here
            blob = b"".join(stream)  # each other range's record, in file order
        except (OSError, WriteError):  # a read, a fork or a worker failed
            raise _InDoubt from None
    view, at = memoryview(blob), 0
    while at < len(blob):
        id_bytes, value_bytes = _RECORD.unpack_from(blob, at)
        at += _RECORD.size + id_bytes + value_bytes
        if has_ids:
            ids += blob[at - value_bytes - id_bytes : at - value_bytes].decode().split("\n")
        values.frombytes(view[at - value_bytes : at])
    parsed = np.frombuffer(values)
    if parsed.size and not (parsed.min() >= 0.0 and parsed.max() < math.inf):
        raise _InDoubt
    return names, ids if has_ids else None, values


def _line_blocks(fh, limit: int, start: int, stop: int) -> Iterator[bytes]:
    """Bytes ``[start, stop)`` of a binary file in chunks of whole lines, each ending in a newline.

    Each read seeks first, so other reads of ``fh`` between chunks do not move this one.
    """
    tail = b""
    while start < stop:
        fh.seek(start)
        if not (block := fh.read(min(_BLOCK, stop - start))):
            break
        start += len(block)
        tail += block
        if len(tail) > limit:  # a line, or a chunk, longer than the csv field limit
            raise _InDoubt
        end = tail.rfind(b"\n") + 1
        if end:
            yield tail[:end]
            tail = tail[end:]
    if tail:  # the last line need not end in a newline
        yield tail + b"\n"


def _reject_duplicates(path, values: list[str], what: str) -> None:
    if len(set(values)) == len(values):
        return
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
    """The report dict, keys in their documented order: :func:`stream_report`'s text, parsed."""
    return run_report(dataset, config, None, diagnostic_naive)


def render_report(report) -> str:
    """A report, or any JSON payload, as indented JSON ending in a newline."""
    return json.dumps(report, indent=2) + "\n"


def stream_report(
    dataset: Dataset, config: MethodologyConfig, diagnostic_naive: bool = False
) -> Iterator[str]:
    """The report text in chunks, as :func:`render_report` would write its dict.

    Every check and all the numeric work run in this call, so an invalid
    input raises before any text exists.  The returned iterator formats
    the per-person records a few thousand at a time, with no report dict.
    """
    y = dataset.achievements
    # the pass checks d; its own counts and statuses make the rows match the
    # aggregate exactly, and it keeps no N x d array
    result, counts, statuses = _coefficient_pass(y, config)[:3]
    head: dict = {
        "fgt_value": _round12(result.value),
        "headcount_ratio": _round12(headcount_ratio(statuses)),
        **_bounds_fields(bounds_summary(config.structure, config.weights)),
    }
    if diagnostic_naive:
        # at the methodology's k, which was checked against d_tilde only
        naive = _coefficient_pass(y, config, "naive")[0]
        head["naive_diagnostic"] = {
            "label": "naive (manipulable)",
            "value": _round12(naive.value),
            "denominator": _round12(naive.denominator),
        }
    head["dimensions"] = list(dataset.dimension_names)
    # deprivation_matrix's arithmetic, on arrays the kernel pass already validated
    scores = _score_values(
        y.values, config.cutoffs.values, config.structure, config.alpha, config.weights.values
    )
    tail = {"config": config_echo(config), "software_version": __version__}
    return _report_text(head, dataset.person_ids, counts, statuses.statuses, scores, tail)


#: persons formatted per chunk of streamed report text
_CHUNK_PERSONS = 4096
#: fewest persons in a range of report text: forking and reaping a worker
#: takes about 3 ms, a quarter of one chunk's text at d = 5; a report of up
#: to two chunks and a person is one range
_FORK_PERSONS = 16_384


def _json_floats(values: np.ndarray) -> list[str]:
    """Each value as ``json.dumps(_round12(v))`` writes it, by one ``%`` over all of them.

    That text is ``repr(float("%.12g" % v))``.  The ``%.12g`` text is
    already it but where it has no ``.``, as 12 significant digits round
    to a whole number, so within 5e-12 |v| of one; or where its exponent
    form is not the repr: from 1e12 on, where every value is that near a
    whole number, and for subnormals.  Only the texts of those values are
    looked at again.
    """
    texts = (("%.12g," * values.size) % tuple(values.tolist())).split(",")
    del texts[-1]  # after the last comma
    size = np.abs(values)
    near = (np.abs(values - np.rint(values)) <= 1e-11 * size) | (size < sys.float_info.min)
    for i in np.flatnonzero(near).tolist():
        text = texts[i]
        if "e" in text:
            texts[i] = repr(float(text))
        elif "." not in text:
            texts[i] = text + ".0"
    return texts


def _report_text(
    head: dict, person_ids, counts, statuses, scores, tail: dict
) -> Iterator[str]:
    """The report as ``json.dumps(indent=2)`` writes it, one chunk of persons at a time.

    The chunks fall into contiguous ranges of whole chunks, one per
    usable CPU, each of at least ``_FORK_PERSONS`` persons; every range
    after the first is formatted by a forked worker (see
    :func:`netpoverty.deprivation._forked`).  With threads running, or one
    range, nothing is forked.
    """
    yield json.dumps(head, indent=2)[:-2] + ',\n  "per_person": [\n'
    n, d = scores.shape
    record = (
        '    {\n      "id": %s,\n      "deprivation_count": %s,\n      "poor": %d,\n'
        '      "scores": [\n' + ",\n".join(["        %s"] * d) + "\n      ]\n    }"
    )
    width = d + 3
    # counts take at most 2**d values: format each distinct bit pattern once
    levels, level_of = np.unique(counts.view(np.int64), return_inverse=True)
    level_text = np.array(_json_floats(levels.view(np.float64)), object)

    def chunk(start: int) -> str:
        stop = min(start + _CHUNK_PERSONS, n)
        fields = [None] * ((stop - start) * width)
        if person_ids is None:
            fields[0::width] = range(start + 1, stop + 1)
        else:
            fields[0::width] = map(encode_basestring_ascii, person_ids[start:stop])
        fields[1::width] = level_text[level_of[start:stop]].tolist()
        fields[2::width] = statuses[start:stop].tolist()
        block = scores[start:stop]
        score_text = np.empty(block.shape, object)
        score_text.fill("0.0")  # +0.0: the score of every undeprived cell
        nonzero = block.view(np.int64) != 0
        score_text[nonzero] = _json_floats(block[nonzero])
        for j in range(d):
            fields[3 + j :: width] = score_text[:, j].tolist()
        text = ",\n".join([record] * (stop - start)) % tuple(fields)
        return text if start == 0 else ",\n" + text

    starts = range(0, n, _CHUNK_PERSONS)
    ranges = _fork_count(n, _FORK_PERSONS)
    cuts = [len(starts) * i // ranges for i in range(ranges + 1)]
    parts = [map(chunk, starts[a:b]) for a, b in zip(cuts, cuts[1:])]
    # a worker's range goes through its pipe as ASCII, read 64 KB at a time
    yield from _forked([parts[0], *(map(str.encode, p) for p in parts[1:])], 1 << 16, bytes.decode)
    yield "\n  ],\n" + json.dumps(tail, indent=2)[2:] + "\n"


def write_text(chunks, path=None) -> None:
    """Write text chunks (a ``str`` is one chunk) to ``path``, or to stdout.

    A file that was opened but could not be written whole is removed, so
    a failed stream leaves no truncated report behind.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise WriteError(f"could not write {path}: {exc}") from exc
    try:
        with fh:
            fh.writelines(chunks)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            if os.path.isfile(path):  # never a device or a pipe
                os.remove(path)
        if isinstance(exc, OSError):
            raise WriteError(f"could not write {path}: {exc}") from exc
        raise


def run_report(
    dataset: Dataset,
    config: MethodologyConfig,
    out_path=None,
    diagnostic_naive: bool = False,
) -> dict:
    """The report as ``json.loads`` of its text, which is written to ``out_path`` if given."""
    text = "".join(stream_report(dataset, config, diagnostic_naive))
    if out_path is not None:
        write_text(text, out_path)
    return json.loads(text)


def _report_field(doc, key: str, where: str):
    if not isinstance(doc, dict):
        raise ValidationError(
            f"malformed report: {where} must be an object, got {type(doc).__name__}"
        )
    if key not in doc:
        raise ValidationError(f"malformed report: {where} has no {key!r} field")
    return doc[key]


def recompute_fgt_value(report: dict) -> float:
    """Rebuild the aggregate from per-person records and the config echo.

    Must reproduce ``fgt_value`` to 1e-12; used to confirm a report is
    internally consistent.  A report without the fields this reads, or
    with records that are not objects, a ``poor`` other than the integer 0
    or 1, scores other than d numbers (booleans are not numbers here), or
    a poor person's scores without a finite sum, raises ValidationError.
    """
    config = _report_field(report, "config", "the report")
    structure = as_dependence_structure(_report_field(config, "dependence", "config"))
    weights = validate_weights(_report_field(config, "weights", "config"), structure.d)
    ceiling = weighted_upper_bound(structure, weights)
    persons = _report_field(report, "per_person", "the report")
    if not isinstance(persons, list) or not persons:
        raise ValidationError("malformed report: per_person must be a nonempty array")
    sums = []
    for i, rec in enumerate(persons):
        where = f"per_person[{i}]"
        poor = _report_field(rec, "poor", where)
        if type(poor) is not int or poor not in (0, 1):
            raise ValidationError(f"malformed report: {where} poor must be 0 or 1, got {poor!r}")
        scores = _report_field(rec, "scores", where)
        if not (
            isinstance(scores, list)
            and len(scores) == structure.d
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in scores)
        ):
            raise ValidationError(
                f"malformed report: {where} scores must be an array of {structure.d} numbers"
            )
        if poor:
            sums.append(_finite_sum(scores, f"{where} scores"))
    return _finite_sum(sums, "the poor persons' scores") / (len(persons) * ceiling)


def _finite_sum(values, what: str) -> float:
    """``math.fsum`` of a report's numbers, which must have a finite sum."""
    try:
        total = math.fsum(values)
    except (TypeError, ValueError, OverflowError):  # not numbers, inf - inf, past the range
        total = math.nan
    if not math.isfinite(total):
        raise ValidationError(f"malformed report: {what} must be numbers with a finite sum")
    return total

"""File formats: dataset ingestion and poverty reports.

JSON methodology configs live in :mod:`netpoverty.config`.

Dataset (CSV, UTF-8 with an optional byte-order mark, comma-delimited,
ASCII digits, '.' decimal separator, no thousands or digit separators):
a required header row of unique dimension names followed by one row per
person.  A first column headed ``id`` (case-insensitive) is treated as
a person identifier and must be unique; every other cell must parse as
a finite nonnegative real.  Missing cells are rejected, never imputed:
imputation would silently change poverty counts.  Cells longer than the
csv module's field limit (131,072 characters by default) are rejected.
A bulk pass reads the lines after the header in chunks of whole lines
(about 64 KB), each parsed with one ``np.loadtxt`` into one flat buffer
of doubles; it forks nothing.  Line ends may be LF or CRLF.  When a
chunk holds anything it cannot vouch for (a quote, a carriage return
not right before a newline, a NUL, a blank or ragged row, an over-long
line, bytes that are not UTF-8, a cell numpy does not read as a number,
a value that is not finite or is negative), a checking loop reads the
file again from the start, row by row.  That loop alone names errors,
so both give the same arrays and the same error.

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
persons at a time, with no report dict.  Each chunk of persons is one
``uint8`` matrix, a row a person, holding the record template's bytes
and the id, count, ``poor`` and score fields, each NUL-padded (an id
is its JSON text: a dataset without ids numbers its persons from 1); the
matrix's bytes with the NULs deleted are the chunk's text, and a chunk
whose matrix would pass ``_MATRIX_BYTES`` is built in halves.  A float's
text is written from its 12 significant digits by integer arithmetic
and tables of 3-digit groups; a value that path cannot vouch for (a
near tie, one below 1e-4 or from 1e3 on, -0.0) takes the definition,
``repr(float("%.12g" % v))``.  Every chunk is formatted in the calling
process, in order; nothing is forked.  ``compute`` writes that text;
:func:`run_report` also parses it, so its dict is the streamed text
read back.  The reference the text is tested against is built apart,
in the tests, from the public counts, statuses, scores and bounds.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import os
import sys
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .aggregation import _denominator, _value
from .bounds import BoundsSummary, bounds_summary, weighted_upper_bound
from .config import config_echo
from .core import (
    AchievementMatrix,
    MethodologyConfig,
    _adopted,
    _finite_nonnegative,
    as_dependence_structure,
    validate_weights,
)
from .deprivation import _counts, _score_values
from .errors import (
    EmptyDataset,
    NegativeAchievement,
    ParseError,
    RaggedRow,
    ShapeMismatch,
    ValidationError,
    WriteError,
)
from .identification import _identify, headcount_ratio


@dataclass(frozen=True)
class Dataset:
    """Validated achievements plus the header metadata they came with.

    The constructor takes raw achievements too, and checks for d distinct
    dimension names and, when given, n distinct text ids, one per person;
    it stores both as tuples.
    """

    achievements: AchievementMatrix
    dimension_names: tuple[str, ...]
    person_ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.achievements, AchievementMatrix):
            object.__setattr__(self, "achievements", AchievementMatrix(self.achievements))
        names = _distinct_texts(self.dimension_names, self.d, "dimension_names", "dimension name")
        object.__setattr__(self, "dimension_names", names)
        if self.person_ids is None:
            return
        ids = _distinct_texts(self.person_ids, self.n, "person_ids", "person id")
        try:
            # a report is UTF-8: a lone surrogate has no encoding there
            "".join(ids).encode("utf-8")
        except UnicodeEncodeError:
            raise ShapeMismatch("person_ids hold a surrogate code point, not UTF-8 text") from None
        object.__setattr__(self, "person_ids", ids)

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


def _distinct_texts(texts, count: int, field: str, what: str) -> tuple[str, ...]:
    """``texts`` as a tuple of ``count`` distinct strings, each a ``what``."""
    try:
        if isinstance(texts, str):  # one string, not a sequence of one-character names
            raise TypeError
        texts = tuple(texts)
        if len(texts) != count or not all(isinstance(text, str) for text in texts):
            raise TypeError
    except TypeError:
        each = what.split()[0]
        raise ShapeMismatch(f"{field} must be {count} strings, one per {each}") from None
    _reject_duplicates(field, texts, what)
    return texts


def load_dataset(path) -> Dataset:
    """Read and validate a dataset file.

    Row and column numbers in errors are 1-based and count data rows and
    achievement columns (the header and any id column excluded).  Rows
    are checked as they are read, so of several faulty rows the first in
    the file is reported.  Duplicate ids are checked after the last row;
    an invalid UTF-8 byte is reported when the block of text holding it
    is decoded, which can be before earlier rows in that block are read.

    A bulk pass parses the file first, a chunk of whole lines at a time
    (see :func:`_read_bulk`).  Whenever it cannot vouch for a chunk, the
    checking loop reads the file again from the start, and that loop
    alone names errors, so both give the same result.
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
    # one id a row, each from a strict UTF-8 decode: no surrogate, so nothing to re-check
    return _adopted(
        Dataset,
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
#: every byte but the cell and row separators, deleted to leave a chunk's skeleton
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")
#: bytes the csv module reads specially, other than the separators
_CSV_SPECIAL = (b'"', b"\r", b"\0")


def _read_bulk(path) -> tuple[list[str], list[str] | None, array]:
    """:func:`_read_checked`'s result a chunk of whole lines at a time, or :class:`_InDoubt`.

    The header is the file's first line.  The lines after it are read in
    chunks of whole lines (about ``_BLOCK`` bytes), and each chunk is
    parsed by one ``np.loadtxt``, numpy's C reader, which reads a cell
    as ``float()`` does but refuses ``_`` grouping and non-ASCII digits.
    Checks first leave it no other reading: CRLF line ends made LF; no
    quote, other carriage return or NUL; every row the header's width;
    no blank line (``np.loadtxt`` would skip it), which from two columns
    on the width check already finds; the chunk valid UTF-8;
    no line longer than the csv field limit.  An id is its line's first
    cell, stripped.  The joined values take the API's check of finiteness
    and sign, :func:`~netpoverty.core._finite_nonnegative`.  A chunk in
    doubt or a failed read makes the whole file :class:`_InDoubt`.
    """
    ids: list[str] = []
    values = array("d")
    with open(path, "rb") as fh:
        try:
            chunks = _line_blocks(fh, csv.field_size_limit(), os.fstat(fh.fileno()).st_size)
            # the csv module ends a row at CRLF as at LF; any other carriage return
            # stays, and the chunk checks below refer it to the loop
            line, _, rest = next(chunks, b"").partition(b"\n")
            line = line.removesuffix(b"\r")
            if any(c in line for c in _CSV_SPECIAL):
                raise _InDoubt
            try:
                header = line.decode("utf-8-sig").split(",")
                has_ids, names = _columns(path, [cell.strip() for cell in header])
            except (UnicodeDecodeError, ValidationError):  # the loop names the fault
                raise _InDoubt from None
            width = len(names) + has_ids
            skeleton = b"," * (width - 1) + b"\n"
            for chunk in itertools.chain([rest] if rest else [], chunks):
                if b"\r" in chunk:
                    chunk = chunk.replace(b"\r\n", b"\n")
                # from two columns on, a blank line has no comma and breaks the skeleton
                if (
                    chunk.translate(None, _NOT_SEPARATORS) != skeleton * chunk.count(b"\n")
                    or (width == 1 and (chunk.startswith(b"\n") or b"\n\n" in chunk))
                    or any(c in chunk for c in _CSV_SPECIAL)
                ):
                    raise _InDoubt
                lines = chunk.decode("utf-8").split("\n")
                del lines[-1]  # after the last newline
                if has_ids:
                    ids += [line.partition(",")[0].strip() for line in lines]
                cells = np.loadtxt(
                    lines, delimiter=",", comments=None, usecols=range(has_ids, width), ndmin=2
                )
                values.frombytes(cells.tobytes())
        except (OSError, ValueError):  # a failed read, bytes not UTF-8, a cell numpy refused
            raise _InDoubt from None
    parsed = np.frombuffer(values)
    if parsed.size and not _finite_nonnegative(parsed):
        raise _InDoubt
    return names, ids if has_ids else None, values


def _line_blocks(fh, limit: int, size: int) -> Iterator[bytes]:
    """The first ``size`` bytes of a binary file in chunks of whole lines, each ending in a newline."""
    tail = b""
    while size > 0 and (block := fh.read(min(_BLOCK, size))):
        size -= len(block)
        tail += block
        if len(tail) > limit:  # a line, or a chunk, longer than the csv field limit
            raise _InDoubt
        end = tail.rfind(b"\n") + 1
        if end:
            yield tail[:end]
            tail = tail[end:]
    if tail:  # the last line need not end in a newline
        yield tail + b"\n"


def _reject_duplicates(where, values: list[str], what: str) -> None:
    if len(set(values)) == len(values):
        return
    seen: set[str] = set()
    for value in values:
        if value in seen:
            raise ValidationError(f"{where}: duplicate {what} {value!r}")
        seen.add(value)


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
    # the censoring pass checks d; the rows' counts come from the same pass censoring
    # nobody, so they and their statuses match the aggregate exactly, and neither pass
    # keeps an N x d array
    value = _value(y, config)
    counts = _counts(y.values, config.cutoffs.values, config.coefficients)
    statuses = _identify(counts, config.k)
    head: dict = {
        "fgt_value": _round12(value),
        "headcount_ratio": _round12(headcount_ratio(statuses)),
        **_bounds_fields(bounds_summary(config.structure, config.weights)),
    }
    if diagnostic_naive:
        # at the methodology's k, which was checked against d_tilde only
        head["naive_diagnostic"] = {
            "label": "naive (manipulable)",
            "value": _round12(_value(y, config, "naive")),
            "denominator": _round12(_denominator(y.n, config, "naive")),
        }
    head["dimensions"] = list(dataset.dimension_names)
    # deprivation_matrix's arithmetic, on arrays the kernel pass already validated
    scores = _score_values(
        y.values, config.cutoffs.values, config.structure, config.alpha, config.weights.values
    )
    tail = {"config": config_echo(config), "software_version": __version__}
    return _report_text(head, dataset.person_ids, counts, statuses.statuses, scores, tail)


#: persons formatted per chunk of streamed report text: on a shared 2-CPU
#: VM the 100,000 x 5 benchmark report took 109.9 ms in one process at 1,024
#: persons a chunk, 105.2 at 2,048, 104.4 at 3,072, 107.6 at 4,096 and 113.4
#: at 8,192 (median of 21), and its compute child 325.3 ms at 4,096 against
#: 335.2 at 2,048 (median of 30 pairs), peaking 1.1 MB higher
_CHUNK_PERSONS = 4096
#: most bytes a chunk's record matrix may take: a chunk with wider rows (a
#: long id, many dimensions) is formatted in halves, so that one long id
#: costs about its own row rather than a chunk of rows as wide as it
_MATRIX_BYTES = 1 << 23
#: bytes a formatted float takes in a record's row, NULs included: the
#: longest JSON text of a rounded double, ``-1.23456789012e-308``, is 19
_FLOAT_FIELD = 24
#: ``10.0 ** i`` for i from 0 to 15, every one exact
_POWERS = (10 ** np.arange(16, dtype=np.int64)).astype(np.float64)
#: the doubles nearest 10**e for e from -4 to 2: none is below the power it stands for
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0])


@functools.cache  # built on first use, so importing the module builds nothing
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 3-digit groups and the integer parts a float's text is made of, as NUL-padded words.

    Group entry g (g < 1000) is g's three digits, entry 1000 + g the same
    with its trailing zeros dropped, and entry 2000 is ``0``; each is 4
    bytes, a ``uint32``.  Prefix entry i (i < 1000) is i's digits and the
    point, entry 1000 + z is ``0.`` and z zeros; each is 8 bytes, a ``uint64``.
    """
    g = np.arange(1000)[:, None]
    digits = g // np.array([100, 10, 1]) % 10 + ord("0")
    groups = np.zeros((2001, 4), np.uint8)
    groups[:1000, :3] = digits
    groups[1000:2000, :3] = digits * (g % np.array([1000, 100, 10]) != 0)
    groups[2000, 0] = ord("0")
    prefixes = np.zeros((1004, 8), np.uint8)
    # leading zeros dropped, the units digit kept
    prefixes[:1000, :3] = digits * (g >= np.array([100, 10, 0]))
    prefixes[:1000, 3] = ord(".")
    prefixes[1000:, :2] = np.frombuffer(b"0.", np.uint8)
    prefixes[1000:, 2:5] = (np.arange(3) < np.arange(4)[:, None]) * ord("0")
    return groups.view(np.uint32).ravel(), prefixes.view(np.uint64).ravel()


def _json_floats(values: np.ndarray) -> list[str]:
    """Each value as ``json.dumps(_round12(v))`` writes it: ``repr(float("%.12g" % v))``."""
    return [repr(_round12(v)) for v in values.tolist()]


def _float_fields(values: np.ndarray) -> np.ndarray:
    """Each finite value's :func:`_json_floats` text as a row of ``_FLOAT_FIELD`` bytes.

    The text's bytes lie in the row in order, with NULs between and after them.

    A value v with 1e-4 <= v < 1e3 takes e = floor(log10 v) and
    p = v * 10**(11 - e), whose one rounding errs by at most 2**-14, so
    m = rint(p) is v's 12 significant digits wherever p is more than
    2.5e-4 from a half-integer and e is right.  e is right, whatever
    log10's error, where v is at least the double nearest 10**e (which is
    at or above 10**e) and m < 10**12.  Its text is its integer part and
    its four 3-digit groups after the point, each looked up in a table.
    Every other value is written as m = 0 with e = -1, which reads
    ``0.0``: right for +0.0, and for the rest (a near tie,
    0.0 < v < 1e-4, v >= 1e3, -0.0, a negative) replaced by
    :func:`_json_floats`' text, the definition.  Masks enter as 0/1
    factors, not as selections, so no step branches on a value.
    """
    inside = (values >= 1e-4) & (values < 1e3)
    e = np.clip(np.floor(np.log10(np.maximum(values, 1e-4))), -4, 2).astype(np.intp)
    p = values * inside * _POWERS[11 - e]
    m = np.rint(p)
    exact = inside & (values >= _DECADES[e + 4]) & (m < 1e12)
    exact &= np.abs(p - np.floor(p) - 0.5) > 2.5e-4
    e = (e + 1) * exact - 1
    # 12 digits after the point: v's own, then as many zeros as the integer part has
    digits = (m * exact * _POWERS[np.maximum(e + 1, 0)]).astype(np.int64)
    whole = digits // 10**12
    rest = fraction = digits - whole * 10**12
    groups, prefixes = _digit_tables()
    words = np.empty((values.size, _FLOAT_FIELD // 4), np.uint32)
    words.view(np.uint64)[:, 0] = prefixes[whole + (e < 0) * (999 - e)]
    first = 1000 * (fraction == 0)  # a whole number's first group reads "0"
    for column, power in enumerate([10**9, 10**6, 10**3, 1], start=2):
        group = rest // power
        rest = rest - group * power
        words[:, column] = groups[group + 1000 * (rest == 0) + first]  # trailing zeros dropped
        first = 0
    fields = words.view(np.uint8)
    other = ~exact & (values.view(np.int64) != 0)
    if other.any():
        texts = np.array(_json_floats(values[other]), f"S{_FLOAT_FIELD}")
        fields[other] = texts.view(np.uint8).reshape(-1, _FLOAT_FIELD)
    return fields


#: a record's text around its fields, each record after the one before's ``,\n``
_RECORD_HEAD = b',\n    {\n      "id": '
_COUNT_HEAD = b',\n      "deprivation_count": '
_POOR_HEAD = b',\n      "poor": '
_SCORES_HEAD = b',\n      "scores": [\n        '
_SCORE_SEP = b',\n        '
_RECORD_TAIL = b"\n      ]\n    }"


def _id_fields(ids: list[str]) -> np.ndarray:
    """Each id's JSON text as a row of bytes, NUL-padded."""
    widths = np.fromiter(map(len, ids), np.intp, len(ids))
    fields = np.zeros((len(ids), widths.max()), np.uint8)
    text = np.frombuffer("".join(ids).encode(), np.uint8)
    fields[np.arange(fields.shape[1]) < widths[:, None]] = text
    return fields


def _records(ids, count_fields, poor, scores) -> bytearray:
    """One chunk of per-person records as report text, each after a ``,\n``.

    ``ids`` is a list of the ids' JSON texts.  The chunk is one ``uint8``
    matrix, a row a person, of the template's bytes and the NUL-padded id,
    count, ``poor`` and score fields; its bytes with the NULs deleted are
    the text.  A chunk whose matrix would pass ``_MATRIX_BYTES`` is
    formatted in halves.
    """
    rows, d = scores.shape
    if rows > 1 and rows * (max(map(len, ids)) + d * _FLOAT_FIELD) > _MATRIX_BYTES:
        halves = slice(rows // 2), slice(rows // 2, rows)
        return bytearray().join(
            _records(ids[h], count_fields[h], poor[h], scores[h]) for h in halves
        )
    score_fields = _float_fields(scores.ravel()).reshape(rows, d, _FLOAT_FIELD)
    poor_fields = (poor + ord("0")).astype(np.uint8)[:, None]
    fields = [_id_fields(ids), count_fields, poor_fields, *score_fields.transpose(1, 0, 2)]
    heads = [_RECORD_HEAD, _COUNT_HEAD, _POOR_HEAD, _SCORES_HEAD] + [_SCORE_SEP] * (d - 1)
    # every row starts as the template, each field's place in it NUL; the
    # matrix is a view of a bytearray, so its text takes no copy of it
    template = b"".join(h + bytes(f.shape[1]) for h, f in zip(heads, fields)) + _RECORD_TAIL
    buffer = bytearray(rows * len(template))
    matrix = np.frombuffer(buffer, np.uint8).reshape(rows, -1)
    matrix[:] = np.frombuffer(template, np.uint8)
    at = 0
    for head, field in zip(heads, fields):
        at += len(head)
        matrix[:, at : at + field.shape[1]] = field
        at += field.shape[1]
    return buffer.translate(None, b"\0")


def _report_text(
    head: dict, person_ids, counts, statuses, scores, tail: dict
) -> Iterator[str]:
    """The report as ``json.dumps(indent=2)`` writes it, one chunk of persons at a time."""
    yield json.dumps(head, indent=2)[:-2] + ',\n  "per_person": [\n'
    n = scores.shape[0]
    ids = range(1, n + 1) if person_ids is None else person_ids
    encode = str if person_ids is None else encode_basestring_ascii  # ints, or quoted text
    # counts take at most 2**d values: format each distinct bit pattern once
    levels, level_of = np.unique(counts.view(np.int64), return_inverse=True)
    level_fields = _float_fields(levels.view(np.float64))

    def chunk(start: int) -> bytearray:
        rows = slice(start, start + _CHUNK_PERSONS)
        texts = list(map(encode, ids[rows]))
        text = _records(texts, level_fields[level_of[rows]], statuses[rows], scores[rows])
        return text if start else text[2:]  # the first record follows no other

    # the text is ASCII: each chunk decodes alone
    yield from (chunk(start).decode() for start in range(0, n, _CHUNK_PERSONS))
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

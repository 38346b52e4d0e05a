"""Deprivation gaps and dependence-adjusted deprivation scores.

For achievement y, cutoff z > 0 and exponent alpha >= 0 the normalized
gap is ((z - y) / z) ** alpha when y < z and 0 otherwise.  At alpha = 0
this is the plain deprivation indicator.  A person sitting exactly at
the cutoff is not deprived for any alpha; this keeps the aggregate
measure at zero when everyone is at the cutoff vector.

The score of dimension j adds to its own gap the average of the other
dimensions' gaps, each scaled by the matching row entry of the
dependence structure:

    score[j] = gap[j] + (1 / (d - 1)) * sum over j' != j of m[j, j'] * gap[j']

With a disconnected (identity) structure the score reduces to the plain
gap; with entries in [0, 1] it is bounded by 2.  Weights multiply the
finished score.  They are never applied inside the neighbor average,
which would conflate the importance of dimensions with the dependence
between them.

``_gaps`` is the one gap routine, in place and overflow-free.  Three kernels
run on :func:`_row_blocks`: the gaps, the scores and :func:`_row_sums`, the
one pass of every aggregate and every count.  It counts each block and sums
its weighted gaps in the block's own buffer (the indicator as 1.0 or 0.0, no
boolean array), and censors the row sums at k's floor in the pass; the counts
are that pass at alpha 0 with a floor that censors nobody (:func:`_counts`).
From two tiles of rows on, :func:`_row_sums` reads the cutoffs and coefficients as
tiles of half a block, so its elementwise steps run as flat loops, not once per row.
The axiom suite's shares of trials run on :func:`_forked`: one share here,
each other in a worker process forked for it.

Determinism: every per-person quantity here depends only on that
person's row and is computed through fixed reduction trees, so results
are invariant under row reordering, the same on any number of CPUs and
bit-for-bit reproducible on one machine and numpy build.  At every alpha
up to 32 that is a multiple of 1/2 the gaps are made of correctly rounded
operations only, so they are the same bits on any machine too; at any other
alpha numpy's ``power`` follows the CPU's SIMD dispatch.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    DependenceStructure,
    WeightVector,
    _achievement_values,
    _adopted,
    _check_alpha,
    _coefficient_values,
    _frozen_array,
    as_cutoff_vector,
    as_dependence_structure,
    as_weight_vector,
)
from .errors import ShapeMismatch, ValidationError, WriteError

# cells per row block of a blocked pass: 256 KB of doubles, so a block stays in L2;
# _row_sums's tiles of cutoffs and of coefficients take half as many each, so the
# two together are one block's size (full-block tiles were no faster on the
# sweep-wide benchmark and raised its traced peak by a tenth)
_BLOCK_CELLS = 1 << 15
# n * width from which a blocked pass shares its blocks among threads on the usable CPUs:
# 4 blocks; at d = 20 on 2 CPUs, 2 and 3 were slower (counts 307 -> 347 us and
# 352 -> 431 us, gaps at 3 blocks 574 -> 686 us)
_PARALLEL_CELLS = 1 << 17
# largest q for which the gaps at alpha = q / 2 are taken by repeated squaring: at most
# 5 squarings, 5 products and a sqrt a block, and an error of at most about 32 ulp
_SQUARING_HALVES = 64


@dataclass(frozen=True)
class GapMatrix:
    """N x d normalized gaps at a fixed exponent; entries in [0, 1]."""

    alpha: float
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values, "gaps", 2))


@dataclass(frozen=True)
class DeprivationMatrix:
    """N x d deprivation scores; ``weighted`` marks entries already scaled by weights."""

    alpha: float
    weighted: bool
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen_array(self.values, "scores", 2))


@dataclass(frozen=True)
class DeprivationCounts:
    """Per-person deprivation counts: row sums of (weighted) indicator-level scores."""

    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        values = _frozen_array(self.values, "deprivation counts", 1)
        if not np.all(np.isfinite(values)):
            raise ValidationError("deprivation counts must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _gaps(y, z, alpha: float, out: NDArray[np.float64]) -> NDArray[np.float64]:
    """Gaps of ``y`` into ``out``: ((z - y) / z) ** alpha below the cutoff, else +0.0.

    At or above it the base is +0.0, so nothing overflows; validated input puts every
    other base in [2**-53, 1], so no clip, and the alpha = 0 gap is the indicator base > 0.
    At alpha = 1 the gap is the base itself, as x ** 1.0 is x.  At any other alpha = q / 2
    with q whole, up to ``_SQUARING_HALVES``, bar 0.5 and 2, which numpy's ``power`` takes
    by ``sqrt`` and ``square``, the power is made of correctly rounded products and a
    ``sqrt`` in a fixed order, so its bits do not follow the CPU's SIMD dispatch as
    ``power``'s do.  Each product can add half a unit in the last place, and squaring
    doubles what is there, so the relative error grows to at most about q / 2 units in
    the last place; above ``_SQUARING_HALVES`` the power is numpy's again.
    """
    np.minimum(y, z, out=out)
    np.subtract(z, out, out=out)
    out /= z
    if alpha == 0.0:
        return np.greater(out, 0.0, out=out)
    if alpha == 1.0:
        return out
    q = 2.0 * alpha
    if alpha in (0.5, 2.0) or not q.is_integer() or q > _SQUARING_HALVES:
        out **= alpha
        return out
    base = out.copy()
    # out ** (q // 2) by squaring, left to right over the exponent's bits after the first
    for bit in bin(int(q) >> 1)[3:]:
        out *= out
        if bit == "1":
            out *= base
    if q % 2:
        out *= np.sqrt(base, out=base)
    return out


def _consistent_inputs(achievements, cutoffs, structure):
    """Achievement values read in place, cutoffs and structure; check they share one d."""
    y = _achievement_values(achievements)
    z = as_cutoff_vector(cutoffs)
    structure = as_dependence_structure(structure)
    if not (y.shape[1] == z.d == structure.d):
        raise ShapeMismatch(
            f"inconsistent dimensions: achievements {y.shape[1]}, cutoffs {z.d}, "
            f"structure {structure.d}"
        )
    return y, z, structure


def gap_matrix(achievements, cutoffs, alpha: float) -> GapMatrix:
    """Normalized gaps for a whole population at a fixed exponent."""
    alpha = _check_alpha(alpha)
    y = _achievement_values(achievements)
    z = as_cutoff_vector(cutoffs)
    if y.shape[1] != z.d:
        raise ShapeMismatch(f"achievements have d = {y.shape[1]}, cutoffs have d = {z.d}")
    z, gaps = z.values, np.empty(y.shape)

    def gap(rows: slice, block: NDArray[np.float64]) -> None:
        _gaps(y[rows], z, alpha, gaps[rows])

    _row_blocks(*y.shape, gap)
    return _adopted(GapMatrix, alpha=alpha, values=gaps)


def _score_values(
    y: NDArray[np.float64],
    z: NDArray[np.float64],
    structure: DependenceStructure,
    alpha: float,
    w: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Weighted scores of validated inputs, one row block at a time.

    Each block takes its gaps, then the row-wise sum over j' of
    off_diag[j, j'] * gaps[i, j'], then divides by d - 1, adds the gaps
    and scales by ``w``.  The neighbor sum is a broadcast reduction
    rather than a BLAS matmul so each output row is a pure function of
    its own input row; this keeps person-permutation invariance exact at
    the bit level, on any row blocking and any number of CPUs.
    """
    n, d = y.shape
    off_diag = structure.off_diagonal()
    scores = np.empty((n, d))

    def score(rows: slice, block: NDArray[np.float64]) -> None:
        gaps = _gaps(y[rows], z, alpha, np.empty_like(y[rows]))
        out, terms = scores[rows], block.reshape(-1, d, d)
        # the block holds the broadcast products, d per score
        np.sum(np.multiply(gaps[:, None, :], off_diag, out=terms), axis=2, out=out)
        out /= d - 1
        out += gaps
        out *= w

    _row_blocks(n, d * d, score)
    return scores


def deprivation_matrix(
    achievements,
    cutoffs,
    structure: DependenceStructure,
    alpha: float,
    weights: WeightVector | None = None,
) -> DeprivationMatrix:
    """Dependence-adjusted scores for a whole population.

    With ``weights`` given, each column is scaled by its weight after
    the score is formed, and the result is flagged ``weighted``.
    """
    alpha = _check_alpha(alpha)
    y, z, structure = _consistent_inputs(achievements, cutoffs, structure)
    # None gives unit weights, which scale nothing: x * 1.0 is x, bit for bit
    w = as_weight_vector(weights, structure.d).values
    scores = _score_values(y, z.values, structure, alpha, w)
    return _adopted(DeprivationMatrix, alpha=alpha, weighted=weights is not None, values=scores)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


def _row_blocks(n: int, width: int, body) -> None:
    """Call ``body(rows, block)`` on every row block of n rows, on up to one thread a CPU.

    A block is a slice of whole rows, about ``_BLOCK_CELLS`` cells, and
    ``block`` a C-ordered scratch buffer of its rows times ``width``
    cells, for the pass's largest per-block array.  Each thread owns one
    such buffer and reuses it for every block it runs, so no N x width
    array exists.  From ``_PARALLEL_CELLS`` cells on, with more than one
    usable CPU, the caller and short-lived threads, one per CPU in all
    and no more than there are blocks, each claim the next unclaimed
    block in row order under one lock; otherwise the caller runs them in
    order.  Nothing reads the blocks in order: an aggregate's
    ``censored_matrix_hash`` is the SHA-256 of ``"{n}x{d}:"`` and the
    censored row sums its bodies write, hashed once after the pass.  A
    body's exception is raised here, and no thread outlives the call.
    """
    step = max(1, _BLOCK_CELLS // width)
    threads = min(_usable_cpus(), -(-n // step)) if n * width >= _PARALLEL_CELLS else 1
    if threads == 1:
        buffer = np.empty((min(step, n), width))
        for start in range(0, n, step):
            body(slice(start, min(start + step, n)), buffer[: n - start])
        return
    import threading  # here, not at the top: importing the package loads no new module

    lock, starts, errors = threading.Lock(), iter(range(0, n, step)), []

    def work() -> None:
        buffer = np.empty((step, width))
        try:
            while True:
                with lock:  # no claims after a failure
                    start = None if errors else next(starts, None)
                if start is None:
                    return
                body(slice(start, min(start + step, n)), buffer[: n - start])
        except BaseException as exc:  # raised again on the caller
            with lock:
                errors.append(exc)

    workers = []
    try:
        for _ in range(threads - 1):
            thread = threading.Thread(target=work)
            thread.start()
            workers.append(thread)
        work()
    finally:
        for thread in workers:
            thread.join()
    if errors:
        raise errors[0]


def _fork_count(items: int, least: int) -> int:
    """How many parts :func:`_forked` runs ``items`` in.

    One per usable CPU, each of at least ``least`` items; but one where
    ``os.fork`` is missing or other threads are running, as a worker
    forked beside another thread could inherit a lock that thread held.
    """
    import threading  # here, not at the top: importing the package loads no new module

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cpus(), items // least))


def _forked(jobs: list) -> list[bytes]:
    """Each zero-argument job's bytes: ``jobs[0]`` run here, each later job in a forked worker.

    Each worker runs its job, writes the bytes into its own pipe, and ends
    by ``os._exit`` alone: it never returns into the caller nor flushes an
    inherited buffer.  The caller runs the first job meanwhile, then reads
    the pipes to their ends in order.  A worker that exits other than 0
    raises :class:`WriteError`.  However the caller stops, it closes its
    read ends, kills every worker not yet reaped, and reaps them all.
    """
    workers: list[tuple[int, int]] = []  # (pid, read end), until reaped
    try:
        for job in jobs[1:]:
            workers.append(_fork_worker(job, [fd for _, fd in workers]))
        results = [jobs[0]()]
        while workers:
            pid, fd = workers[0]
            reads = []
            # a read's buffer is its full size until it returns: 4 KB, not the 64 KB a
            # pipe holds, as the suite's results are a few hundred bytes
            while data := os.read(fd, 1 << 12):
                reads.append(data)
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            os.close(fd)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise WriteError(f"a forked worker failed (exit code {code})")
            results.append(b"".join(reads))
        return results
    finally:
        if workers:
            import signal

            for pid, fd in workers:
                os.close(fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork_worker(job, inherited: list[int]) -> tuple[int, int]:
    """Fork a worker that writes ``job()`` into a new pipe; its pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        for fd in (read, *inherited):  # so the caller's close leaves each pipe no reader
            os.close(fd)
        data = memoryview(job())
        while data:
            data = data[os.write(write, data) :]
        code = 0
    finally:
        os._exit(code)


def _row_sums(y, z, coef, alpha: float, floor: float):
    """Per-person weighted-gap row sums, censored at the count ``floor``: the one N-vector.

    Each row block is counted first, as a row reduction of the block buffer with ``y < z``
    written in as 1.0 or 0.0 and multiplied by ``coef``, into the block's rows of the
    vector returned.  As each person is identified from their own row, the dual cutoff
    applies there: each count is compared with ``floor``, the least count that reaches k
    (:func:`~netpoverty.identification._k_floor`), and the block's row sums of weighted
    gaps, written over the counts, are multiplied by 1.0 for a poor person and 0.0 for
    any other.  At alpha = 0 the row sums are the counts.  A floor of ``-math.inf``
    censors nobody, as ``x * 1.0`` is ``x``: that is :func:`_counts`.

    Broadcast along the rows, the d-vectors ``z`` and ``coef`` have stride 0 there, so
    numpy runs each elementwise step as one loop of d cells a row.  From two tiles of
    rows on, they are laid out once per pass as tiles of ``(_BLOCK_CELLS // 2) // d``
    rows: a block's whole tiles then run as one (tiles, rows, d) view, one flat loop
    a step, and its rows past them read the tiles' first rows.  Each row is still
    summed over its own d cells, so the bits are the broadcast form's.  Under two
    tiles of rows the d-vectors broadcast as they are: the tiles would cost the many
    tiny passes of the axiom suite more than they save.
    """
    n, d = y.shape
    row_sums = np.empty(n)

    # the arrays are defaults, so :func:`_tiled` can pass a part's views for them, and the
    # untiled pass, thousands of times a suite on tiny inputs, makes no closure cell for them
    def sums(rows, block, y=y, z=z, coef=coef, row_sums=row_sums) -> None:
        yb, rb = y[rows], row_sums[rows]
        np.less(yb, z, out=block)  # 1.0 or 0.0 in place, no bool temporary
        block *= coef
        np.add.reduce(block, axis=-1, out=rb)
        poor = rb >= floor
        if alpha != 0.0:
            _gaps(yb, z, alpha, block)
            block *= coef
            np.add.reduce(block, axis=-1, out=rb)
        rb *= poor

    tile = (_BLOCK_CELLS // 2) // d  # 0 when a row is over half a block: no tiles
    if n >= 2 * tile > 0:
        sums = _tiled(sums, y, z, coef, row_sums, tile)
    _row_blocks(n, d, sums)
    return row_sums


def _counts(y, z, coef) -> NDArray[np.float64]:
    """Per-person counts: the deprived coefficients summed, :func:`_row_sums` censoring nobody."""
    return _row_sums(y, z, coef, 0.0, -math.inf)


def _tiled(body, y, z, coef, row_sums, tile: int):
    """:func:`_row_sums`'s ``body`` on each row block's whole tiles as one view, then its rest.

    ``z`` and ``coef`` are laid out once as tiles of ``tile`` rows; ``body`` takes each
    part's views in place of the pass's arrays and ``...`` for the rows.  Made here, not
    in :func:`_row_sums`, whose variables a closure there would turn into cells.
    """
    d = y.shape[1]
    zt, ct = np.tile(z, (tile, 1)), np.tile(coef, (tile, 1))

    def tiled(rows: slice, block: NDArray[np.float64]) -> None:
        yb, rb = y[rows], row_sums[rows]
        rest = yb.shape[0] % tile
        whole = yb.shape[0] - rest
        body(..., block[:whole].reshape(-1, tile, d), yb[:whole].reshape(-1, tile, d), zt, ct,
             rb[:whole].reshape(-1, tile))
        if rest:
            body(..., block[whole:], yb[whole:], zt[:rest], ct[:rest], rb[whole:])

    return tiled


def deprivation_counts(
    achievements,
    cutoffs,
    structure: DependenceStructure,
    weights: WeightVector | None = None,
) -> DeprivationCounts:
    """Per-person sums of (weighted) indicator-level scores.

    The aggregates' own pass, censoring nobody (:func:`_counts`), so a
    count exactly at k is classified alike.  With a disconnected
    structure and unit weights this is the classic deprived-dimension count.
    """
    y, z, structure = _consistent_inputs(achievements, cutoffs, structure)
    coef = _coefficient_values(structure, as_weight_vector(weights, structure.d).values)
    return _adopted(DeprivationCounts, values=_counts(y, z.values, coef))


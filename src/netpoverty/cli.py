"""Command-line interface.

Subcommands: compute (full report), bounds (count bounds and attainable
levels), implied-weights, axioms (randomized verification suite),
compare (corrected vs naive aggregate across a dependence-entry sweep).
The ``netpoverty`` command and ``python -m netpoverty`` enter through
:mod:`netpoverty.__main__`, which runs :func:`main`.  Importing this
module runs ``dataio`` and ``aggregation`` and the kernels they import,
which ``bounds`` never runs, as the benchmark's span tracer looks each
layer it wraps up in ``sys.modules``.  ``axioms`` and ``weights`` are
registered lazily, so their code runs when ``axioms`` or
``implied-weights`` first reads them, and ``compute``, ``compare`` and
``bounds`` never run it.

Exit codes: 0 success, 1 validation or usage error, 2 axiom violation,
3 I/O error, 143 terminated by SIGTERM.  A reader that closes stdout
early is not an I/O error: the output stops and the exit code is the
command's own.  While :func:`main` runs on the main thread, SIGTERM
raises ``SystemExit(143)``, 128 plus the signal number as a shell
reports it, so a partial ``--out`` file is removed and every worker of
the axiom suite is killed and reaped before the process ends.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import signal
import sys
from collections.abc import Iterable
from dataclasses import asdict, replace

import numpy as np

from .aggregation import _denominator, _value
from .bounds import ENUMERATION_LIMIT, _subset_sums, attainable_scores, bounds_summary
from .config import load_config, load_config_document
from .core import MethodologyConfig
from .dataio import (
    _bounds_fields,
    _numeral,
    _round12,
    load_dataset,
    render_report,
    stream_report,
    write_text,
)
from .errors import NetpovertyError, ValidationError, WriteError
from .identification import _k_band


def _lazy(name: str):
    """Submodule ``name``: in ``sys.modules`` now, its code run at its first attribute read.

    A module already imported is returned as it is.  Registering, unlike
    importing inside the command, leaves every submodule in
    ``sys.modules`` for tools that look the package's modules up there,
    as the benchmark's span tracer does for each layer it wraps.
    """
    name = f"{__package__}.{name}"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


axioms = _lazy("axioms")
weights = _lazy("weights")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so ``main`` ends them like any validation error."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for parse in (float, int):  # type=float and int: only a dataset cell's numerals
            self.register("type", parse, lambda text, parse=parse: _numeral(text, parse))

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _add_k_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=None, help="override alpha")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--k", type=float, default=None, help="override k (absolute)")
    group.add_argument(
        "--k-fraction",
        type=float,
        default=None,
        help="override k as a fraction of the weighted count ceiling",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netpoverty",
        description="Dependence-aware multidimensional poverty measurement",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="methodology config (JSON)")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, parents=[common], help=summary)
        cmd.set_defaults(run=run)
        return cmd

    compute = command("compute", _cmd_compute, "compute a poverty report")
    compute.add_argument("--dataset", required=True, help="achievements CSV")
    _add_k_args(compute)
    compute.add_argument(
        "--diagnostic-naive",
        action="store_true",
        help="also report the uncorrected (manipulable) aggregate",
    )

    command("bounds", _cmd_bounds, "count bounds, jumps, attainable levels")
    command("implied-weights", _cmd_implied_weights, "weights implied by a structure")

    suite = command("axioms", _cmd_axioms, "run the axiom verification suite")
    suite.add_argument("--alpha", type=float, default=None, help="override alpha")
    suite.add_argument("--trials", type=int, default=200)
    suite.add_argument("--seed", type=int, default=0)

    compare = command(
        "compare", _cmd_compare, "corrected vs naive aggregate while one entry sweeps 0..1"
    )
    compare.add_argument("--dataset", required=True)
    _add_k_args(compare)
    compare.add_argument("--row", type=int, required=True, help="affected dimension (1-based)")
    compare.add_argument("--col", type=int, required=True, help="affecting dimension (1-based)")
    compare.add_argument("--steps", type=int, default=11, help="sweep points (default 11)")
    return parser


def _warn_k_gap(config: MethodologyConfig) -> None:
    """Warn when k sits strictly inside a gap between attainable count levels.

    A level is the sum of the coefficients of one deprivation pattern,
    as the kernel counts.  The weighted jumps ``attainable_scores``
    lists are the same only under uniform weights.
    """
    if config.d > ENUMERATION_LIMIT:
        return
    levels = _subset_sums(config.coefficients)
    k = config.k
    # the levels either side of k; float() keeps numpy's type out of their repr
    idx = int(np.searchsorted(levels, k, side="right"))
    lo = float(levels[idx - 1])
    hi = float(levels[idx]) if idx < levels.shape[0] else None
    # on level within the band identification allows a count below k; the band
    # also absorbs the different summation orders of the levels and the counts
    if abs(lo - k) <= _k_band(k) or (hi is not None and abs(hi - k) <= _k_band(k)):
        return
    if hi is None:
        print(
            f"warning: k = {k!r} exceeds the highest attainable count "
            f"{lo!r}; nobody can be identified as poor",
            file=sys.stderr,
        )
        return
    print(
        f"warning: k = {k!r} lies strictly between attainable counts "
        f"{lo!r} and {hi!r}; any cutoff in ({lo!r}, {hi!r}] identifies the "
        f"same poor set",
        file=sys.stderr,
    )


def _cmd_compute(args) -> tuple[Iterable[str], int]:
    dataset = load_dataset(args.dataset)
    config = load_config(args.config, args.alpha, args.k, args.k_fraction)
    _warn_k_gap(config)
    return stream_report(dataset, config, args.diagnostic_naive), 0


def _cmd_bounds(args) -> tuple[str, int]:
    doc = load_config_document(args.config)
    summary = bounds_summary(doc.structure, doc.weights)
    payload = {
        "d": doc.structure.d,
        **_bounds_fields(summary),
        "sigma": _round12(summary.entry_total),
        "sigma_cols": [_round12(v) for v in summary.column_totals],
        "attainable_scores": (
            [_round12(v) for v in attainable_scores(doc.structure, doc.weights)]
            if doc.structure.d <= ENUMERATION_LIMIT
            else None
        ),
    }
    return render_report(payload), 0


def _cmd_implied_weights(args) -> tuple[str, int]:
    doc = load_config_document(args.config)
    result = weights.implied_weights(doc.structure)
    summary = bounds_summary(doc.structure)
    payload = {
        "weights": [_round12(v) for v in result.weights.values],
        "deltas": [_round12(v) for v in summary.jumps],
        "sigma_cols": [_round12(v) for v in summary.column_totals],
        "d_bar": _round12(result.upper),
    }
    return render_report(payload), 0


def _cmd_axioms(args) -> tuple[str, int]:
    config = load_config(args.config, args.alpha)
    settings = axioms.GeneratorSettings(trials=args.trials, seed=args.seed)
    reports = axioms.run_axiom_suite(config, settings)
    lines = "".join(json.dumps(asdict(r)) + "\n" for r in reports)
    return lines, 2 if any(r.status == "fail" for r in reports) else 0


def _cmd_compare(args) -> tuple[str, int]:
    dataset = load_dataset(args.dataset)
    base = load_config(args.config, args.alpha, args.k, args.k_fraction)
    d = base.d
    row, col = args.row, args.col
    if not (1 <= row <= d and 1 <= col <= d) or row == col:
        raise ValidationError(f"--row/--col must be distinct dimensions in 1..{d}")
    if args.steps < 2:
        raise ValidationError("--steps must be at least 2")

    records = []
    y = dataset.achievements
    for t in range(args.steps):
        entry = t / (args.steps - 1)
        m = np.array(base.structure.entries, copy=True)
        m[row - 1, col - 1] = entry
        # one methodology per step: k is checked against this step's ceiling
        config = replace(base, structure=m)
        adjusted = _value(y, config)
        naive = _value(y, config, "naive")
        records.append(
            {
                "entry_value": _round12(entry),
                "fgt_adjusted": _round12(adjusted),
                "fgt_naive": _round12(naive),
                "naive_numerator": _round12(naive * _denominator(y.n, config, "naive")),
            }
        )
    return render_report(records), 0


def _write_stdout(chunks) -> None:
    """Write to stdout; a reader that stops early (``| head``) ends the output quietly."""
    try:
        write_text(chunks)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # as the Python docs advise: the exit-time flush then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    """Run one subcommand and write its text: a ``str`` or an iterable of chunks.

    On the main thread SIGTERM raises ``SystemExit(143)`` until this
    returns; then the caller's own handler is back.
    """
    try:
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # not the main thread, which alone takes signals
        previous = _terminate
    try:
        args = build_parser().parse_args(argv)
        chunks, code = args.run(args)
        if args.out is None:
            _write_stdout(chunks)
        else:
            write_text(chunks, args.out)
        return code
    except (WriteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NetpovertyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if previous is not _terminate:  # None: set outside Python, so not restorable
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)


if __name__ == "__main__":
    sys.exit(main())

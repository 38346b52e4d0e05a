"""Span recording around the public functions of the netpoverty modules.

A :class:`Tracer` replaces every public function defined in a layer
module with a wrapper that records a span, at every module attribute
that binds it (``from .x import f`` makes a second binding that other
modules look up at call time).  The ``__post_init__`` of the five
validated types in ``core`` is wrapped as one span name,
``core.validate``.  Private helpers are left alone, so their time counts
as self time of the public function that called them.

A span is ``[name, start, end, parent, run, work]``: ``parent`` is the
index of the enclosing span (-1 at the root), ``run`` the operation the
span belongs to, ``work`` an optional count taken from the call's
arguments or result.  Spans stay in memory until the benchmark writes
them out.  Nothing inside ``src/`` is changed on disk; :meth:`uninstall`
restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

VALIDATED_TYPES = (
    "DependenceStructure",
    "AchievementMatrix",
    "CutoffVector",
    "WeightVector",
    "MethodologyConfig",
)


class Tracer:
    def __init__(self, layers, work=None):
        self.layers = tuple(layers)
        self.work = dict(work or {})
        self.spans: list[list] = []
        self.run = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = self.work.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        return wrapper

    def install(self, run: int) -> None:
        """Wrap every public function of the layer modules for operation ``run``."""
        self.run = run
        package = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "netpoverty" or key.startswith("netpoverty.")
        ]
        for layer in self.layers:
            module = sys.modules[f"netpoverty.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for owner in package:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, key, wrapper)
        core = sys.modules["netpoverty.core"]
        for type_name in VALIDATED_TYPES:
            cls = getattr(core, type_name)
            self._patch(cls, "__post_init__", self._wrap("core.validate", cls.__post_init__))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def tree_lines(spans, wall: float, min_share: float = 0.005) -> list[str]:
    """Self-time tree of one operation's spans, aggregated by call path.

    Paths whose total time is under ``min_share`` of ``wall`` are folded
    into one line per parent.
    """
    selfs = self_times(spans)
    paths: list[tuple] = []
    stats: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, span in enumerate(spans):
        path = (paths[span[3]] if span[3] >= 0 else ()) + (span[0],)
        paths.append(path)
        entry = stats[path]
        entry[0] += 1
        entry[1] += selfs[i]
        entry[2] += span[2] - span[1]
    children: dict[tuple, list] = defaultdict(list)
    for path in stats:
        children[path[:-1]].append(path)

    lines = [f"{'total_ms':>10} {'self_ms':>10} {'calls':>8}  span"]

    def emit(parent: tuple, depth: int) -> None:
        kids = sorted(children[parent], key=lambda p: -stats[p][2])
        folded, folded_ms = 0, 0.0
        for path in kids:
            calls, self_s, total = stats[path]
            if total < min_share * wall:
                folded += 1
                folded_ms += total * 1e3
                continue
            lines.append(
                f"{total * 1e3:10.1f} {self_s * 1e3:10.1f} {calls:8d}  "
                f"{'  ' * depth}{path[-1]}"
            )
            emit(path, depth + 1)
        if folded:
            lines.append(
                f"{folded_ms:10.1f} {'':>10} {'':>8}  "
                f"{'  ' * depth}({folded} smaller paths)"
            )

    emit((), 0)
    return lines

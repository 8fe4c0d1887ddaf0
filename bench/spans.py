"""Span recording, self-time arithmetic and function patching for traced runs.

A span is ``[name, start, end, parent]`` where ``parent`` is the index of the
enclosing span in the same list (``None`` for a root). Spans are kept in
memory and written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = self.clock()

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open around the current point."""
        return any(self.spans[i][0] == name for i in self._open)

    def wrap(self, fn, name):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string, or a callable taking no arguments that picks the
        span name at call time (used to tell callers apart).
        """
        pick = name if callable(name) else (lambda: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(pick()):
                return fn(*args, **kwargs)

        return wrapper


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another (e.g. when spans come from several
    threads), so the covered part is the length of the union of the child
    intervals, clipped to the parent's interval.
    """
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict:
    """``{name: (calls, self_s)}`` summed over all spans with that name."""
    totals = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        calls, total = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, total + own)
    return totals


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in spans], fh
        )
        fh.write("\n")


def _resolve(module_name: str, attr_path: str):
    """Return (owner, attribute name, current value) for ``Class.attr`` paths."""
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Patches:
    """Replaces functions by wrappers and puts the originals back on ``restore``.

    A target that no longer exists is listed in ``missing`` instead of
    raising, so a renamed function shows up in the report as unmeasured.
    """

    def __init__(self):
        self.missing = []
        self._saved = []

    def apply(self, target: str, make_wrapper) -> None:
        module_name, attr_path = target.split(":")
        try:
            owner, attr, original = _resolve(module_name, attr_path)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

"""Spans around calls into the program's layers, from outside the program.

:class:`Tracer` replaces a layer's public entry points with timing
wrappers for the length of one run and puts every original back when
the run ends.  A function imported by name elsewhere
(``from repro.kernels.encoder import encode_chunks``) is bound in each
importing module too, so the wrapper replaces it at every binding site,
not only where it is defined.

Spans live in memory -- name, start, end, parent, run id -- and are
written out once, when the run ends.  A span's self time is its length
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in ``Tracer.spans``, or -1
    parent: int
    run_id: str


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        #: (namespace, attribute, original) for every replaced binding
        self._patches: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original) for wrapped module functions
        self._wrapped: Dict[int, Tuple[object, object]] = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(index)

    # -- wrappers ------------------------------------------------------------

    def timed(self, name: str, fn: Callable, on_result=None) -> Callable:
        """``fn`` with each call recorded as a span.  A generator
        function's work happens while it is iterated, so each resume of
        its generator is the span instead.  ``on_result(args, result)``
        runs after each plain call, for counters derived from results."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    index = self.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.finish(index)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(index)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls counted but not spanned: for entry points
        called millions of times, where a span per call would swamp the
        work it measures."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore ---------------------------------------------------

    def install(self, owner: object, attribute: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attribute`` (a module function or a method
        defined in a class body) with ``wrap(original)``, and rebind every
        module global that refers to the same original function."""
        original = vars(owner)[attribute]
        wrapper = wrap(original)
        self._patch(owner, attribute, original, wrapper)
        if inspect.isclass(owner):
            return
        self._wrapped[id(wrapper)] = (wrapper, original)
        for module, name, value in _module_bindings():
            if value is original and module is not owner:
                self._patch(module, name, original, wrapper)

    def _patch(self, namespace: object, name: str, original: object, wrapper: object) -> None:
        setattr(namespace, name, wrapper)
        self._patches.append((namespace, name, original))

    def restore(self) -> None:
        """Put every replaced binding back, newest first -- and the
        original into any module imported since ``install`` that bound a
        wrapper by name."""
        while self._patches:
            namespace, name, original = self._patches.pop()
            setattr(namespace, name, original)
        for module, name, value in _module_bindings():
            entry = self._wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, name, entry[1])
        self._wrapped.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, then one line with the counters
        and each span name's calls, inclusive and self seconds."""
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
            summary = {"counts": dict(self.counts), "totals": layer_totals(self.spans)}
            handle.write(json.dumps(summary) + "\n")


def _module_bindings():
    """Every ``(module, name, value)`` global of every loaded module."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace is not None:
            for name, value in list(namespace.items()):
                yield module, name, value


# -- span arithmetic ---------------------------------------------------------


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's length minus the part of it its children cover."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        covered = covered_length(
            (spans[child].start, spans[child].end) for child in children.get(index, ())
        )
        result.append(max(0.0, (span.end - span.start) - covered))
    return result


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``seconds`` and ``self_s``.

    ``calls`` and ``seconds`` count only spans with no ancestor of the
    same name, so a method that calls its own wrapped super method, or
    ``discover`` calling ``discover_with_report``, is one call."""
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span.name, {"calls": 0, "seconds": 0.0, "self_s": 0.0})
        entry["self_s"] += selfs[index]
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            entry["calls"] += 1
            entry["seconds"] += span.end - span.start
    return totals

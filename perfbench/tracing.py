"""Span recording around the public calls of each layer, from outside ``src/``.

:class:`Tracer` replaces every :class:`~perfbench.layers.Target` attribute
with a wrapper that records one span per call: layer name, start and end
(``perf_counter_ns``), the enclosing span and the id of the request the
benchmark client is serving.  Spans stay in memory and are written out
when the run ends.  :meth:`Tracer.uninstall` puts the original attributes
back, and :func:`assert_untraced` checks that they are back before any
untraced run.

A span's self time is its duration minus the part of it that its child
spans cover; a request's ``unattributed`` time is the part of the client's
measured interval that no span covers.  Self times plus unattributed time
add up to the client's time exactly (integer nanoseconds).
"""

from __future__ import annotations

import functools
import gzip
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

from perfbench.layers import Target, all_targets

#: Marks a wrapper, so a left-over one is recognised.
_MARK = "__perfbench_span__"

#: Attribute values as found before any wrapper was installed.
_ORIGINALS: dict[str, object] = {}


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _fired(result) -> dict[str, int]:
    return {"guardrail.fired": int(not result.passed)}


#: span name → counts booked from one call's arguments and result.
_COUNTERS = {
    "cache.lookup": lambda a, kw, r: {"cache.hits": int(r is not None)},
    "vector": lambda a, kw, r: {"vector.kept": sum(len(v) for v in r.values())},
    "ann.search": lambda a, kw, r: {"ann.fetched": _arg(a, kw, 2, "k")},
    "fusion": lambda a, kw, r: {
        "fusion.candidates": sum(len(v) for v in _arg(a, kw, 0, "rankings").values())
    },
    "reranker": lambda a, kw, r: {"reranker.candidates": len(_arg(a, kw, 2, "results"))},
    "guardrail.citation": lambda a, kw, r: _fired(r),
    "guardrail.rouge": lambda a, kw, r: _fired(r),
    "guardrail.clarification": lambda a, kw, r: _fired(r),
}


def _current(target: Target) -> object:
    return target.resolve().__dict__[target.attr]


def assert_untraced() -> None:
    """Raise unless every target attribute is the original, unwrapped one."""
    for target in all_targets():
        value = _current(target)
        original = _ORIGINALS.setdefault(target.dotted, value)
        if getattr(value, _MARK, None) is not None or value is not original:
            raise RuntimeError(f"{target.dotted} is still wrapped by the tracer")


class Tracer:
    """In-memory span recorder for one traced run.

    ``spans[i]`` is ``(parent, request, layer, start_ns, end_ns)``; the
    parent is a span index, or -1 for a span no other span encloses.
    ``requests`` holds ``(request, phase, start_ns, end_ns)`` as measured
    by the benchmark client.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.requests: list[tuple[str, str, int, int]] = []
        self.counts: Counter[str] = Counter()
        self.request = "setup"
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def install(self) -> None:
        assert_untraced()
        for target in all_targets():
            holder = target.resolve()
            original = holder.__dict__[target.attr]
            self._installed.append((holder, target.attr, original))
            setattr(holder, target.attr, self._wrap(target.span, original))

    def uninstall(self) -> None:
        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, span: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = _COUNTERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            request = self.request
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (parent, request, span, start, end)
            if count is not None:
                counts.update(count(args, kwargs, result))
            return result

        setattr(traced, _MARK, span)
        return traced

    # -- requests -----------------------------------------------------------------

    def record_request(self, request: str, phase: str, start_ns: int, end_ns: int) -> None:
        self.requests.append((request, phase, start_ns, end_ns))

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self nanoseconds of every span (duration minus child coverage)."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for parent, _, _, start, end in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        return [
            end - start - covered(children.get(index, ()), start, end)
            for index, (_, _, _, start, end) in enumerate(self.spans)
        ]

    def unattributed(self) -> dict[str, int]:
        """Per request: client nanoseconds that no span covers."""
        roots: dict[str, list[tuple[int, int]]] = defaultdict(list)
        for parent, request, _, start, end in self.spans:
            if parent < 0:
                roots[request].append((start, end))
        return {
            request: end - start - covered(roots.get(request, ()), start, end)
            for request, _, start, end in self.requests
        }

    def write(self, path: Path) -> None:
        """Write spans and requests as gzip TSV (one table after the other)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\trequest\tlayer\tstart_ns\tend_ns\n")
            for index, (parent, request, layer, start, end) in enumerate(self.spans):
                out.write(f"{index}\t{parent}\t{request}\t{layer}\t{start}\t{end}\n")
            out.write("request\tphase\tstart_ns\tend_ns\n")
            for request, phase, start, end in self.requests:
                out.write(f"{request}\t{phase}\t{start}\t{end}\n")


def covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total

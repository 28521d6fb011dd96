"""In-memory span tracing around calls into seqshape's public functions.

A :class:`Tracer` replaces a function attribute of a module with a wrapper
that records one :class:`Span` per call: name, layer, start and end (from
``time.perf_counter_ns``), the index of the enclosing span and a request id.
Patching happens where the *caller* looks the name up (``seqshape.harness``
calls ``transform`` through its own globals, so that is the attribute to
replace), and :meth:`Tracer.restore` puts every original back.

The request id is the trial index (table1) or sequence index (exact-cold,
small-space); spans inherit the id current when they open.

:meth:`Tracer.count` wraps a function without a span and adds up what it
does (calls, the size of what it returns, or the items it yields) in
``Tracer.counts``: the computed counts come from the program, not from a
formula.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: int
    end: int
    parent: int
    request: int | None
    error: str | None = None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open_span(self, name: str, layer: str, request: int | None) -> Span:
        if request is not None:
            self.request = request
        record = Span(name, layer, 0, 0, self._open[-1] if self._open else -1, self.request)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter_ns()
        return record

    def _close_span(self, record: Span) -> None:
        record.end = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str, layer: str, request: int | None = None):
        record = self._open_span(name, layer, request)
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            self._close_span(record)

    def patch(self, module, attr: str, layer: str, request=None) -> None:
        """Trace every call of ``module.attr``; ``request(args)`` may set the request id."""
        original = getattr(module, attr)
        open_span, close_span = self._open_span, self._close_span

        # same bookkeeping as span(), without a generator per call: the
        # wrappers sit around calls of a few microseconds
        def traced(*args, **kwargs):
            record = open_span(attr, layer, request(args) if request else None)
            try:
                return original(*args, **kwargs)
            except BaseException as exc:
                record.error = type(exc).__name__
                raise
            finally:
                close_span(record)

        traced.__wrapped__ = original
        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def count(self, module, attr: str, name: str, size=None, yields: bool = False) -> None:
        """Add to ``counts[name]`` on every call of ``module.attr``: 1, ``size(result)``, or one per item yielded.

        A module without ``attr`` is left alone, so the count reads 0 once the
        program stops calling such a function.
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        counts = self.counts

        if yields:
            def counted(*args, **kwargs):
                for item in original(*args, **kwargs):
                    counts[name] += 1
                    yield item
        else:
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                counts[name] += size(result) if size else 1
                return result

        counted.__wrapped__ = original
        setattr(module, attr, counted)
        self._patched.append((module, attr, original))

    def reset(self) -> None:
        """Forget the spans and counts recorded so far."""
        self.spans.clear()
        self.counts.clear()

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: span durations minus the time their child spans cover."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s, covered in zip(spans, child_ns):
        out[s.layer] += (s.end - s.start - covered) / 1e9
    return dict(out)


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that open before their parent, close after it, or overlap a sibling."""
    errors = []
    last_child_end: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} {s.name} ends before it starts")
        if s.parent >= 0:
            p = spans[s.parent]
            if s.parent >= i or s.start < p.start or s.end > p.end:
                errors.append(f"span {i} {s.name} is not inside its parent {p.name}")
        if s.start < last_child_end.get(s.parent, s.start):
            errors.append(f"span {i} {s.name} overlaps an earlier sibling")
        last_child_end[s.parent] = s.end
    return errors


def mean_us(spans: list[Span], *names: str, error: str | None = None) -> float:
    """Mean duration in microseconds of the named spans with the given error status."""
    picked = [s.end - s.start for s in spans if s.name in names and s.error == error]
    return sum(picked) / len(picked) / 1e3 if picked else 0.0

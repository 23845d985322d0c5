"""Spans recorded from outside the program.

A :class:`Tracer` replaces a public function of the program with a
wrapper that records one span per call — name, start, end, parent span
and request id — and restores the original afterwards.  The program's
source is never touched.  Spans are kept in memory and written out as
JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(slots=True)
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    rid: str | None
    thread: int


class Tracer:
    """Collects spans around wrapped calls; thread-safe appends."""

    def __init__(self) -> None:
        #: Wrapped calls record nothing while False (overhead probes).
        self.enabled = True
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: ContextVar[Span | None] = ContextVar(
            "perfbench_span", default=None
        )

    def _open(self, name: str, request: bool):
        parent = self._current.get()
        span_id = next(self._ids)
        if request:
            rid = str(span_id)
        else:
            rid = parent.rid if parent is not None else None
        span = Span(
            span_id,
            parent.span_id if parent is not None else None,
            name,
            time.perf_counter(),
            0.0,
            rid,
            threading.get_ident(),
        )
        return span, self._current.set(span)

    def _close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span, token = self._open(name, False)
        try:
            yield span
        finally:
            self._close(span, token)

    def wrap(self, fn, name: str, request: bool = False, keep=None):
        """``fn`` with a span around every call.  ``request`` gives each
        call its own request id (the span id) for its whole subtree;
        ``keep`` (a list) receives ``(args, result)`` of each return."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span, token = self._open(name, request)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, token)
            if keep is not None:
                keep.append((args, result))
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap ``(owner, attribute, span name[, options])`` targets for
        the duration of the block; owners are classes or modules and
        ``options`` are :meth:`wrap` keywords."""
        saved = []
        try:
            for owner, attr, name, *options in targets:
                wrapper = functools.partial(
                    self.wrap, name=name, **(options[0] if options else {})
                )
                saved.append(_patch(owner, attr, wrapper))
            yield self
        finally:
            for owner, attr, own, original in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``; raises when there
        are none, so a wrapped function that stops being called shows."""
        spans = self.by_name(name)
        if not spans:
            raise LookupError(f"no span named {name!r} was recorded")
        return sum(s.end - s.start for s in spans)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.by_name(name)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _patch(owner, attr: str, wrapper):
    """Install ``wrapper(original)`` on ``owner``; returns the undo record."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                raw = klass.__dict__[attr]
                break
        else:
            raise AttributeError(f"{owner.__name__} has no {attr!r}")
        own = attr in owner.__dict__
        if isinstance(raw, classmethod):
            new = classmethod(wrapper(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(wrapper(raw.__func__))
        else:
            new = wrapper(raw)
    else:
        raw = getattr(owner, attr)
        own = True
        new = wrapper(raw)
    setattr(owner, attr, new)
    return owner, attr, own, raw


@contextmanager
def timed_calls(owner, attr: str, sink: list, errors: list):
    """Append the wall time of every ``owner.attr`` call to ``sink``, and
    of every call that raised also to ``errors``.

    The untraced runs' only instrument: the per-request round trip the
    caller sees, with no span bookkeeping.
    """
    clock = time.perf_counter

    def wrapper(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors.append(clock() - t0)
                raise
            finally:
                sink.append(clock() - t0)

        return timed

    owner, attr, own, raw = _patch(owner, attr, wrapper)
    try:
        yield sink
    finally:
        if own:
            setattr(owner, attr, raw)
        else:
            delattr(owner, attr)

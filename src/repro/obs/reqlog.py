"""Canonical per-request records ("wide events") for the serving tier.

Aggregate telemetry says the p99 is slow; it cannot say *which*
requests were slow or *where* their time went.  This module keeps one
canonical structured record per dispatched request — trace identity,
route template, final status (including the 429/499/503/504
shed/abort paths), a per-layer latency breakdown (admission wait,
handler, cache lookup, store read, serialize, socket write), the
admission decision, breaker state, cache hit/miss, the ``degraded``
flag, remaining deadline budget, bytes written, and the injected-fault
kind under chaos — in a bounded in-memory ring, optionally appended as
JSONL through :mod:`repro.fsutil`.

The pieces:

- :class:`RequestLog` — the ring plus the JSONL sink.  All clock reads
  go through one injectable clock, so a serial run under a
  :class:`~repro.obs.clock.FakeClock` produces *byte-identical* record
  streams (the determinism contract every obs artifact honours).
- :class:`RecordBuilder` — one in-flight request's mutable state.  Its
  commit builds the immutable record exactly once (commits are
  idempotent) and hands it to the builder's ``publish`` consumer — the
  ring for :meth:`RequestLog.start` builders; the serving tier's
  consumers (ring, SLO) for the builder every data dispatch opens.
- **ambient helpers** — the builder is installed in a
  :mod:`contextvars` scope for the duration of a dispatch, so layers
  that should not know about request logging (admission control, the
  chaos wrapper, the response cache path) can still time themselves
  (:func:`layer`) or attach facts (:func:`annotate`) with a no-op cost
  outside a request.
- :func:`wire_scope` — the HTTP handler's seam.  Dispatch owns record
  *creation*; the wire owns the facts only it can know (final wire
  status — e.g. the 499 mid-body-abort sentinel — serialize and
  socket-write time, bytes out).  A handler opens a wire scope around
  dispatch; the builder defers its commit into the scope, the handler
  finalizes it after the socket write, and the scope's exit commits
  any builder left behind by an escaping socket error, so no dispatched
  request ever goes unrecorded.

Records are plain JSON-shaped dicts.  :func:`encode_record` is the
canonical serialization (sorted keys, compact separators, one line):
two same-seed serial runs under a fake clock encode to the same bytes.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Callable, Iterable

from repro.fsutil import LineSink

__all__ = [
    "LAYERS",
    "RecordBuilder",
    "RequestLog",
    "WireScope",
    "annotate",
    "current_builder",
    "encode_record",
    "layer",
    "wire_scope",
]

#: The per-request latency breakdown, in pipeline order.  Every record
#: carries all six (zero when a layer was never reached), so readers
#: never need existence checks and encoded records keep one shape.
LAYERS = ("admission", "handler", "cache", "store", "serialize", "write")

#: Seconds are rounded to nanosecond precision: enough for any real
#: latency, and it keeps JSONL lines compact and stable.
_ROUND = 9


def _seconds(value: float) -> float:
    return round(float(value), _ROUND)


def encode_record(record: dict) -> bytes:
    """The canonical one-line JSON encoding of a committed record."""
    return json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


class RecordBuilder:
    """Mutable state of one in-flight request's record.

    Fields are plain attributes so the dispatch hot path pays attribute
    stores, not dict churn.  The immutable record dict is built once, at
    commit, and handed to ``publish``.
    """

    __slots__ = (
        "publish",
        "clock",
        "start_s",
        "path",
        "route",
        "status",
        "admission",
        "breaker",
        "cache",
        "degraded",
        "fault",
        "deadline_remaining_s",
        "bytes_out",
        "trace_id",
        "span_id",
        "layers",
        "record",
    )

    def __init__(
        self,
        clock: Callable[[], float],
        path: str,
        publish: Callable[[dict], None],
    ) -> None:
        self.publish = publish
        self.clock = clock
        self.start_s = clock()
        self.path = path
        self.route = "<unmatched>"
        self.status: int | None = None
        self.admission = "bypass"
        self.breaker = "closed"
        self.cache = "bypass"
        self.degraded = False
        self.fault: str | None = None
        self.deadline_remaining_s: float | None = None
        self.bytes_out = 0
        self.trace_id: str | None = None
        self.span_id: int | None = None
        self.layers: dict[str, float] = {}
        self.record: dict | None = None

    @property
    def committed(self) -> bool:
        return self.record is not None

    def annotate(self, **fields) -> None:
        """Set record fields by name (unknown names are a bug)."""
        for name, value in fields.items():
            if name not in self.__slots__ or name in (
                "publish",
                "clock",
                "layers",
                "record",
            ):
                raise AttributeError(f"no annotatable record field {name!r}")
            setattr(self, name, value)

    def add_layer(self, name: str, seconds: float) -> None:
        self.layers[name] = self.layers.get(name, 0.0) + seconds

    def finish(self, status: int | None = None) -> dict | None:
        """Close the dispatch side of this record.

        Inside a :func:`wire_scope` the commit is deferred to the wire
        (which knows the final status and the socket-side timings);
        otherwise the record commits immediately.  Returns the
        committed record, or ``None`` when deferred.
        """
        if status is not None:
            self.status = status
        scope = _WIRE.get()
        if scope is not None:
            scope.builder = self
            return None
        return self.commit()

    def commit(self) -> dict:
        """Build the immutable record and publish it, exactly once.

        Idempotent: a second commit (e.g. the wire scope's safety net
        after an explicit commit) returns the already-published record.
        """
        if self.record is not None:
            return self.record
        record = {
            "start_s": _seconds(self.start_s),
            "total_s": _seconds(self.clock() - self.start_s),
            "path": self.path,
            "route": self.route,
            "status": int(self.status if self.status is not None else 0),
            "admission": self.admission,
            "breaker": self.breaker,
            "cache": self.cache,
            "degraded": bool(self.degraded),
            "fault": self.fault,
            "deadline_remaining_s": (
                None
                if self.deadline_remaining_s is None
                else _seconds(self.deadline_remaining_s)
            ),
            "bytes_out": int(self.bytes_out),
            "trace_id": self.trace_id or "-",
            "span_id": self.span_id,
            "layers": {
                name: _seconds(self.layers.get(name, 0.0)) for name in LAYERS
            },
        }
        self.record = record
        self.publish(record)
        return record


class RequestLog:
    """A bounded ring of canonical request records, plus a JSONL sink.

    ``capacity`` bounds memory: under a storm the ring holds the most
    recent ``capacity`` records and counts the rest as dropped (the
    JSONL sink, when configured, still sees every record).  ``clock``
    defaults to :func:`time.monotonic`; inject a
    :class:`~repro.obs.clock.FakeClock` for byte-identical streams.
    """

    def __init__(
        self,
        capacity: int = 1024,
        clock: Callable[[], float] | None = None,
        jsonl_path: str | Path | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._ring: list[dict] = []
        self._next_slot = 0
        self._seq = 0
        self._sink = (
            LineSink(jsonl_path) if jsonl_path is not None else None
        )
        self.jsonl_path = Path(jsonl_path) if jsonl_path else None

    # -- building -------------------------------------------------------------

    def start(self, path: str) -> RecordBuilder:
        """Open a record for one request that commits into this ring
        (reads the clock once)."""
        return RecordBuilder(self.clock, path, self.append)

    def commit(self, builder: RecordBuilder) -> dict:
        """Commit ``builder`` (idempotent); returns its record."""
        return builder.commit()

    def append(self, record: dict) -> None:
        """Number a committed record and retain it (and sink it)."""
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            if len(self._ring) < self.capacity:
                self._ring.append(record)
            else:
                self._ring[self._next_slot] = record
                self._next_slot = (self._next_slot + 1) % self.capacity
            sink = self._sink
        if sink is not None:
            sink.write_line(encode_record(record))

    # -- reading --------------------------------------------------------------

    def records(self) -> list[dict]:
        """Every retained record, oldest first."""
        with self._lock:
            return (
                self._ring[self._next_slot :] + self._ring[: self._next_slot]
            )

    def tail(
        self,
        n: int = 50,
        route: str | None = None,
        status: int | None = None,
        min_seconds: float | None = None,
    ) -> list[dict]:
        """The last ``n`` retained records matching the filters,
        oldest first (the shape ``repro obs tail`` and
        ``/debug/requests`` print)."""
        matched = [
            record
            for record in self.records()
            if (route is None or record["route"] == route)
            and (status is None or record["status"] == status)
            and (
                min_seconds is None or record["total_s"] >= min_seconds
            )
        ]
        return matched[-max(0, n) :]

    def stats(self) -> dict:
        with self._lock:
            size = len(self._ring)
            total = self._seq
        return {
            "capacity": self.capacity,
            "size": size,
            "total": total,
            "dropped": max(0, total - size),
        }

    def close(self) -> None:
        """Flush and fsync the JSONL sink, if any."""
        if self._sink is not None:
            self._sink.close()


# -- ambient access -----------------------------------------------------------

_CURRENT: ContextVar[RecordBuilder | None] = ContextVar(
    "repro_reqlog_builder", default=None
)


def current_builder() -> RecordBuilder | None:
    """The record being built for this request, or ``None``."""
    return _CURRENT.get()


@contextmanager
def building(builder: RecordBuilder):
    """Install ``builder`` as the ambient record for the block."""
    token = _CURRENT.set(builder)
    try:
        yield builder
    finally:
        _CURRENT.reset(token)


def annotate(**fields) -> None:
    """Attach facts to the ambient record; no-op outside a request."""
    builder = _CURRENT.get()
    if builder is not None:
        builder.annotate(**fields)


@contextmanager
def layer(name: str):
    """Time the block into the ambient record's layer breakdown.

    The idiom for instrumenting a layer boundary whose caller may or
    may not be recording — two clock reads when a record is live, one
    contextvar read when not.
    """
    builder = _CURRENT.get()
    if builder is None:
        yield
        return
    start = builder.clock()
    try:
        yield
    finally:
        builder.add_layer(name, builder.clock() - start)


# -- the HTTP wire seam -------------------------------------------------------

_WIRE: ContextVar["WireScope | None"] = ContextVar(
    "repro_reqlog_wire", default=None
)


class WireScope:
    """One HTTP exchange's claim on the record its dispatch builds."""

    __slots__ = ("trace_id", "span_id", "builder")

    def __init__(
        self, trace_id: str | None = None, span_id: int | None = None
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.builder: RecordBuilder | None = None

    def commit(
        self,
        status: int,
        bytes_out: int = 0,
        serialize_seconds: float = 0.0,
        write_seconds: float = 0.0,
    ) -> dict | None:
        """Finalize with the wire-side truth and publish the record.

        Returns the committed record (the exemplar/join handle), or
        ``None`` when the dispatch underneath built no record."""
        builder = self.builder
        if builder is None:
            return None
        builder.status = status
        builder.bytes_out = bytes_out
        if serialize_seconds:
            builder.add_layer("serialize", serialize_seconds)
        if write_seconds:
            builder.add_layer("write", write_seconds)
        if self.trace_id is not None:
            builder.trace_id = self.trace_id
        if self.span_id is not None:
            builder.span_id = self.span_id
        return builder.commit()


@contextmanager
def wire_scope(
    trace_id: str | None = None, span_id: int | None = None
):
    """Declare that the wire will finalize this request's record.

    Opened by the HTTP handler around dispatch.  On exit, a builder
    that was deferred here but never explicitly committed (a socket
    error escaped mid-write) is committed with whatever state it
    holds, so every dispatched request yields exactly one record.
    """
    scope = WireScope(trace_id=trace_id, span_id=span_id)
    token = _WIRE.set(scope)
    try:
        yield scope
    finally:
        _WIRE.reset(token)
        if scope.builder is not None:
            scope.builder.commit()


# -- offline readers ----------------------------------------------------------


def read_jsonl(path: str | Path) -> Iterable[dict]:
    """Yield records from a JSONL request log, tolerating a torn tail.

    Appends are flushed per line but not atomic: a crash can leave a
    partial final line, which is skipped rather than raised.
    """
    with open(path, "rb") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue

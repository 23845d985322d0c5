"""``repro.obs`` — deterministic observability: metrics, traces, exports.

The paper's six-month crawl of 108.7M accounts was only operable
because its authors could watch throughput, rate-limit pressure, and
error rates as the crawl ran.  This subsystem gives the reproduction
the same eyes:

- :class:`~repro.obs.metrics.MetricsRegistry` — lock-protected
  counters, gauges, and fixed-bucket histograms, cheap enough for the
  request hot path;
- :class:`~repro.obs.tracing.Tracer` — nested spans on a pluggable
  monotonic clock, so tests inject a
  :class:`~repro.obs.clock.FakeClock` and assert byte-identical
  snapshots;
- exporters for Prometheus text exposition (``GET /metrics``), JSON
  snapshots (``--metrics-out``), and console summaries
  (``obs summarize``).

Everything hangs off one :class:`Obs` handle, and every layer always
records into one: an entry point given no :class:`Obs` builds a private
one.  Pass your own to read, export, or trace what a run recorded::

    from repro.obs import Obs
    obs = Obs()
    result = run_full_crawl(transport, obs=obs)
    obs.write("metrics.json")
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from repro.fsutil import atomic_write_text
from repro.obs.benchjson import bench_metric, git_rev, write_bench_json
from repro.obs.chrometrace import to_chrome_trace, write_chrome_trace
from repro.obs.clock import FakeClock, system_clock
from repro.obs.exporters import (
    SNAPSHOT_SCHEMA_VERSION,
    console_summary,
    to_json,
    to_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.reqlog import RequestLog
from repro.obs.slo import DEFAULT_WINDOWS, BurnWindow, SLOSpec, SLOTracker
from repro.obs.trace_context import TRACE_ENV_VAR, TRACE_HEADER, TraceContext
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Obs",
    "RequestLog",
    "SLOSpec",
    "SLOTracker",
    "BurnWindow",
    "DEFAULT_WINDOWS",
    "FakeClock",
    "system_clock",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "TraceContext",
    "TRACE_ENV_VAR",
    "TRACE_HEADER",
    "to_prometheus",
    "to_json",
    "to_chrome_trace",
    "write_chrome_trace",
    "console_summary",
    "bench_metric",
    "git_rev",
    "write_bench_json",
    "DEFAULT_LATENCY_BUCKETS",
    "SNAPSHOT_SCHEMA_VERSION",
]


class Obs:
    """One observability scope: a registry and a tracer on one clock.

    ``trace`` is an optional :class:`TraceContext`; when present, the
    tracer assigns deterministic span ids from it, snapshots carry the
    trace id as ``run_id``, and the scope can be exported as a Chrome
    trace (:meth:`write_trace`).
    """

    def __init__(self, clock=None, trace: TraceContext | None = None) -> None:
        self.clock = clock or time.monotonic
        self.trace = trace
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=self.clock, context=trace)

    # -- recording -----------------------------------------------------------

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self.registry.counter(name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self.registry.gauge(name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets=DEFAULT_LATENCY_BUCKETS,
        labelnames=(),
        exemplars: bool = False,
    ) -> Histogram:
        return self.registry.histogram(
            name, help, buckets, labelnames, exemplars=exemplars
        )

    def span(self, name: str, *, parent_span_id: int | None = None, **attrs):
        return self.tracer.span(name, parent_span_id=parent_span_id, **attrs)

    @contextmanager
    def timed(self, histogram: Histogram, **labels):
        """Observe the duration of a block into ``histogram``."""
        start = self.clock()
        try:
            yield
        finally:
            histogram.observe(self.clock() - start, **labels)

    # -- exporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic dict of metrics, the span tree, and rollups."""
        return {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "run_id": self.trace.trace_id if self.trace else None,
            "git_rev": git_rev(),
            "metrics": self.registry.snapshot(),
            "spans": self.tracer.snapshot(),
            "span_totals": self.tracer.aggregate(),
        }

    def to_json(self) -> str:
        return to_json(self.snapshot())

    def to_prometheus(self) -> str:
        return to_prometheus(self.registry)

    def summary(self) -> str:
        return console_summary(self.snapshot())

    def write(self, path: str | Path) -> Path:
        """Save the JSON snapshot to ``path`` (atomically).

        Snapshots are written tmp-file + fsync + ``os.replace`` — the
        same discipline as checkpoints and the dataset store — so a
        process killed mid-write (``--metrics-out`` on a supervised
        run, the serving snapshot writer) never leaves a truncated
        JSON file behind.
        """
        return atomic_write_text(Path(path), self.to_json())

    def write_trace(self, path: str | Path) -> Path:
        """Save the span forest as a Chrome-trace JSON to ``path``."""
        return write_chrome_trace(path, self.snapshot())


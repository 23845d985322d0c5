"""Arithmetic the benchmark reports with: percentiles, ladder rules,
span self time and the tracing overhead ratio.

Kept free of the program's imports so it can be tested on its own.
"""

from __future__ import annotations

import math

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics rule: "the highest percentile that has at
#: least ten samples beyond it").
MIN_BEYOND = 10


def rank_of(n: int, q: float) -> int:
    """1-based nearest-rank position of quantile ``q`` in ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    return max(1, math.ceil(q * n))


def beyond(n: int, q: float) -> int:
    """Samples strictly past the nearest-rank ``q`` sample."""
    return n - rank_of(n, q)


def supported(n: int, q: float) -> bool:
    """True when ``n`` samples leave ten beyond the ``q`` quantile."""
    return n >= 1 and beyond(n, q) >= MIN_BEYOND


def min_samples(q: float) -> int:
    """Fewest samples for which the ``q`` quantile is supported."""
    n = MIN_BEYOND + 1
    while not supported(n, q):
        n += 1
    return n


def percentile(values, q: float) -> float:
    """Nearest-rank quantile ``q`` of ``values``.

    Raises when fewer than ten samples lie beyond it: a p99 over 200
    samples is the second-largest sample, not a p99.
    """
    ordered = sorted(values)
    if not supported(len(ordered), q):
        raise ValueError(
            f"{len(ordered)} samples leave fewer than {MIN_BEYOND} "
            f"beyond q={q}; need {min_samples(q)}"
        )
    return ordered[rank_of(len(ordered), q) - 1]


def rung_passes(
    latencies, failed: int, limit: float, q: float = 0.99
) -> bool:
    """The ladder rule: a rung passes when its ``q`` latency is within
    ``limit`` and no request failed.  Too few samples never pass."""
    if failed or not supported(len(latencies), q):
        return False
    return percentile(latencies, q) <= limit


def rung_lost(n_planned: int, n_bad: int, q: float = 0.99) -> bool:
    """True once ``n_bad`` requests (over the limit or failed) out of
    ``n_planned`` make the ``q`` latency miss the limit whatever the
    rest do — the rung can stop early."""
    return n_bad > beyond(n_planned, q)


def self_times(spans) -> dict:
    """Span id -> duration minus the part its children cover.

    ``spans`` are objects with ``span_id``, ``parent_id``, ``start`` and
    ``end``.  Children are clipped to their parent and overlapping
    children (threads) are counted once.
    """
    by_parent: dict = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(
            by_parent.get(span.span_id, ()), key=lambda s: s.start
        ):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.span_id] = (span.end - span.start) - covered
    return out


def overhead_ratio(traced_s: float, untraced_s: float) -> float:
    """Traced over untraced time for the same work (1.0 = free)."""
    if untraced_s <= 0:
        raise ValueError("untraced time must be positive")
    return traced_s / untraced_s

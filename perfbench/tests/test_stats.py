"""The benchmark's own arithmetic.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import spread, stats  # noqa: E402
from perfbench.common import layer_of  # noqa: E402
from perfbench.tracing import Span, Tracer  # noqa: E402


class TestPercentile:
    def test_p99_needs_a_thousand_samples(self):
        assert stats.min_samples(0.99) == 1000
        assert stats.supported(1000, 0.99)
        assert not stats.supported(999, 0.99)
        assert stats.beyond(1000, 0.99) == 10

    def test_p50_needs_twenty_samples(self):
        assert stats.min_samples(0.5) == 20

    def test_nearest_rank_value(self):
        values = list(range(1, 1001))  # 1..1000, shuffled order irrelevant
        assert stats.percentile(reversed(values), 0.99) == 990
        assert stats.percentile(values, 0.5) == 500

    def test_unsupported_percentile_raises(self):
        with pytest.raises(ValueError, match="need 1000"):
            stats.percentile(range(999), 0.99)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            stats.rank_of(0, 0.5)
        with pytest.raises(ValueError):
            stats.rank_of(10, 0.0)
        assert stats.rank_of(10, 1.0) == 10


class TestLadderRule:
    def test_passes_at_limit_with_ten_slow_samples(self):
        latencies = [0.001] * 990 + [5.0] * 10
        assert stats.rung_passes(latencies, failed=0, limit=0.1)

    def test_eleventh_slow_sample_fails(self):
        latencies = [0.001] * 989 + [5.0] * 11
        assert not stats.rung_passes(latencies, failed=0, limit=0.1)

    def test_any_failed_request_fails(self):
        assert not stats.rung_passes([0.001] * 1000, failed=1, limit=0.1)

    def test_too_few_samples_never_pass(self):
        assert not stats.rung_passes([0.001] * 999, failed=0, limit=0.1)

    def test_rung_lost_after_eleven_bad(self):
        assert not stats.rung_lost(1000, 10)
        assert stats.rung_lost(1000, 11)

    def test_rung_lost_agrees_with_pass_rule(self):
        for bad in range(0, 20):
            latencies = [0.001] * (1000 - bad) + [1.0] * bad
            assert stats.rung_lost(1000, bad) == (
                not stats.rung_passes(latencies, 0, 0.1)
            )


def _span(span_id, parent, start, end):
    return Span(span_id, parent, f"s{span_id}", start, end, None, 0)


class TestSelfTime:
    def test_leaf_is_all_self(self):
        assert stats.self_times([_span(1, None, 0.0, 2.0)]) == {1: 2.0}

    def test_children_are_subtracted(self):
        spans = [
            _span(1, None, 0.0, 10.0),
            _span(2, 1, 1.0, 3.0),
            _span(3, 1, 5.0, 6.0),
            _span(4, 2, 1.5, 2.5),  # grandchild: only its parent counts
        ]
        out = stats.self_times(spans)
        assert out[1] == pytest.approx(7.0)
        assert out[2] == pytest.approx(1.0)
        assert out[4] == pytest.approx(1.0)

    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = [
            _span(1, None, 0.0, 10.0),
            _span(2, 1, 2.0, 6.0),
            _span(3, 1, 4.0, 12.0),  # overlaps 2, runs past the parent
        ]
        assert stats.self_times(spans)[1] == pytest.approx(2.0)


class TestOverheadRatio:
    def test_ratio(self):
        assert stats.overhead_ratio(11.0, 10.0) == pytest.approx(1.1)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            stats.overhead_ratio(1.0, 0.0)


class TestSpread:
    def test_matches_statistics_quantiles(self):
        values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, med, q3 = 11.75, 14.5, 17.25  # the "exclusive" method
        assert spread.quartile_spread(values) == pytest.approx((q3 - q1) / med)

    def test_worse_by_follows_direction(self):
        assert spread.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
        assert spread.worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)


class _Widget:
    def work(self, n):
        time.sleep(0.001)
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @classmethod
    def make(cls):
        return cls()


class TestTracer:
    def test_patched_records_nested_spans_and_restores(self):
        tracer = Tracer()
        original = _Widget.__dict__["work"]
        keep = []
        targets = [
            (_Widget, "work", "outer", {"request": True}),
            (_Widget, "inner", "inner", {"keep": keep}),
            (_Widget, "make", "make"),
        ]
        with tracer.patched(targets):
            assert _Widget.make().work(2) == 5
        assert _Widget.__dict__["work"] is original
        assert isinstance(_Widget.__dict__["make"], classmethod)
        outer, = tracer.by_name("outer")
        inner, = tracer.by_name("inner")
        assert inner.parent_id == outer.span_id
        assert inner.rid == outer.rid == str(outer.span_id)
        assert keep[0][1] == 4
        selfs = stats.self_times(tracer.spans)
        assert selfs[outer.span_id] == pytest.approx(
            (outer.end - outer.start) - (inner.end - inner.start)
        )

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        with tracer.patched([(_Widget, "inner", "inner")]):
            tracer.enabled = False
            _Widget().inner(1)
        assert tracer.spans == []


def test_warning_layers():
    assert layer_of("/x/src/repro/simworld/ownership.py") == "simworld"
    assert layer_of("/x/src/repro/cli.py") is None
    assert layer_of("/usr/lib/numpy/core.py") is None


def test_arrivals_are_seeded_poisson_at_the_rate():
    import numpy as np

    from perfbench.serve_open import arrivals

    a = arrivals(np.random.default_rng([7, 0]), 1000, 16.0)
    b = arrivals(np.random.default_rng([7, 0]), 1000, 16.0)
    c = arrivals(np.random.default_rng([8, 0]), 1000, 16.0)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert np.all(np.diff(a) >= 0)
    assert a[-1] == pytest.approx(1000 / 16.0, rel=0.01)
    # Same stratified gap distribution for every seed, in another order
    # (the top strata are unbounded, so compare below them).
    gaps_a = np.sort(np.diff(a, prepend=0.0))[:990]
    gaps_c = np.sort(np.diff(c, prepend=0.0))[:990]
    assert np.allclose(gaps_a, gaps_c, atol=0.01)


class TestLayerValues:
    def test_only_declared_metrics_read_zero(self):
        from perfbench.run import layer_values

        values, problems = layer_values(
            ["a.x", "b.y"], {"a.x": 2.0}, frozenset({"b.y"})
        )
        assert values == {"a.x": 2.0, "b.y": 0}
        assert problems == []

    def test_missing_metric_is_a_failure(self):
        from perfbench.run import layer_values

        _, problems = layer_values(["a.x", "b.y"], {"a.x": 2.0}, frozenset())
        assert problems == ["per-layer metric b.y was not measured"]

    def test_undeclared_and_contradictory_names_are_failures(self):
        from perfbench.run import layer_values

        _, problems = layer_values(
            ["a.x"], {"a.x": 1.0, "c.z": 1.0}, frozenset({"a.x"})
        )
        assert len(problems) == 2


def test_warnings_count_every_layer():
    import warnings

    from perfbench.common import LAYERS, counted_warnings

    counts: dict = {}
    with counted_warnings(counts):
        warnings.warn("outside the program")
    assert set(counts) == set(LAYERS) | {"other"}
    assert counts["other"] == 1 and counts["simworld"] == 0


def test_total_of_an_uncalled_target_raises():
    with pytest.raises(LookupError):
        Tracer().total("never.called")

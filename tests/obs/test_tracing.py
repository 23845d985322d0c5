"""Span tracing and the fake clock."""

import pytest

from repro.obs import FakeClock, Obs, Tracer


class TestFakeClock:
    def test_tick_advances_per_read(self):
        clock = FakeClock(start=10.0, tick=0.5)
        assert clock() == 10.0
        assert clock() == 10.5
        assert clock.reads == 2

    def test_zero_tick_stands_still(self):
        clock = FakeClock()
        assert clock() == clock() == 0.0

    def test_advance(self):
        clock = FakeClock()
        clock.advance(3.0)
        assert clock() == 3.0

    def test_time_cannot_go_backwards(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1)


class TestTracer:
    def test_nesting(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        with tracer.span("crawl"):
            with tracer.span("phase:profiles"):
                pass
            with tracer.span("phase:details"):
                pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["crawl"]
        assert [c.name for c in roots[0].children] == [
            "phase:profiles",
            "phase:details",
        ]

    def test_durations_from_fake_clock(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        with tracer.span("outer"):
            pass
        root = tracer.roots()[0]
        assert root.start == 0.0
        assert root.end == 1.0
        assert root.duration == 1.0

    def test_attrs_snapshot_sorted(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s", zebra=1, alpha=2):
            pass
        snap = tracer.snapshot()[0]
        assert list(snap["attrs"]) == ["alpha", "zebra"]

    def test_aggregate_rolls_up_by_name(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        for _ in range(3):
            with tracer.span("shard"):
                pass
        agg = tracer.aggregate()
        assert agg["shard"]["count"] == 3
        assert agg["shard"]["total_seconds"] == pytest.approx(3.0)

    def test_sibling_roots_sorted_by_start(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots()] == ["first", "second"]


class TestObsTimed:
    def test_timed_observes_duration(self):
        obs = Obs(clock=FakeClock(tick=1.0))
        hist = obs.histogram("latency", buckets=(0.5, 2.0))
        with obs.timed(hist):
            pass
        assert hist.count() == 1
        assert hist.sum() == pytest.approx(1.0)

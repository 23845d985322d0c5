"""Crawler methodology benchmarks (Section 3.1).

Two measurements:

1. raw crawl throughput against the in-process simulated API (the
   crawl always records its telemetry, so this is the instrumented
   throughput),
2. the phase-duration asymmetry under the real API's rate limit on
   *virtual* time: the batched (100-per-call) profile sweep is two
   orders of magnitude cheaper than the one-account-per-call detail
   crawl — this is why the paper's phase 1 took three weeks and its
   phase 2 six months.

Set ``REPRO_BENCH_USERS`` to scale the crawl world (default 8,000 —
small enough for CI, large enough that the timing is not dominated by
run-to-run noise).
"""

import os
import time

import pytest

from repro import SteamWorld, WorldConfig
from repro.crawler.profiles import sweep_profiles
from repro.crawler.retry import RetryPolicy
from repro.crawler.runner import run_full_crawl
from repro.crawler.session import CrawlSession
from repro.crawler.throttle import PolitePacer
from repro.obs import bench_metric
from repro.steamapi.service import ENDPOINTS, SteamApiService
from repro.steamapi.transport import InProcessTransport

CRAWL_USERS = int(os.environ.get("REPRO_BENCH_USERS", "8000"))
CRAWL_SEED = 31


@pytest.fixture(scope="module")
def crawl_world():
    return SteamWorld.generate(
        WorldConfig(n_users=CRAWL_USERS, seed=CRAWL_SEED)
    )


class _VirtualTime:
    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_crawler_throughput(benchmark, crawl_world, record, record_json):
    """End-to-end full crawl throughput.

    Times one crawl under pytest-benchmark, then takes the best of seven
    more.  Scheduler noise only ever *adds* time, so the min of several
    runs is the standard estimator of the true cost (same reasoning as
    ``timeit``).
    """
    service = SteamApiService.from_world(crawl_world)

    def crawl():
        start = time.perf_counter()
        result = run_full_crawl(InProcessTransport(service))
        return result, time.perf_counter() - start

    result, _ = benchmark.pedantic(crawl, rounds=1, iterations=1)
    requests = result.requests_made
    # The service counts across crawls: read one crawl's counts now.
    counts = {name: service.request_count(name) for name in ENDPOINTS}
    seconds = min(crawl()[1] for _ in range(7))

    lines = [
        "Crawler throughput (in-process transport)",
        f"accounts: {crawl_world.config.n_users:,}",
        f"API requests: {requests:,}",
        f"seconds: {seconds:.2f}",
        "per-endpoint requests:",
    ]
    for endpoint, count in sorted(counts.items()):
        lines.append(f"  {endpoint:<35} {count:>8,}")
    record("crawler_throughput", lines)
    record_json(
        "crawler_throughput",
        [
            bench_metric("requests", requests, "requests"),
            bench_metric("crawl_seconds", round(seconds, 4), "s"),
            bench_metric(
                "requests_per_second",
                round(requests / seconds, 1),
                "requests/s",
            ),
        ],
        seed=CRAWL_SEED,
        n_users=crawl_world.config.n_users,
    )

    assert result.dataset.n_users == crawl_world.config.n_users
    assert sum(counts.values()) == requests
    # Detail phase dominates: 3 calls/user vs ~1 call per 100 IDs.
    details = (
        counts["GetFriendList"]
        + counts["GetOwnedGames"]
        + counts["GetUserGroupList"]
    )
    assert details > 10 * counts["GetPlayerSummaries"]


def test_phase_duration_asymmetry(benchmark, crawl_world, record, record_json):
    """Virtual-time crawl durations under a realistic API budget."""
    service = SteamApiService.from_world(crawl_world)
    transport = InProcessTransport(service)
    # 100k calls/day is the documented Steam Web API budget.
    rate = 100_000 / 86_400.0

    timer = _VirtualTime()
    session = CrawlSession(
        transport=transport,
        pacer=PolitePacer(
            rate, politeness=0.85, clock=timer.clock, sleeper=timer.sleep
        ),
        retry=RetryPolicy(sleeper=timer.sleep),
    )
    sweep = benchmark.pedantic(
        sweep_profiles, args=(session,), rounds=1, iterations=1
    )
    phase1_days = timer.now / 86_400.0
    phase1_calls = session.requests_made

    # Phase 2 makes 3 calls per discovered account.
    phase2_calls = 3 * sweep.n_accounts
    phase2_days = phase2_calls / (rate * 0.85) / 86_400.0

    scale = 108_700_000 / crawl_world.config.n_users
    lines = [
        "Phase duration asymmetry (virtual time, 85% of 100k calls/day)",
        f"phase 1 (batched profiles): {phase1_calls:,} calls, "
        f"{phase1_days:.2f} virtual days",
        f"phase 2 (per-user details): {phase2_calls:,} calls, "
        f"{phase2_days:.2f} virtual days",
        f"asymmetry: phase 2 is {phase2_days / phase1_days:.0f}x longer",
        f"extrapolated to 108.7M accounts (single key): "
        f"phase 1 ~{phase1_days * scale:.0f} days, "
        f"phase 2 ~{phase2_days * scale:.0f} days",
        "paper: phase 1 took ~3 weeks; phase 2 took ~6 months "
        "(with multiple keys / higher budget)",
    ]
    record("crawler_phase_asymmetry", lines)
    record_json(
        "crawler_phase_asymmetry",
        [
            bench_metric("phase1_calls", phase1_calls, "requests"),
            bench_metric(
                "phase1_virtual_days", round(phase1_days, 3), "days"
            ),
            bench_metric("phase2_calls", phase2_calls, "requests"),
            bench_metric(
                "phase2_virtual_days", round(phase2_days, 3), "days"
            ),
            bench_metric(
                "asymmetry_ratio",
                round(phase2_days / phase1_days, 1),
                "x",
            ),
        ],
        seed=CRAWL_SEED,
        n_users=crawl_world.config.n_users,
    )

    # The batched endpoint makes phase 1 vastly cheaper (the paper's
    # 3-weeks-vs-6-months asymmetry).
    assert phase2_days > 20 * phase1_days

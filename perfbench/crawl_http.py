"""``crawl_http``: a full crawl of a small world over localhost HTTP.

One closed-loop client: ``run_full_crawl(HttpTransport(...))`` against
``steamapi.http_server.serve`` in the same process, as the pipeline's
crawl step does it.  Payloads are small, so the time is per-request
transport (one TCP connection per request today) and analysis changes
should not move this workload.

The process runs on one CPU.  Client and server threads hand the
interpreter lock back and forth several times per request; spread over
two virtual CPUs every hand-off is a cross-CPU wake-up whose latency is
set by the host.  In alternating runs on a shared 2-vCPU VM, pinned
crawls made 688-882 req/s and unpinned ones 171-445 req/s.
"""

from __future__ import annotations

import os
import time

from perfbench import stats
from perfbench.common import (
    counted_warnings,
    import_seconds,
    median_setup,
)
from perfbench.env import (
    netstat_counters,
    netstat_delta,
    peak_rss_mb,
    time_wait_sockets,
)
from perfbench.tracing import Tracer, timed_calls

USERS = 1_000
#: A 1,000-product catalog (the paper's is 6,156) keeps one crawl near
#: 5,100 requests, about ten seconds at today's request rate.
PRODUCTS = 1_000
#: Per-layer metrics of the other workloads' layers, which read 0 here
#: (the crawl keeps no checkpoint).
NOT_EXERCISED = frozenset(
    {
        "simworld.generate_s",
        "simworld.evolve_s",
        "pipeline.overhead_s",
        "crawler.checkpoint_s",
        "store.save_s",
        "store.load_s",
        "store.bytes_written",
        "engine.analyze_cold_s",
        "engine.stages_executed_cold",
        "tailfit.table4_s",
        "engine.analyze_delta_s",
        "engine.stages_executed_delta",
        "engine.cache_hit_ratio_delta",
        "delta.crawl_s",
        "delta.requests",
        "delta.transport_s",
        "delta.refresh_s",
        "serving.store_build_s",
        "serving.store_rebuild_s",
        "serving.service_p50_ms",
        "serving.service_p99_ms",
        "serving.wait_p99_ms",
        "serving.cache_hit_ratio",
        "serving.shed",
        "loadgen.latency_p99_ms",
        "loadgen.late_p99_ms",
        "loadgen.conn_wait_p99_ms",
        "loadgen.invalid_rungs",
        "obs.records_per_response",
    }
)
IMPORTS = (
    "repro.crawler.runner",
    "repro.steamapi.http_server",
    "repro.steamapi.http_client",
)


def _world(seed: int):
    from repro.simworld.config import CatalogConfig, WorldConfig
    from repro.simworld.world import SteamWorld

    return SteamWorld.generate(
        WorldConfig(
            n_users=USERS,
            seed=seed,
            catalog=CatalogConfig(n_products=PRODUCTS),
        )
    )


def _serve(seed: int):
    """Set-up: the world and a listening API server."""
    from repro.steamapi.http_server import serve
    from repro.steamapi.service import SteamApiService

    world = _world(seed)
    return world, serve(SteamApiService.from_world(world))


def _crawl(world, server):
    from repro.crawler.runner import run_full_crawl
    from repro.steamapi.http_client import HttpTransport

    start = time.perf_counter()
    result = run_full_crawl(
        HttpTransport(server.base_url), snapshot2=world.dataset.snapshot2
    )
    return result, time.perf_counter() - start


def _setup_once(seed: int) -> float:
    start = time.perf_counter()
    _, server = _serve(seed)
    elapsed = time.perf_counter() - start
    server.close()
    return elapsed


def _targets():
    import repro.crawler.runner as runner
    from repro.steamapi.http_client import HttpTransport
    from repro.steamapi.http_server import DrainingThreadingHTTPServer
    from repro.steamapi.service import SteamApiService

    return [
        (runner, "run_full_crawl", "crawler.crawl"),
        (runner, "sweep_profiles", "crawler.profiles"),
        (runner, "crawl_details", "crawler.details"),
        (runner, "crawl_achievements", "crawler.achievements"),
        (runner, "crawl_storefront", "crawler.storefront"),
        (HttpTransport, "request", "steamapi.transport", {"request": True}),
        (SteamApiService, "dispatch", "steamapi.dispatch"),
        (
            DrainingThreadingHTTPServer,
            "process_request",
            "steamapi.connection",
        ),
    ]


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.crawler.runner import run_full_crawl
    from repro.steamapi.http_client import HttpTransport
    from repro.steamapi.service import SteamApiService
    from repro.steamapi.transport import InProcessTransport

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    setup_s = median_setup(
        lambda: import_seconds(IMPORTS) + _setup_once(seed)
    )
    world, server = _serve(seed)
    try:
        time_wait = time_wait_sockets()
        net_before = netstat_counters()
        latencies: list[float] = []
        errors: list[float] = []
        results, walls = [], []
        while not walls or (not trace and sum(walls) < seconds):
            with timed_calls(HttpTransport, "request", latencies, errors):
                result, wall = _crawl(world, server)
            results.append(result)
            walls.append(wall)
        net = netstat_delta(net_before, netstat_counters())
        # Before the traced and reference crawls, which are not the
        # workload.
        rss_mb = peak_rss_mb()
        if trace:
            from repro.steamapi.http_server import serve

            tracer = Tracer()
            warn_counts: dict = {}
            # The server binds the dispatch method when it starts, so the
            # traced crawl gets its own server, started under the patches.
            with counted_warnings(warn_counts), tracer.patched(_targets()):
                with serve(SteamApiService.from_world(world)) as traced_server:
                    traced, traced_wall = _crawl(world, traced_server)
            # Untraced crawls on both sides of the traced one, so drift
            # and warm-up do not pass for tracing cost.
            _, after_wall = _crawl(world, server)
    finally:
        server.close()

    reference = run_full_crawl(
        InProcessTransport(SteamApiService.from_world(world)),
        snapshot2=world.dataset.snapshot2,
    )
    failures = [
        f"crawl {i} fingerprint differs from the in-process crawl"
        for i, result in enumerate(results)
        if result.dataset.fingerprint() != reference.dataset.fingerprint()
    ]
    requests = sum(r.requests_made for r in results)
    out = {
        "failures": failures,
        "attempted": len(latencies),
        "failed": len(errors),
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
            "throughput_per_s": requests / sum(walls),
            "latency_p50_ms": stats.percentile(latencies, 0.5) * 1000,
            "latency_p90_ms": stats.percentile(latencies, 0.9) * 1000,
        },
        "info": {
            "latency_p99_ms": stats.percentile(latencies, 0.99) * 1000,
            "users": USERS,
            "products": PRODUCTS,
            "cpu": cpu,
            "crawls": len(walls),
            "crawl_s": walls,
            "requests_per_crawl": results[0].requests_made,
            "time_wait_at_start": time_wait,
            "netstat_delta": net,
        },
    }
    if trace:
        if traced.dataset.fingerprint() != reference.dataset.fingerprint():
            failures.append("traced crawl fingerprint differs")
        rtt = tracer.durations("steamapi.transport")
        dispatch = tracer.durations("steamapi.dispatch")
        crawl_span = tracer.by_name("crawler.crawl")[0]
        layers = {
            "crawler.requests": traced.requests_made,
            "crawler.attempts": traced.attempts,
            "crawler.retries": traced.retries,
            "crawler.profiles_s": tracer.total("crawler.profiles"),
            "crawler.details_s": tracer.total("crawler.details"),
            "crawler.achievements_s": tracer.total("crawler.achievements"),
            "crawler.storefront_s": tracer.total("crawler.storefront"),
            "crawler.self_s": (crawl_span.end - crawl_span.start)
            - sum(rtt),
            "steamapi.dispatch_s": sum(dispatch),
            "steamapi.transport_p50_ms": stats.percentile(rtt, 0.5) * 1000,
            "steamapi.transport_p99_ms": stats.percentile(rtt, 0.99) * 1000,
            "steamapi.http_overhead_ms": (
                sum(rtt) / len(rtt) - sum(dispatch) / len(dispatch)
            )
            * 1000,
            "steamapi.connections_per_request": len(
                tracer.by_name("steamapi.connection")
            )
            / len(dispatch),
            "net.listen_overflows": net["ListenOverflows"],
            "net.listen_drops": net["ListenDrops"],
            "net.time_wait_at_start": time_wait,
            "obs.trace_overhead_ratio": stats.overhead_ratio(
                traced_wall, (walls[0] + after_wall) / 2
            ),
        }
        for name, count in warn_counts.items():
            layers[f"{name}.warnings"] = count
        out["layers"] = layers
        out["tracer"] = tracer
    return out

"""``batch``: the supervised pipeline, store build and a 1 % refresh.

One closed-loop caller runs ``PipelineSupervisor(http=False)`` in a
fresh work directory (generate → in-process crawl → save/load → cold
analysis with table 4 under the stage cache), builds the analytics
store, then absorbs a 1 % playtime-only change: ``evolve`` →
``run_delta_crawl`` → warm ``SteamStudy.run`` → warm store build.  The
crawl goes in-process, so transport changes should not move this
workload.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from contextlib import nullcontext

from perfbench import stats
from perfbench.common import (
    OUT,
    counted_warnings,
    import_seconds,
    median_setup,
    workdir,
)
from perfbench.env import peak_rss_mb
from perfbench.tracing import Tracer, timed_calls

#: World size.  The pipeline's crawl step checkpoints by re-serialising
#: its whole harvest, which costs ~20 s at this size and ~290 s at 200 k
#: on a 2-CPU container — over the per-run time limit.
USERS = 10_000
PLAY_RATE = 0.01
#: Per-layer metrics of the HTTP workloads, which read 0 here.
NOT_EXERCISED = frozenset(
    {
        "steamapi.http_overhead_ms",
        "steamapi.connections_per_request",
        "serving.service_p50_ms",
        "serving.service_p99_ms",
        "serving.wait_p99_ms",
        "serving.cache_hit_ratio",
        "serving.shed",
        "net.listen_overflows",
        "net.listen_drops",
        "net.time_wait_at_start",
        "loadgen.latency_p99_ms",
        "loadgen.late_p99_ms",
        "loadgen.conn_wait_p99_ms",
        "loadgen.invalid_rungs",
        "obs.records_per_response",
    }
)
IMPORTS = (
    "repro.pipeline.supervisor",
    "repro.serving",
    "repro.delta.crawl",
    "repro.simworld.evolution",
)


def _refresh_config():
    from repro.simworld.evolution import EvolveConfig

    return EvolveConfig(
        account_growth=0.0,
        buy_rate=0.0,
        friend_form_rate=0.0,
        friend_drop_rate=0.0,
        play_rate=PLAY_RATE,
    )


def _unit(seed: int, root, tracer: Tracer | None) -> dict:
    """One cold chain plus refresh; returns timings and artefacts."""
    from repro.core.study import SteamStudy
    from repro.delta.crawl import run_delta_crawl
    from repro.engine import StageCache
    from repro.pipeline.supervisor import PipelineSupervisor
    from repro.serving import AnalyticsStore
    from repro.simworld.evolution import evolve
    from repro.steamapi.service import SteamApiService
    from repro.steamapi.transport import InProcessTransport
    from repro.store.io import load_dataset

    span = tracer.span if tracer else (lambda name: nullcontext())
    chain = root / "chain"
    start = time.perf_counter()
    PipelineSupervisor(workdir=chain, users=USERS, seed=seed, http=False).run()
    with span("store.load"):
        crawled = load_dataset(chain / "crawled.npz")
    cache = StageCache(chain / "stage_cache")
    AnalyticsStore.build(crawled, cache=cache)
    cold_s = time.perf_counter() - start

    # The served world for the refresh is the one the pipeline saved;
    # loading it belongs to the simulation, not to the refresh.
    world = load_dataset(chain / "world.npz")
    start = time.perf_counter()
    with span("simworld.evolve"):
        step = next(
            evolve(world, steps=1, seed=seed + 1, config=_refresh_config())
        )
    with span("delta.crawl"):
        dres = run_delta_crawl(
            InProcessTransport(SteamApiService(step.dataset)),
            crawled,
            step.delta,
            snapshot2=crawled.snapshot2,
        )
    with span("delta.analyze"):
        study = SteamStudy.from_dataset(dres.dataset)
        warm_report = study.run(include_table4=True, cache=cache)
    with span("delta.store_rebuild"):
        rebuilt = AnalyticsStore.build(dres.dataset, cache=cache)
    refresh_s = time.perf_counter() - start
    return {
        "cold_s": cold_s,
        "refresh_s": refresh_s,
        "dres": dres,
        "warm_report": warm_report,
        "warm_run": study.last_engine_run,
        "rebuilt": rebuilt,
        "report_path": chain / "report.txt",
    }


def _targets(keep: dict):
    import repro.crawler.runner as runner
    import repro.pipeline.supervisor as supervisor
    from repro.core.study import SteamStudy
    from repro.crawler.checkpoint import CrawlCheckpoint
    from repro.pipeline.supervisor import PipelineSupervisor
    from repro.serving import AnalyticsStore
    from repro.simworld.world import SteamWorld
    from repro.steamapi.service import SteamApiService
    from repro.steamapi.transport import InProcessTransport

    return [
        (PipelineSupervisor, "run", "pipeline.run"),
        (SteamWorld, "generate", "simworld.generate"),
        (supervisor, "save_dataset", "store.save", {"keep": keep["save"]}),
        (supervisor, "load_dataset", "store.load"),
        (runner, "run_full_crawl", "crawler.crawl", {"keep": keep["crawl"]}),
        (runner, "sweep_profiles", "crawler.profiles"),
        (runner, "crawl_details", "crawler.details"),
        (runner, "crawl_achievements", "crawler.achievements"),
        (runner, "crawl_storefront", "crawler.storefront"),
        (CrawlCheckpoint, "save", "crawler.checkpoint_save"),
        (InProcessTransport, "request", "steamapi.transport", {"request": True}),
        (SteamApiService, "dispatch", "steamapi.dispatch"),
        (SteamStudy, "run", "engine.analyze", {"keep": keep["analyze"]}),
        (AnalyticsStore, "build", "serving.build"),
    ]


def _inside(spans, outer) -> list:
    """Spans of ``spans`` that lie within any span of ``outer``."""
    return [
        s
        for s in spans
        if any(o.start <= s.start and s.end <= o.end for o in outer)
    ]


def _layer_metrics(tracer: Tracer, keep: dict, unit: dict) -> dict:
    crawl_spans = tracer.by_name("crawler.crawl")
    transport = tracer.by_name("steamapi.transport")
    rtt = [s.end - s.start for s in transport]
    in_crawl = _inside(transport, crawl_spans)
    crawl_s = sum(s.end - s.start for s in crawl_spans)
    selfs = stats.self_times(tracer.spans)
    pipeline = tracer.by_name("pipeline.run")
    result = keep["crawl"][-1][1]
    cold_run = keep["analyze"][0][0][0].last_engine_run
    warm_run = unit["warm_run"]
    delta_transport = _inside(transport, tracer.by_name("delta.crawl"))
    builds = tracer.by_name("serving.build")
    analyses = tracer.by_name("engine.analyze")
    return {
        "simworld.generate_s": tracer.total("simworld.generate"),
        "simworld.evolve_s": tracer.total("simworld.evolve"),
        "pipeline.overhead_s": sum(selfs[s.span_id] for s in pipeline),
        "crawler.requests": result.requests_made,
        "crawler.attempts": result.attempts,
        "crawler.retries": result.retries,
        "crawler.profiles_s": tracer.total("crawler.profiles"),
        "crawler.details_s": tracer.total("crawler.details"),
        "crawler.achievements_s": tracer.total("crawler.achievements"),
        "crawler.storefront_s": tracer.total("crawler.storefront"),
        "crawler.checkpoint_s": tracer.total("crawler.checkpoint_save"),
        "crawler.self_s": crawl_s - sum(s.end - s.start for s in in_crawl),
        "steamapi.dispatch_s": tracer.total("steamapi.dispatch"),
        "steamapi.transport_p50_ms": stats.percentile(rtt, 0.5) * 1000,
        "steamapi.transport_p99_ms": stats.percentile(rtt, 0.99) * 1000,
        "store.save_s": tracer.total("store.save"),
        "store.load_s": tracer.total("store.load"),
        "store.bytes_written": sum(
            path.stat().st_size for (_, path), _ in keep["save"]
        ),
        "engine.analyze_cold_s": analyses[0].end - analyses[0].start,
        "engine.stages_executed_cold": len(cold_run.executed),
        "tailfit.table4_s": sum(
            v
            for k, v in cold_run.stage_seconds.items()
            if k.startswith("table4:")
        ),
        "engine.analyze_delta_s": tracer.total("delta.analyze"),
        "engine.stages_executed_delta": len(warm_run.executed),
        "engine.cache_hit_ratio_delta": len(warm_run.cached)
        / warm_run.n_stages,
        "delta.crawl_s": tracer.total("delta.crawl"),
        "delta.requests": unit["dres"].requests_made,
        "delta.transport_s": sum(s.end - s.start for s in delta_transport),
        "delta.refresh_s": unit["refresh_s"],
        "serving.store_build_s": builds[0].end - builds[0].start,
        "serving.store_rebuild_s": tracer.total("delta.store_rebuild"),
    }


def _checks(seed: int, unit: dict) -> list[str]:
    """Output checks, outside the timed region; returns failures."""
    from repro.core.study import SteamStudy

    failures = []
    text = unit["report_path"].read_bytes()
    sha = hashlib.sha256(text).hexdigest()
    ledger = OUT / "batch-reports.json"
    known = json.loads(ledger.read_text()) if ledger.exists() else {}
    key = f"{USERS}:{seed}"
    if known.setdefault(key, sha) != sha:
        failures.append(f"report bytes differ from an earlier run of seed {seed}")
    tmp = ledger.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(ledger)

    dres = unit["dres"]
    if dres.delta.fingerprint != dres.dataset.fingerprint():
        failures.append("delta.fingerprint != delta-crawled dataset fingerprint")
    uncached = SteamStudy.from_dataset(dres.dataset).run(include_table4=True)
    if uncached.render() != unit["warm_report"].render():
        failures.append("warm report differs from an uncached analysis")
    if unit["rebuilt"].fingerprint != dres.dataset.fingerprint():
        failures.append("rebuilt store is not keyed on the refreshed dataset")
    return failures


def run(seed: int, seconds: float, trace: bool) -> dict:
    # Nothing runs before the first timed operation but loading the
    # program: set-up is a fresh interpreter importing it.
    setup_s = median_setup(lambda: import_seconds(IMPORTS))
    root = workdir("batch")
    try:
        return _measure(seed, seconds, trace, root, setup_s)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _measure(seed, seconds, trace, root, setup_s) -> dict:
    from repro.steamapi.transport import InProcessTransport

    cold, refresh = [], []
    latencies: list[float] = []
    errors: list[float] = []
    # Untraced units: the end-to-end numbers (and, in a traced run, the
    # baseline the overhead ratio divides by).
    while not cold or (not trace and sum(cold) + sum(refresh) < seconds):
        with timed_calls(InProcessTransport, "request", latencies, errors):
            unit = _unit(seed, root / f"u{len(cold)}", None)
        cold.append(unit["cold_s"])
        refresh.append(unit["refresh_s"])
    # Before the checks: their uncached analysis is not the workload.
    rss_mb = peak_rss_mb()
    failures = _checks(seed, unit)
    out = {
        "failures": failures,
        "attempted": len(latencies),
        "failed": len(errors),
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
            "throughput_per_s": USERS * len(cold) / sum(cold),
            "latency_p50_ms": stats.percentile(latencies, 0.5) * 1000,
            "latency_p90_ms": stats.percentile(latencies, 0.9) * 1000,
        },
        "info": {
            "latency_p99_ms": stats.percentile(latencies, 0.99) * 1000,
            "users": USERS,
            "cold_s": cold,
            "refresh_s": refresh,
            "delta_requests": unit["dres"].requests_made,
        },
    }
    if trace:
        tracer = Tracer()
        keep = {"save": [], "crawl": [], "analyze": []}
        warn_counts: dict = {}
        with counted_warnings(warn_counts), tracer.patched(_targets(keep)):
            traced = _unit(seed, root / "traced", tracer)
        if traced["report_path"].read_bytes() != unit["report_path"].read_bytes():
            failures.append("tracing changed the report bytes")
        layers = _layer_metrics(tracer, keep, traced)
        for name, count in warn_counts.items():
            layers[f"{name}.warnings"] = count
        layers["obs.trace_overhead_ratio"] = stats.overhead_ratio(
            traced["cold_s"] + traced["refresh_s"], cold[0] + refresh[0]
        )
        out["layers"] = layers
        out["tracer"] = tracer
    return out

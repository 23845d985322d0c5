"""``serve_open``: an open-loop rate ladder against ``serve_analytics``.

The server runs in its own process (``serve_proc.py``) over a
100 k-user store.  The load generator here is one process with at most
``nproc`` keep-alive HTTP/1.1 connections and seeded Poisson arrivals;
each request is timed from when it was due, so a stall also charges
the requests queued behind it.  The rate climbs 16, 64, 256, 1024 and
4096 req/s; each rung sends enough requests for its p99 to have ten
samples beyond it, and the ladder stops after the first rung that
misses the limit.  A rung on which the generator itself ran late is
invalid, not failed: it is run again with fresh draws.  Users are drawn
Zipf over the whole population, so the hot head hits the 4,096-entry
response cache and the tail misses.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

import numpy as np

from perfbench import stats
from perfbench.common import ROOT, program_env
from perfbench.env import netstat_counters, netstat_delta, time_wait_sockets

USERS = 100_000
RATES = (16, 64, 256, 1024, 4096)
#: Latency limit on each rung's p99.
LIMIT_S = 0.100
QUANTILE = 0.99
#: Requests per rung: the fewest that leave ten samples beyond the p99.
PER_RUNG = stats.min_samples(QUANTILE)
#: A rung whose generator ran later than this at p99 is invalid: the
#: load generator, not the server, set its numbers.
LATE_LIMIT_S = 0.010
#: Tries at a rung before a generator that keeps running late fails
#: the run.  Two tries of the 16 req/s rung keep a run under 180 s.
ATTEMPTS = 2
CONNECTIONS = min(2, os.cpu_count() or 1)
#: Zipf exponent of user popularity.  Breslau et al., "Web Caching and
#: Zipf-like Distributions: Evidence and Implications" (INFOCOM 1999),
#: fit 0.64-0.83 to web proxy request traces; that analytics users are
#: requested like web pages is an assumption.
ZIPF_S = 0.8
#: Every fifth request of the first rung: 200 bodies checked byte for
#: byte against in-process dispatch.
SAMPLE_EVERY = 5
#: Closed-loop requests per side of the tracing-overhead probe.
PROBE_REQUESTS = 200
#: The even route mix of benchmarks/bench_serving.py: five routes a
#: sixth each, the sixth slot split between tailfit and homophily.
ROUTE_WEIGHTS = (
    ("summary", 2 / 12),
    ("neighborhood", 2 / 12),
    ("app", 2 / 12),
    ("percentile", 2 / 12),
    ("rank", 2 / 12),
    ("tailfit", 1 / 12),
    ("homophily", 1 / 12),
)
#: Per-layer metrics of the batch and crawl layers, which read 0 here.
NOT_EXERCISED = frozenset(
    {
        "simworld.generate_s",
        "simworld.evolve_s",
        "pipeline.overhead_s",
        "crawler.requests",
        "crawler.attempts",
        "crawler.retries",
        "crawler.profiles_s",
        "crawler.details_s",
        "crawler.achievements_s",
        "crawler.storefront_s",
        "crawler.checkpoint_s",
        "crawler.self_s",
        "steamapi.dispatch_s",
        "steamapi.transport_p50_ms",
        "steamapi.transport_p99_ms",
        "steamapi.http_overhead_ms",
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
    }
)
ATTRIBUTES = (
    "friends",
    "owned_games",
    "group_memberships",
    "market_value",
    "total_playtime_hours",
    "twoweek_playtime_hours",
)
HOMOPHILY = ("friends", "owned_games", "market_value", "total_playtime")


class Server:
    """A ``serve_proc.py`` child speaking JSON lines over its pipes."""

    def __init__(self, seed: int, trace: bool, spans: str = "") -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(ROOT / "perfbench" / "serve_proc.py"),
                "--users",
                str(USERS),
                "--seed",
                str(seed),
                "--trace",
                str(int(trace)),
                "--spans",
                spans,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=program_env(),
            text=True,
        )
        try:
            hello = self.read()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start
        self.port = hello["port"]
        self.steamids = np.array(hello["steamids"], dtype=np.int64)
        self.appids = np.array(hello["appids"], dtype=np.int64)

    def read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process exited")
        return json.loads(line)

    def ask(self, command: dict):
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def make_paths(rng, n: int, steamids, appids) -> list[str]:
    """``n`` request paths of the route mix, users Zipf over all ids."""
    kinds = rng.choice(
        [k for k, _ in ROUTE_WEIGHTS], size=n, p=[w for _, w in ROUTE_WEIGHTS]
    )
    ranks = np.arange(1, len(steamids) + 1, dtype=np.float64)
    cdf = np.cumsum(ranks**-ZIPF_S)
    cdf /= cdf[-1]
    # A seeded permutation decides which users are hot.
    hot = rng.permutation(steamids)
    users = hot[np.searchsorted(cdf, rng.random(n))]
    apps = appids[rng.integers(0, len(appids), n)]
    attrs = rng.integers(0, len(ATTRIBUTES), n)
    homs = rng.integers(0, len(HOMOPHILY), n)
    qs = rng.integers(0, 101, n)
    paths = []
    for i, kind in enumerate(kinds):
        attr = ATTRIBUTES[attrs[i]]
        paths.append(
            {
                "summary": f"/users/{users[i]}/summary",
                "neighborhood": f"/users/{users[i]}/neighborhood?limit=10",
                "app": f"/apps/{apps[i]}/stats",
                "percentile": f"/distributions/{attr}/percentile?q={qs[i]}",
                "rank": f"/distributions/{attr}/rank?value={qs[i]}",
                "tailfit": f"/tailfit/{attr}",
                "homophily": f"/homophily/{HOMOPHILY[homs[i]]}",
            }[kind]
        )
    return paths


def arrivals(rng, n: int, rate: float) -> np.ndarray:
    """Seeded Poisson arrival offsets: ``n`` exponential gaps at ``rate``.

    The gaps come from stratified uniforms in seeded order, so every
    seed draws the same gap distribution and differs only in the order
    of the gaps — the run-to-run spread of a tail latency then reflects
    the server, not how many short gaps a seed happened to draw.
    """
    u = (rng.permutation(n) + rng.random(n)) / n
    return np.cumsum(-np.log1p(-u) / rate)


class Rung:
    """One rate of the ladder, driven open-loop over keep-alive
    connections; every request keeps its due/picked/sent/done times."""

    def __init__(self, port, paths, offsets, trace_ids, early_stop, sample):
        self.port = port
        self.paths = paths
        self.offsets = offsets
        self.trace_ids = trace_ids
        self.early_stop = early_stop
        self.sample = sample
        self.rows: list[tuple] = []
        self.bodies: dict[int, str] = {}
        self._next = 0
        self._bad = 0
        self._stop = False
        self._lock = threading.Lock()

    def run(self) -> "Rung":
        self.t0 = time.perf_counter() + 0.05
        workers = [
            threading.Thread(target=self._worker) for _ in range(CONNECTIONS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        return self

    def _worker(self) -> None:
        """One keep-alive connection taking the next due request as soon
        as it is free."""
        clock = time.perf_counter
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            while True:
                with self._lock:
                    i = self._next
                    if i >= len(self.paths) or self._stop:
                        return
                    self._next += 1
                picked = clock()
                due = self.t0 + self.offsets[i]
                if due > picked:
                    time.sleep(due - picked)
                headers = {}
                if self.trace_ids is not None:
                    headers["X-Repro-Trace"] = f"{self.trace_ids[i]}:1"
                sent = clock()
                try:
                    conn.request("GET", self.paths[i], headers=headers)
                    response = conn.getresponse()
                    body = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    body, status = b"", -1
                done = clock()
                if i in self.sample:
                    self.bodies[i] = hashlib.sha256(body).hexdigest()
                with self._lock:
                    self.rows.append((i, due, picked, sent, done, status))
                    if status != 200 or done - due > LIMIT_S:
                        self._bad += 1
                        if self.early_stop and stats.rung_lost(
                            len(self.paths), self._bad, QUANTILE
                        ):
                            self._stop = True
        finally:
            conn.close()

    def latencies(self) -> list[float]:
        return [done - due for _, due, _, _, done, _ in self.rows]

    def failed(self) -> int:
        return sum(1 for row in self.rows if row[5] != 200)

    def late(self) -> list[float]:
        return [sent - max(due, picked) for _, due, picked, sent, _, _ in self.rows]

    def conn_wait(self) -> list[float]:
        return [max(0.0, picked - due) for _, due, picked, _, _, _ in self.rows]

    def achieved_rate(self) -> float:
        done = max(row[4] for row in self.rows)
        return len(self.rows) / (done - self.t0)


def _quiet_percentile(values, q):
    """The percentile when the sample supports it, else the maximum."""
    if stats.supported(len(values), q):
        return stats.percentile(values, q)
    return max(values) if values else 0.0


def _drive(server: Server, seed: int, k: int, attempt: int, trace: bool):
    """Run rung ``k`` once; ``attempt`` > 0 draws fresh requests."""
    rng = np.random.default_rng([seed, k, attempt])
    paths = make_paths(rng, PER_RUNG, server.steamids, server.appids)
    offsets = arrivals(rng, PER_RUNG, RATES[k])
    trace_ids = (
        [f"{k + 1:02x}{attempt:02x}{i:012x}" for i in range(PER_RUNG)]
        if trace
        else None
    )
    sample = set(range(0, PER_RUNG, SAMPLE_EVERY)) if k == 0 else set()
    # The first rung always runs to the end: its latencies are the
    # reported latency.  Later rungs stop once they cannot pass.
    return Rung(server.port, paths, offsets, trace_ids, k > 0, sample).run()


def ladder(server: Server, seed: int, trace: bool) -> tuple[list, list]:
    """The rungs run, each the last of its tries, and the run's failures.

    An invalid try (the generator ran late) is neither passed nor
    failed: the rung is tried again, up to :data:`ATTEMPTS` times.
    """
    rungs, failures = [], []
    for k, rate in enumerate(RATES):
        tries = []
        while True:
            rung = _drive(server, seed, k, len(tries), trace)
            tries.append(rung)
            late = rung.late()
            valid = bool(_quiet_percentile(late, QUANTILE) <= LATE_LIMIT_S)
            if valid or len(tries) == ATTEMPTS:
                break
        lat = rung.latencies()
        passed = bool(
            valid
            and len(rung.rows) == PER_RUNG
            and stats.rung_passes(lat, rung.failed(), LIMIT_S, QUANTILE)
        )
        rungs.append(
            {
                "rate": rate,
                "rung": rung,
                "tries": tries,
                "attempts": len(tries),
                "sent": len(rung.rows),
                "failed": rung.failed(),
                "valid": valid,
                "passed": passed,
                "p50_ms": _quiet_percentile(lat, 0.5) * 1000,
                "p90_ms": _quiet_percentile(lat, 0.9) * 1000,
                "p99_ms": _quiet_percentile(lat, QUANTILE) * 1000,
                "late_p99_ms": _quiet_percentile(late, QUANTILE) * 1000,
                "conn_wait_p99_ms": _quiet_percentile(
                    rung.conn_wait(), QUANTILE
                )
                * 1000,
            }
        )
        if not valid:
            failures.append(
                f"the load generator ran late at {rate} req/s on all "
                f"{ATTEMPTS} tries (late p99 "
                f"{rungs[-1]['late_p99_ms']:.1f} ms > "
                f"{LATE_LIMIT_S * 1000:.0f} ms): no valid result"
            )
        if not passed:
            break
    return rungs, failures


def _probe(server: Server, paths: list[str]) -> list[float]:
    """Closed-loop round trips, one fresh connection per request."""
    out = []
    for path in paths:
        start = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("GET", path)
            conn.getresponse().read()
        finally:
            conn.close()
        out.append(time.perf_counter() - start)
    return out


def overhead_probe(server: Server, paths: list[str]) -> float:
    """Median traced over median untraced round trip, alternating
    blocks of 50 so drift hits both sides alike."""
    _probe(server, paths[:50])  # warm the cache for these paths
    sides = {True: [], False: []}
    for block in range(2 * PROBE_REQUESTS // 50):
        on = bool(block % 2)
        server.ask({"op": "tracing", "on": on})
        sides[on] += _probe(server, paths[:50])
    server.ask({"op": "tracing", "on": True})
    return stats.overhead_ratio(
        stats.percentile(sides[True], 0.5), stats.percentile(sides[False], 0.5)
    )


def run(seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    for _ in range(2):
        server = Server(seed, trace)
        setups.append(server.setup_s)
        server.stop()
    spans = f"serve_open-{seed}-server-spans.jsonl" if trace else ""
    server = Server(seed, trace, spans=spans)
    setups.append(server.setup_s)
    try:
        time_wait = time_wait_sockets()
        net_before = netstat_counters()
        rungs, failures = ladder(server, seed, trace)
        net = netstat_delta(net_before, netstat_counters())
        server_stats = server.ask({"op": "stats"})
        first = rungs[0]["rung"]
        sample = sorted(first.bodies)
        reference = server.ask(
            {"op": "reference", "paths": [first.paths[i] for i in sample]}
        )
        ratio = overhead_probe(server, first.paths) if trace else None
    finally:
        server.stop()

    mismatched = [
        first.paths[i]
        for i, ref in zip(sample, reference)
        if first.bodies[i] != ref
    ]
    if mismatched:
        failures.append(
            f"{len(mismatched)} of {len(sample)} sampled bodies differ from "
            f"in-process dispatch, e.g. {mismatched[0]}"
        )
    tries = [rung for r in rungs for rung in r["tries"]]
    statuses = Counter(str(row[5]) for rung in tries for row in rung.rows)
    if statuses != Counter(server_stats["statuses"]):
        failures.append(
            f"client statuses {dict(statuses)} != the server's own count "
            f"{server_stats['statuses']}"
        )
    if rungs[0]["failed"]:
        failures.append(
            f"{rungs[0]['failed']} requests at {RATES[0]} req/s, the "
            "reported rung, did not get a 200"
        )
    passed = [r for r in rungs if r["passed"]]
    if not passed:
        failures.append(
            f"no rung met p99 <= {LIMIT_S * 1000:.0f} ms with no failed "
            "request: there is no throughput to report"
        )
    top = passed[-1] if passed else rungs[0]
    base = rungs[0]
    out = {
        "failures": failures,
        "attempted": sum(len(rung.rows) for rung in tries),
        "failed": sum(rung.failed() for rung in tries),
        "metrics": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": server_stats["peak_rss_mb"],
            "throughput_per_s": top["rung"].achieved_rate(),
            "latency_p50_ms": base["p50_ms"],
            "latency_p90_ms": base["p90_ms"],
        },
        "info": {
            "users": USERS,
            "connections": CONNECTIONS,
            "statuses": dict(statuses),
            "setups_s": setups,
            "rungs": [
                {k: v for k, v in r.items() if k not in ("rung", "tries")}
                for r in rungs
            ],
            "time_wait_at_start": time_wait,
            "netstat_delta": net,
        },
    }
    if trace:
        out["layers"] = _layer_metrics(
            rungs, tries, server_stats, net, time_wait, ratio, failures
        )
        out["tracer"] = _client_tracer(rungs)
    return out


def _client_tracer(rungs):
    """Client-side request spans of the ladder, one per request, with
    the X-Repro-Trace id as request id."""
    from perfbench.tracing import Span, Tracer

    tracer = Tracer()
    for r in rungs:
        for rung in r["tries"]:
            for i, due, _, _, done, _ in rung.rows:
                tracer.spans.append(
                    Span(
                        len(tracer.spans) + 1,
                        None,
                        f"loadgen.request@{r['rate']}",
                        due,
                        done,
                        rung.trace_ids[i],
                        0,
                    )
                )
    return tracer


def _layer_metrics(rungs, tries, server_stats, net, time_wait, ratio, failures):
    base = rungs[0]["rung"]
    records = server_stats["records"]
    by_trace = {rec[0]: rec for rec in records}
    client = {
        base.trace_ids[i]: done - due for i, due, _, _, done, _ in base.rows
    }
    joined = [
        (latency, by_trace[tid][2])
        for tid, latency in client.items()
        if tid in by_trace
    ]
    responses = sum(len(rung.rows) for rung in tries)
    records_per_response = len(records) / responses
    if records_per_response != 1:
        failures.append(
            f"{len(records)} request records for {responses} responses"
        )
    server_statuses = Counter(rec[1] for rec in records)
    client_statuses = Counter(row[5] for rung in tries for row in rung.rows)
    if server_statuses != client_statuses:
        failures.append(
            f"request-record statuses {dict(server_statuses)} != client "
            f"statuses {dict(client_statuses)}"
        )
    cached = [rec for rec in records if rec[3] in ("hit", "miss")]
    service = [total for _, total in joined]
    layers = {f"{k}.warnings": n for k, n in server_stats["warnings"].items()}
    return layers | {
        "serving.service_p50_ms": stats.percentile(service, 0.5) * 1000,
        "serving.service_p99_ms": stats.percentile(service, QUANTILE) * 1000,
        "serving.wait_p99_ms": stats.percentile(
            [latency - total for latency, total in joined], QUANTILE
        )
        * 1000,
        "serving.cache_hit_ratio": sum(rec[3] == "hit" for rec in cached)
        / len(cached),
        "serving.shed": sum(
            rec[1] == 429 or str(rec[4]).startswith("shed") for rec in records
        ),
        "steamapi.connections_per_request": server_stats["connections"]
        / server_stats["dispatches"],
        "net.listen_overflows": net["ListenOverflows"],
        "net.listen_drops": net["ListenDrops"],
        "net.time_wait_at_start": time_wait,
        "loadgen.latency_p99_ms": rungs[0]["p99_ms"],
        "loadgen.late_p99_ms": max(r["late_p99_ms"] for r in rungs),
        "loadgen.conn_wait_p99_ms": rungs[0]["conn_wait_p99_ms"],
        "loadgen.invalid_rungs": len(tries) - len(rungs) + sum(
            not r["valid"] for r in rungs
        ),
        "obs.trace_overhead_ratio": ratio,
        "obs.records_per_response": records_per_response,
    }

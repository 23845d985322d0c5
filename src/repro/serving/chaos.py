"""Seeded chaos for the analytics *read* path.

The crawler's chaos machinery (:mod:`repro.steamapi.faults`) proved the
write path: a hardened crawler produces a byte-identical dataset
through a storm of injected upstream failures.  This module points the
same discipline at the serving tier.  :class:`ChaosDispatch` wraps any
``dispatch(path, params) -> payload`` callable and, driven by the
shared :class:`~repro.steamapi.faults.FaultChooser`, injects the
failure modes an overloaded read path sees:

- **stalls** — the handler sleeps before serving, burning the
  request's deadline budget (slow store, GC pause, noisy neighbor);
  a stalled request that still has budget left completes *correctly*,
  one that ran dry gets its typed 504 from the next layer boundary,
- **mid-body aborts** — the handler computes the real payload, then
  raises :class:`~repro.steamapi.faults.AbortedResponse`; the HTTP
  server replays the abort on the real socket (full ``Content-Length``
  promised, a prefix written, connection closed),
- **crashes** — an untyped exception escapes the handler, exercising
  the opaque-500 containment path.

Faults are *cooperative and deterministic*: the same plan seed yields
the same fault sequence, and injected stalls never corrupt a response
— they only spend time — so every accepted (HTTP 200) response under
chaos is byte-identical to an unloaded run.  That invariant is what
``tests/serving/test_chaos.py`` asserts.

:func:`run_storm` is the load half of the harness: a seeded
multi-client request storm against a live server, returning per-status
tallies and response bodies so tests and
``benchmarks/bench_serving_overload.py`` can assert shed behavior and
byte-identity with the same code.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field

from repro.obs import Obs, reqlog
from repro.serving.api import AnalyticsService
from repro.steamapi.faults import AbortedResponse, FaultChooser

__all__ = [
    "SERVING_FAULT_KINDS",
    "ServingFaultSpec",
    "ServingFaultPlan",
    "ChaosDispatch",
    "ChaosAnalyticsService",
    "InjectedCrash",
    "StormResult",
    "run_storm",
]

#: Injectable read-path failure modes, in RNG consideration order.
SERVING_FAULT_KINDS = ("stall", "abort", "crash")


class InjectedCrash(RuntimeError):
    """An untyped handler failure: must surface as an opaque 500."""


@dataclass(frozen=True)
class ServingFaultSpec:
    """Per-request fault probabilities for one route prefix.

    Probabilities are independent slices of one uniform draw (sum must
    stay <= 1); ``burst > 1`` turns a triggered fault into an outage of
    that many consecutive requests.
    """

    stall: float = 0.0
    abort: float = 0.0
    crash: float = 0.0
    #: Stall durations are drawn uniformly from this range (seconds).
    stall_range: tuple[float, float] = (0.005, 0.05)
    #: Consecutive requests failed per triggered fault (1 = independent).
    burst: int = 1

    def __post_init__(self) -> None:
        total = self.stall + self.abort + self.crash
        if not 0.0 <= total <= 1.0:
            raise ValueError("fault probabilities must sum to within [0, 1]")
        lo, hi = self.stall_range
        if not 0 <= lo <= hi:
            raise ValueError("stall_range must satisfy 0 <= lo <= hi")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")


@dataclass
class ServingFaultPlan:
    """A seeded recipe of which read-path faults to inject where.

    ``endpoints`` overrides the default spec by request-path prefix
    (longest prefix wins), mirroring
    :class:`~repro.steamapi.faults.FaultPlan`.
    """

    seed: int = 0
    default: ServingFaultSpec = field(default_factory=ServingFaultSpec)
    endpoints: dict[str, ServingFaultSpec] = field(default_factory=dict)

    def spec_for(self, path: str) -> ServingFaultSpec:
        best: str | None = None
        for prefix in self.endpoints:
            if path.startswith(prefix) and (
                best is None or len(prefix) > len(best)
            ):
                best = prefix
        return self.endpoints[best] if best is not None else self.default


class ChaosDispatch:
    """Wrap a dispatch callable, deterministically injecting faults.

    Probe routes are exempt: chaos must never make ``/healthz`` or
    ``/readyz`` lie — the point is to prove the *data* path degrades
    gracefully while the probes keep telling the truth.

    Thread-safe: the fault decision is taken under a lock, so the
    wrapper sits directly under the threading HTTP server.  The sleep
    itself happens outside the lock — a stall must slow one request,
    not serialize the server.
    """

    def __init__(
        self,
        inner,
        plan: ServingFaultPlan,
        obs: Obs | None = None,
        sleep=time.sleep,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self._sleep = sleep
        self._chooser = FaultChooser(plan.seed, SERVING_FAULT_KINDS)
        self._lock = threading.Lock()
        self.requests_seen = 0
        self.fault_counts: dict[str, int] = {
            k: 0 for k in SERVING_FAULT_KINDS
        }
        if obs is None:
            obs = Obs()
        self._m_injected = obs.counter(
            "serving_injected_faults",
            "Read-path faults injected by the chaos wrapper, by kind",
            ("kind",),
        )

    @property
    def total_injected(self) -> int:
        return sum(self.fault_counts.values())

    def __call__(self, path: str, params: dict) -> dict:
        return self.wrap(path, lambda: self.inner(path, params))

    def wrap(self, path: str, inner) -> dict:
        """Run ``inner()`` under this request's fault decision.

        The seam that lets :class:`ChaosAnalyticsService` inject
        *inside* admission control (``inner`` closes over the route
        match), while :meth:`__call__` wraps a plain dispatch callable
        from the outside.
        """
        spec = self.plan.spec_for(path)
        if path in (
            "/healthz",
            "/readyz",
            "/metrics",
            "/debug/requests",
            "/debug/slo",
        ):
            return inner()
        with self._lock:
            self.requests_seen += 1
            kind = self._chooser.choose(spec)
            if kind == "stall":
                duration = self._chooser.rng.uniform(*spec.stall_range)
            elif kind == "abort":
                cut_draw = self._chooser.rng.random()
            if kind is not None:
                self.fault_counts[kind] += 1
        if kind is not None:
            # Tag the ambient request record so a chaos storm's records
            # say which fault produced each 499/500/504.
            reqlog.annotate(fault=kind)
            self._m_injected.inc(kind=kind)
        if kind == "crash":
            raise InjectedCrash(f"injected handler crash on {path}")
        if kind == "stall":
            # Spend budget, then serve; correctness is untouched, only
            # time.  Downstream deadline checks decide if it was fatal.
            self._sleep(duration)
            return inner()
        payload = inner()
        if kind == "abort":
            body = json.dumps(payload).encode("utf-8")
            cut = max(1, int(cut_draw * (len(body) - 1)))
            raise AbortedResponse(body, cut)
        return payload


class ChaosAnalyticsService(AnalyticsService):
    """An :class:`AnalyticsService` whose inner serve path is
    chaos-wrapped.

    Faults inject *inside* admission control and the deadline scope —
    exactly where a slow store scan or a crashing handler lives — so a
    stalled request holds its in-flight slot (storms genuinely overrun
    capacity and shed), blows the ambient deadline into a typed 504 at
    the next layer boundary, and feeds the route's circuit breaker.
    Probe routes never reach the chaos seam: ``dispatch`` answers them
    before admission.
    """

    def __init__(
        self,
        store,
        plan: ServingFaultPlan,
        sleep=time.sleep,
        **kwargs,
    ) -> None:
        super().__init__(store, **kwargs)
        self.chaos = ChaosDispatch(None, plan, obs=self.obs, sleep=sleep)

    def _serve(self, path, params, match, method, cacheable):
        serve = super()._serve
        return self.chaos.wrap(
            path,
            lambda: serve(path, params, match, method, cacheable),
        )


# -- the storm ----------------------------------------------------------------


@dataclass
class StormResult:
    """Everything a storm saw, for assertions and benchmark metrics."""

    #: HTTP status → count across all clients.
    status_counts: dict[int, int]
    #: ``(path, body_bytes)`` for every 200, in no particular order.
    accepted: list[tuple[str, bytes]]
    #: ``Retry-After`` header values observed on 429s.
    retry_after: list[float]
    #: Wall-clock latencies (seconds) of accepted requests only.
    accepted_latencies: list[float]
    #: Transport-level failures (aborted bodies, resets), by exception
    #: class name.
    transport_errors: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.status_counts.values()) + sum(
            self.transport_errors.values()
        )

    def count(self, status: int) -> int:
        return self.status_counts.get(status, 0)


def run_storm(
    host: str,
    port: int,
    paths: list[str],
    clients: int = 8,
    requests_per_client: int = 25,
    seed: int = 0,
    headers: dict[str, str] | None = None,
    timeout: float = 30.0,
) -> StormResult:
    """Hammer a server with ``clients`` concurrent keep-alive clients.

    Each client gets its own seeded RNG (``seed + client_index``) and
    draws its request paths from ``paths``, so the exact request mix is
    reproducible.  No backoff, no retries: the point is to overrun
    admission and observe the shed behavior.
    """
    status_counts: dict[int, int] = {}
    accepted: list[tuple[str, bytes]] = []
    retry_after: list[float] = []
    latencies: list[float] = []
    transport_errors: dict[str, int] = {}
    lock = threading.Lock()

    def client(index: int) -> None:
        rng = random.Random(seed + index)
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            for _ in range(requests_per_client):
                path = rng.choice(paths)
                start = time.monotonic()
                try:
                    conn.request("GET", path, headers=headers or {})
                    response = conn.getresponse()
                    body = response.read()
                except Exception as exc:  # aborted body, reset, timeout
                    with lock:
                        name = type(exc).__name__
                        transport_errors[name] = (
                            transport_errors.get(name, 0) + 1
                        )
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=timeout
                    )
                    continue
                elapsed = time.monotonic() - start
                with lock:
                    status_counts[response.status] = (
                        status_counts.get(response.status, 0) + 1
                    )
                    if response.status == 200:
                        accepted.append((path, body))
                        latencies.append(elapsed)
                    elif response.status == 429:
                        hint = response.getheader("Retry-After")
                        if hint is not None:
                            retry_after.append(float(hint))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return StormResult(
        status_counts=status_counts,
        accepted=accepted,
        retry_after=retry_after,
        accepted_latencies=latencies,
        transport_errors=transport_errors,
    )

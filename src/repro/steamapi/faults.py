"""Deterministic fault injection for chaos-testing the crawler.

The paper's crawl ran for six months against a flaky, rate-limited API;
the engineering artifact that survives that is the retry / checkpoint /
throttle stack, and nothing exercises that stack unless something
injects the failures.  :class:`FaultInjectingTransport` wraps any
:class:`~repro.steamapi.transport.Transport` and, driven by a seeded
RNG, converts a configurable fraction of requests into the failure
modes a real crawl sees:

- HTTP 429 rate-limit responses with varying ``retry_after`` hints,
- transient 5xx server errors,
- request timeouts,
- malformed / truncated JSON payloads,
- N-consecutive-failure bursts of any of the above (one trigger makes
  the next ``burst - 1`` requests fail the same way, modelling an
  upstream outage rather than independent coin flips).

Every injected fault is a *retryable* typed error, so a correctly
hardened crawler must produce a dataset byte-identical to one crawled
through a clean transport — which is exactly what
``tests/crawler/test_chaos.py`` asserts.  Determinism matters: the same
:class:`FaultPlan` seed yields the same fault sequence, so chaos tests
are reproducible rather than flaky.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field

from repro.obs import Obs
from repro.steamapi.errors import (
    AbortedResponse,
    ApiError,
    MalformedResponseError,
    RateLimitedError,
    RequestTimeoutError,
)
from repro.steamapi.transport import Transport

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultChooser",
    "FaultInjectingTransport",
    "AbortedResponse",
    "FAULT_KINDS",
]

#: Injectable failure modes, in the order the injector's RNG considers them.
FAULT_KINDS = ("rate_limit", "server_error", "timeout", "malformed")


class FaultChooser:
    """The seeded draw-and-burst core shared by every fault injector.

    One uniform draw per request is sliced into per-kind probability
    bands; a hit with ``burst > 1`` makes the next ``burst - 1``
    requests fail the same way (an outage, not independent coin
    flips).  Callers serialize access (one chooser, one lock) so the
    fault sequence is a pure function of the seed.
    """

    def __init__(self, seed: int, kinds: tuple[str, ...]) -> None:
        self.rng = random.Random(seed)
        self.kinds = kinds
        self._burst_kind: str | None = None
        self._burst_left = 0

    def choose(self, spec) -> str | None:
        """One seeded draw; returns the fault kind to inject, if any.

        ``spec`` carries one probability attribute per kind plus
        ``burst`` — both :class:`FaultSpec` and the serving tier's
        read-path specs satisfy that shape.
        """
        if self._burst_left > 0:
            self._burst_left -= 1
            return self._burst_kind
        draw = self.rng.random()
        edge = 0.0
        for kind in self.kinds:
            edge += getattr(spec, kind)
            if draw < edge:
                if spec.burst > 1:
                    self._burst_kind = kind
                    self._burst_left = spec.burst - 1
                return kind
        return None


@dataclass(frozen=True)
class FaultSpec:
    """Per-request fault probabilities for one endpoint (or the default).

    Probabilities are independent slices of one uniform draw, so their
    sum must stay <= 1; the remainder is the chance the request goes
    through untouched.
    """

    rate_limit: float = 0.0
    server_error: float = 0.0
    timeout: float = 0.0
    malformed: float = 0.0
    #: ``retry_after`` hints are drawn uniformly from this range.
    retry_after: tuple[float, float] = (0.05, 2.0)
    #: Consecutive requests failed per triggered fault (1 = independent).
    burst: int = 1

    def __post_init__(self) -> None:
        total = self.rate_limit + self.server_error + self.timeout + self.malformed
        if not 0.0 <= total <= 1.0:
            raise ValueError("fault probabilities must sum to within [0, 1]")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")

    @property
    def total_rate(self) -> float:
        return self.rate_limit + self.server_error + self.timeout + self.malformed


@dataclass
class FaultPlan:
    """A seeded recipe of which faults to inject where.

    ``endpoints`` overrides the default spec by request-path prefix
    (longest prefix wins), so a plan can e.g. rate-limit-storm only the
    detail endpoints while leaving the storefront clean.
    """

    seed: int = 0
    default: FaultSpec = field(default_factory=FaultSpec)
    endpoints: dict[str, FaultSpec] = field(default_factory=dict)

    @classmethod
    def uniform(
        cls, rate: float, seed: int = 0, burst: int = 1
    ) -> "FaultPlan":
        """Spread ``rate`` evenly over all four fault kinds."""
        share = rate / len(FAULT_KINDS)
        return cls(
            seed=seed,
            default=FaultSpec(
                rate_limit=share,
                server_error=share,
                timeout=share,
                malformed=share,
                burst=burst,
            ),
        )

    def spec_for(self, path: str) -> FaultSpec:
        best: str | None = None
        for prefix in self.endpoints:
            if path.startswith(prefix) and (
                best is None or len(prefix) > len(best)
            ):
                best = prefix
        return self.endpoints[best] if best is not None else self.default


class FaultInjectingTransport:
    """Wrap a transport, deterministically injecting planned faults.

    Thread-safe: the fault decision (RNG draw + burst bookkeeping) is
    taken under a lock, so the wrapper can sit under the threading HTTP
    server or a parallel crawl.  Counters:

    - ``fault_counts``: injected faults by kind,
    - ``faults_by_endpoint``: injected faults by request path,
    - ``total_injected``: grand total.
    """

    def __init__(
        self, inner: Transport, plan: FaultPlan, obs: Obs | None = None
    ) -> None:
        self.inner = inner
        self.plan = plan
        if obs is None:
            obs = Obs()
        self._m_injected = obs.counter(
            "steamapi_injected_faults",
            "Faults injected by the chaos transport, by kind",
            ("kind",),
        )
        self.fault_counts: dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self.faults_by_endpoint: dict[str, int] = {}
        self.requests_seen = 0
        self._chooser = FaultChooser(plan.seed, FAULT_KINDS)
        self._lock = threading.Lock()

    @property
    def total_injected(self) -> int:
        return sum(self.fault_counts.values())

    def request(self, path: str, params: dict) -> dict:
        spec = self.plan.spec_for(path)
        with self._lock:
            self.requests_seen += 1
            kind = self._chooser.choose(spec)
            if kind == "rate_limit":
                retry_after = self._chooser.rng.uniform(*spec.retry_after)
            elif kind == "malformed":
                cut_draw = self._chooser.rng.random()
        if kind is None:
            return self.inner.request(path, params)
        with self._lock:
            self.fault_counts[kind] += 1
            self.faults_by_endpoint[path] = (
                self.faults_by_endpoint.get(path, 0) + 1
            )
        self._m_injected.inc(kind=kind)
        if kind == "rate_limit":
            raise RateLimitedError(
                "injected rate limit", retry_after=retry_after
            )
        if kind == "server_error":
            raise ApiError("injected transient server error")
        if kind == "timeout":
            raise RequestTimeoutError("injected request timeout")
        # Malformed: serve a real payload truncated mid-stream.  The
        # inner request still happens (idempotent), as in real life
        # where the server did the work but the bytes never arrived
        # whole.  Any proper prefix of a JSON object is invalid JSON.
        payload = self.inner.request(path, params)
        body = json.dumps(payload).encode("utf-8")
        cut = max(1, int(cut_draw * (len(body) - 1)))
        raise MalformedResponseError(
            f"injected truncated payload ({cut}/{len(body)} bytes)",
            body=body[:cut],
        )

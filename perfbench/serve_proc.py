"""The ``serve_open`` server process.

    python3 perfbench/serve_proc.py --users 100000 --seed 1603 --trace 0

Generates the world, builds the analytics store, serves it with
``serve_analytics`` and prints one JSON line when it listens (port,
steam ids, app ids).  It then answers one JSON command per stdin line,
each with one JSON line on stdout:

- ``{"op": "reference", "paths": [...]}`` — sha256 of the body a fresh
  in-process ``AnalyticsService.dispatch`` gives for each path;
- ``{"op": "tracing", "on": bool}`` — attach or detach the request log
  and the spans (overhead probe);
- ``{"op": "stats"}`` — the server's own count of responses by status,
  request records, connection count, peak RSS;
- ``{"op": "quit"}`` — close the server and exit (also on stdin EOF).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from urllib.parse import parse_qs, urlparse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import OUT, SRC, counted_warnings  # noqa: E402

sys.path.insert(0, str(SRC))


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _split(path: str):
    parsed = urlparse(path)
    params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
    return parsed.path, params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    from repro.obs import RequestLog
    from repro.serving import AnalyticsService, AnalyticsStore, serve_analytics
    from repro.simworld.config import WorldConfig
    from repro.simworld.world import SteamWorld
    from repro.steamapi.http_server import DrainingThreadingHTTPServer

    from perfbench.env import peak_rss_mb
    from perfbench.tracing import Tracer

    warned: dict = {}
    with counted_warnings(warned) if args.trace else nullcontext():
        world = SteamWorld.generate(
            WorldConfig(n_users=args.users, seed=args.seed)
        )
        store = AnalyticsStore.build(world.dataset)
    tracer = Tracer()
    log = RequestLog(capacity=1 << 16) if args.trace else None
    service = AnalyticsService(store, request_log=log)
    targets = [
        (AnalyticsService, "dispatch", "serving.dispatch"),
        (DrainingThreadingHTTPServer, "process_request", "steamapi.connection"),
    ]
    # serve_analytics binds the dispatch method at start: patch first.
    with tracer.patched(targets if args.trace else []):
        server = serve_analytics(service)
        try:
            _reply(
                {
                    "port": server.server.server_address[1],
                    "steamids": [int(s) for s in world.dataset.accounts.steamids()],
                    "appids": [int(a) for a in world.dataset.catalog.appid],
                }
            )
            for line in sys.stdin:
                command = json.loads(line)
                op = command["op"]
                if op == "quit":
                    break
                if op == "reference":
                    fresh = AnalyticsService(store)
                    _reply(
                        [
                            hashlib.sha256(
                                json.dumps(fresh.dispatch(*_split(p))).encode()
                            ).hexdigest()
                            for p in command["paths"]
                        ]
                    )
                elif op == "tracing":
                    tracer.enabled = command["on"]
                    service.request_log = log if command["on"] else None
                    _reply({"ok": True})
                elif op == "stats":
                    records = log.records() if log is not None else []
                    statuses: dict = {}
                    served = server.obs.registry.get("http_requests")
                    for series in served.snapshot()["series"]:
                        status = series["labels"][1]
                        statuses[status] = statuses.get(status, 0) + int(
                            series["value"]
                        )
                    _reply(
                        {
                            "statuses": statuses,
                            "records": [
                                [
                                    r["trace_id"],
                                    r["status"],
                                    r["total_s"],
                                    r["cache"],
                                    r["admission"],
                                ]
                                for r in records
                            ],
                            "connections": len(
                                tracer.by_name("steamapi.connection")
                            ),
                            "dispatches": len(tracer.by_name("serving.dispatch")),
                            "peak_rss_mb": peak_rss_mb(),
                            "warnings": warned,
                        }
                    )
                else:
                    raise ValueError(f"unknown command {op!r}")
        finally:
            server.close()
    if args.spans:
        tracer.write(OUT / args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shutdown regression: ``close()`` must be bounded with a request stuck
in flight.

Before the fix, ``ThreadingHTTPServer`` ran with its defaults —
non-daemonic handler threads plus ``block_on_close=True`` — so
``server_close()`` joined every handler thread forever.  One client
wedged mid-request (or simply holding a keep-alive socket open) made
``repro serve`` / ``repro serve-analytics`` impossible to stop without
``kill -9``.  Now handler threads are daemonic and tracked, and
``close()`` drains them against a deadline, reporting the stragglers.
"""

from __future__ import annotations

import http.client
import threading
import time
import urllib.request

import pytest

from repro.obs import Obs
from repro.steamapi.http_server import serve_dispatch


def _wedgeable_server(obs=None):
    """A server whose ``/wedge`` route blocks until released."""
    release = threading.Event()
    entered = threading.Event()

    def dispatch(path, params):
        if path == "/wedge":
            entered.set()
            # A handler stuck behind a slow upstream / stalled
            # client: blocks until the test releases it.
            release.wait(timeout=30)
        return {"ok": True}

    server = serve_dispatch(dispatch, access_log=False, obs=obs)
    server.drain_timeout = 0.5
    return server, entered, release


class TestBoundedClose:
    def test_close_returns_despite_wedged_handler(self):
        server, entered, release = _wedgeable_server()
        try:
            client = threading.Thread(
                target=lambda: urllib.request.urlopen(
                    server.base_url + "/wedge", timeout=30
                ).read(),
                daemon=True,
            )
            client.start()
            assert entered.wait(timeout=10), "request never reached dispatch"

            closed: dict[str, object] = {}

            def close():
                closed["stuck"] = server.close()

            closer = threading.Thread(target=close, daemon=True)
            start = time.monotonic()
            closer.start()
            closer.join(timeout=10)
            elapsed = time.monotonic() - start
            # The regression: this join never returned.
            assert not closer.is_alive(), "close() hung on a busy handler"
            assert elapsed < 8
            stuck = closed["stuck"]
            assert len(stuck) == 1  # the wedged handler was reported
            assert all(t.daemon for t in stuck)
        finally:
            release.set()

    def test_drain_leftovers_are_counted_and_logged(self, caplog):
        """Callers routinely drop ``close()``'s return value, so an
        abandoned handler must also surface through the log and the
        ``http_drain_leftover_threads`` counter."""
        obs = Obs()
        server, entered, release = _wedgeable_server(obs=obs)
        try:
            client = threading.Thread(
                target=lambda: urllib.request.urlopen(
                    server.base_url + "/wedge", timeout=30
                ).read(),
                daemon=True,
            )
            client.start()
            assert entered.wait(timeout=10)
            with caplog.at_level("WARNING", logger="repro.steamapi.http"):
                stuck = server.close()
            assert len(stuck) == 1
            counter = obs.counter("http_drain_leftover_threads")
            assert counter.value() == 1
            assert any(
                "drain deadline" in record.message for record in caplog.records
            )
        finally:
            release.set()

    def test_clean_close_leaves_counter_untouched(self):
        obs = Obs()
        server = serve_dispatch(
            lambda path, params: {"ok": True}, access_log=False, obs=obs
        )
        urllib.request.urlopen(server.base_url + "/ping", timeout=10).read()
        assert server.close() == []
        assert obs.counter("http_drain_leftover_threads").value() == 0

    def test_clean_close_reports_no_stragglers(self):
        server = serve_dispatch(
            lambda path, params: {"ok": True}, access_log=False
        )
        with urllib.request.urlopen(
            server.base_url + "/anything", timeout=10
        ) as response:
            assert response.status == 200
        stuck = server.close()
        assert stuck == []

    def test_handler_threads_are_daemonic(self):
        seen: dict[str, bool] = {}
        ready = threading.Event()

        def dispatch(path, params):
            seen["daemon"] = threading.current_thread().daemon
            ready.set()
            return {"ok": True}

        server = serve_dispatch(dispatch, access_log=False)
        try:
            urllib.request.urlopen(server.base_url + "/x", timeout=10).read()
            assert ready.wait(timeout=10)
            assert seen["daemon"] is True
        finally:
            server.close()

    def test_server_usable_until_close(self):
        server = serve_dispatch(
            lambda path, params: {"path": path}, access_log=False
        )
        try:
            for i in range(5):
                with urllib.request.urlopen(
                    server.base_url + f"/ping/{i}", timeout=10
                ) as response:
                    assert response.status == 200
        finally:
            assert server.close() == []
        # After close the socket is gone: new connections must fail.
        with pytest.raises(OSError):
            urllib.request.urlopen(server.base_url + "/ping", timeout=2)


class TestIdleKeepAlive:
    def test_close_shuts_idle_keepalive_connections(self, caplog):
        """A keep-alive socket waiting for its next request is idle, not
        in flight: ``close()`` shuts it down instead of waiting out the
        drain deadline on its handler thread."""
        obs = Obs()
        server = serve_dispatch(
            lambda path, params: {"ok": True}, access_log=False, obs=obs
        )
        host, port = server.server.server_address[:2]
        clients = []
        for i in range(3):
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", f"/ping/{i}")
            response = conn.getresponse()
            assert response.status == 200
            response.read()  # the connection stays open, idle
            clients.append(conn)
        try:
            with caplog.at_level("WARNING", logger="repro.steamapi.http"):
                start = time.monotonic()
                stuck = server.close()
                elapsed = time.monotonic() - start
            assert stuck == []
            assert elapsed < 0.5
            assert obs.counter("http_drain_leftover_threads").value() == 0
            assert not any(
                "drain deadline" in record.message
                for record in caplog.records
            )
        finally:
            for conn in clients:
                conn.close()

"""Batch layers record even when the caller passes no ``Obs``.

Each component built without one keeps a private scope on ``.obs``,
so a generation, a crawl, a served request or an analysis can always
be inspected after the fact.
"""

from repro.crawler.retry import RetryPolicy
from repro.crawler.session import CrawlSession
from repro.crawler.throttle import PolitePacer
from repro.engine import Engine, Stage, StageContext, StageGraph
from repro.steamapi.service import DEFAULT_API_KEY, SteamApiService
from repro.steamapi.transport import InProcessTransport

APP_LIST = "/ISteamApps/GetAppList/v2"


def test_generate_records_stage_spans(small_world):
    totals = small_world.obs.tracer.aggregate()
    assert totals["generate"]["count"] == 1
    assert totals["generate:ownership"]["count"] == 1


def test_service_counts_dispatches(small_world):
    service = SteamApiService.from_world(small_world)
    service.dispatch(APP_LIST, {"key": DEFAULT_API_KEY})
    served = service.obs.registry.get("steamapi_server_requests")
    assert served.value(endpoint="GetAppList") == 1


def test_session_records_requests(small_world):
    session = CrawlSession(
        transport=InProcessTransport(SteamApiService.from_world(small_world)),
        pacer=PolitePacer(1e9, sleeper=lambda s: None),
        retry=RetryPolicy(sleeper=lambda s: None),
    )
    session.get(APP_LIST)
    registry = session.obs.registry
    assert registry.get("steamapi_requests").value(endpoint="GetAppList") == 1
    assert registry.get("steamapi_request_seconds").count(
        endpoint="GetAppList"
    ) == 1
    assert registry.get("steamapi_attempts").value() == 1


def _double(ctx):
    return 2


def test_engine_records_stages():
    engine = Engine()
    graph = StageGraph([Stage(name="double", fn=_double)])
    engine.run(graph, StageContext(dataset=None, config={}))
    registry = engine.obs.registry
    assert registry.get("engine_stages_executed").value() == 1
    assert registry.get("engine_stage_seconds").count(stage="double") == 1
    assert engine.obs.tracer.aggregate()["engine:double"]["count"] == 1

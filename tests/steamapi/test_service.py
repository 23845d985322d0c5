"""Simulated Steam Web API endpoint semantics."""

import numpy as np
import pytest

from repro import constants
from repro.steamapi.errors import (
    BadRequestError,
    NotFoundError,
    RateLimitedError,
    UnauthorizedError,
)
from repro.steamapi.models import GROUP_ID_BASE
from repro.steamapi.ratelimit import VirtualClock
from repro.steamapi.service import DEFAULT_API_KEY, SteamApiService


@pytest.fixture(scope="module")
def service(small_world):
    return SteamApiService.from_world(small_world)


@pytest.fixture(scope="module")
def a_steamid(small_world):
    # A user guaranteed to have friends and games.
    ds = small_world.dataset
    candidates = np.flatnonzero(
        (ds.friend_counts() > 2) & (ds.owned_counts() > 2)
    )
    return int(ds.accounts.steamids()[candidates[0]]), int(candidates[0])


class TestPlayerSummaries:
    def test_batch_returns_only_valid_accounts(self, service, small_world):
        sids = small_world.dataset.accounts.steamids()
        query = [int(sids[0]), int(sids[1]), constants.STEAMID_BASE + 10**9]
        response = service.get_player_summaries(DEFAULT_API_KEY, query)
        players = response["response"]["players"]
        assert len(players) == 2

    def test_rejects_oversized_batch(self, service):
        with pytest.raises(BadRequestError):
            service.get_player_summaries(
                DEFAULT_API_KEY, list(range(101))
            )

    def test_country_only_when_reported(self, service, small_world):
        ds = small_world.dataset
        reporter = int(np.flatnonzero(ds.accounts.country >= 0)[0])
        hidden = int(np.flatnonzero(ds.accounts.country < 0)[0])
        sids = ds.accounts.steamids()
        response = service.get_player_summaries(
            DEFAULT_API_KEY, [int(sids[reporter]), int(sids[hidden])]
        )
        players = {
            int(p["steamid"]): p for p in response["response"]["players"]
        }
        assert "loccountrycode" in players[int(sids[reporter])]
        assert "loccountrycode" not in players[int(sids[hidden])]

    def test_timecreated_consistent(self, service, small_world):
        ds = small_world.dataset
        sid = int(ds.accounts.steamids()[0])
        response = service.get_player_summaries(DEFAULT_API_KEY, [sid])
        created = response["response"]["players"][0]["timecreated"]
        from repro.crawler.session import unix_to_day

        assert unix_to_day(created) == int(ds.accounts.created_day[0])


class TestFriendList:
    def test_reciprocal(self, service, a_steamid, small_world):
        sid, user = a_steamid
        friends = service.get_friend_list(DEFAULT_API_KEY, sid)
        others = [
            int(f["steamid"]) for f in friends["friendslist"]["friends"]
        ]
        assert len(others) == small_world.dataset.friend_counts()[user]
        # Reciprocity: we appear in a friend's list.
        back = service.get_friend_list(DEFAULT_API_KEY, others[0])
        assert sid in [
            int(f["steamid"]) for f in back["friendslist"]["friends"]
        ]

    def test_unknown_steamid_404(self, service):
        with pytest.raises(NotFoundError):
            service.get_friend_list(
                DEFAULT_API_KEY, constants.STEAMID_BASE + 10**10
            )

    def test_bad_steamid_400(self, service):
        with pytest.raises(BadRequestError):
            service.get_friend_list(DEFAULT_API_KEY, 123)


class TestOwnedGames:
    def test_playtimes_match_dataset(self, service, a_steamid, small_world):
        sid, user = a_steamid
        ds = small_world.dataset
        response = service.get_owned_games(DEFAULT_API_KEY, sid)
        games = response["response"]["games"]
        assert response["response"]["game_count"] == ds.owned_counts()[user]
        total = sum(g["playtime_forever"] for g in games)
        assert total == int(ds.library.user_total_min()[user])

    def test_twoweek_field_omitted_when_zero(self, service, small_world):
        ds = small_world.dataset
        owners = np.flatnonzero(
            (ds.owned_counts() > 0) & (ds.library.user_twoweek_min() == 0)
        )
        sid = int(ds.accounts.steamids()[owners[0]])
        response = service.get_owned_games(DEFAULT_API_KEY, sid)
        for game in response["response"]["games"]:
            assert "playtime_2weeks" not in game


class TestGroupsAndCatalog:
    def test_group_list_gids(self, service, small_world):
        ds = small_world.dataset
        member = int(np.flatnonzero(ds.membership_counts() > 0)[0])
        sid = int(ds.accounts.steamids()[member])
        response = service.get_user_group_list(DEFAULT_API_KEY, sid)
        gids = [g["gid"] for g in response["response"]["groups"]]
        assert len(gids) == ds.membership_counts()[member]
        assert all(g >= GROUP_ID_BASE for g in gids)

    def test_app_list_full_catalog(self, service, small_world):
        response = service.get_app_list(DEFAULT_API_KEY)
        assert (
            len(response["applist"]["apps"])
            == small_world.dataset.catalog.n_products
        )

    def test_appdetails_payload(self, service, small_world):
        cat = small_world.dataset.catalog
        appid = int(cat.appid[0])
        payload = service.appdetails(DEFAULT_API_KEY, appid)
        body = payload[str(appid)]["data"]
        assert body["steam_appid"] == appid
        assert body["price_overview"]["final"] == int(cat.price_cents[0])
        genres = {g["description"] for g in body["genres"]}
        for name in cat.genre_names:
            assert (name in genres) == bool(cat.has_genre(name)[0])

    def test_appdetails_unknown_app(self, service):
        with pytest.raises(NotFoundError):
            service.appdetails(DEFAULT_API_KEY, 999_999_999)

    def test_achievement_percentages(self, service, small_world):
        ach = small_world.dataset.achievements
        product = int(np.flatnonzero(ach.count > 0)[0])
        appid = int(small_world.dataset.catalog.appid[product])
        payload = service.get_global_achievement_percentages(
            DEFAULT_API_KEY, appid
        )
        entries = payload["achievementpercentages"]["achievements"]
        assert len(entries) == int(ach.count[product])

    def test_group_profile(self, service, small_world):
        groups = small_world.dataset.groups
        payload = service.group_profile(DEFAULT_API_KEY, GROUP_ID_BASE + 0)
        assert payload["group"]["type"] == int(groups.group_type[0])


class TestAuthAndRateLimit:
    def test_requires_key(self, service):
        with pytest.raises(UnauthorizedError):
            service.get_app_list(None)
        with pytest.raises(UnauthorizedError):
            service.get_app_list("NOT-A-KEY")

    def test_rate_limit_enforced(self, small_world):
        clock = VirtualClock()
        service = SteamApiService.from_world(
            small_world, rate_per_second=1.0, burst=2.0, clock=clock
        )
        service.get_app_list(DEFAULT_API_KEY)
        service.get_app_list(DEFAULT_API_KEY)
        with pytest.raises(RateLimitedError) as info:
            service.get_app_list(DEFAULT_API_KEY)
        assert info.value.retry_after > 0
        clock.advance(1.1)
        service.get_app_list(DEFAULT_API_KEY)  # refilled

    def test_request_counts(self, small_world):
        service = SteamApiService.from_world(small_world)
        service.get_app_list(DEFAULT_API_KEY)
        service.get_app_list(DEFAULT_API_KEY)
        assert service.request_count("GetAppList") == 2

    def test_request_count_per_endpoint_includes_rejections(
        self, small_world, a_steamid
    ):
        clock = VirtualClock()
        service = SteamApiService.from_world(
            small_world, rate_per_second=1.0, burst=2.0, clock=clock
        )
        sid, _ = a_steamid
        calls = [
            ("/ISteamApps/GetAppList/v2", {}),
            ("/ISteamUser/GetFriendList/v1", {"steamid": sid}),
            ("/ISteamApps/GetAppList/v2", {}),  # bucket empty from here
            ("/ISteamUser/GetFriendList/v1", {"steamid": sid}),
            ("/IPlayerService/GetOwnedGames/v1", {"steamid": sid}),
        ]
        rejected = 0
        for path, params in calls:
            try:
                service.dispatch(path, {"key": DEFAULT_API_KEY, **params})
            except RateLimitedError:
                rejected += 1
        assert rejected == 3
        assert service.request_count("GetAppList") == 2
        assert service.request_count("GetFriendList") == 2
        assert service.request_count("GetOwnedGames") == 1
        assert service.request_count("GetPlayerSummaries") == 0
        registry = service.obs.registry
        assert registry.get("steamapi_server_rate_limited").value() == 3


class TestDispatch:
    def test_routes_all_paths(self, service, a_steamid):
        sid, _ = a_steamid
        key = DEFAULT_API_KEY
        assert "response" in service.dispatch(
            "/ISteamUser/GetPlayerSummaries/v2",
            {"key": key, "steamids": str(sid)},
        )
        assert "friendslist" in service.dispatch(
            "/ISteamUser/GetFriendList/v1", {"key": key, "steamid": sid}
        )
        assert "response" in service.dispatch(
            "/IPlayerService/GetOwnedGames/v1", {"key": key, "steamid": sid}
        )
        assert "applist" in service.dispatch(
            "/ISteamApps/GetAppList/v2", {"key": key}
        )

    def test_unknown_path_404(self, service):
        with pytest.raises(NotFoundError):
            service.dispatch("/nope", {"key": DEFAULT_API_KEY})

"""Phase 2: per-user friends, games, and group memberships.

One account per API call (three calls per account), which is why the
paper's phase 2 took six months against phase 1's three weeks.  Results
accumulate into flat arrays ready for CSR assembly.

Resilience: each account's three calls commit atomically — the harvest
lists only grow once all three succeeded, so an abort mid-account never
leaves half an account behind (the retried account would otherwise
duplicate its edges on resume).  With a checkpoint, the partial harvest
is stashed with the cursor; with ``skip_failed=True``, an account whose
calls keep failing after retries is logged in the checkpoint and
skipped rather than aborting a six-month crawl.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.retry import RetriesExhausted
from repro.crawler.session import CrawlSession, unix_to_day
from repro.steamapi.errors import PrivateProfileError
from repro.steamapi.models import GROUP_ID_BASE

__all__ = ["DetailCrawl", "crawl_details"]

PHASE = "details"

_STASH_COLUMNS = (
    "edge_a",
    "edge_b",
    "edge_day",
    "lib_user",
    "lib_appid",
    "lib_total",
    "lib_twoweek",
    "member_user",
    "member_group",
)


@dataclass
class DetailCrawl:
    """Raw detail-phase harvest (SteamID-keyed, pre-assembly)."""

    #: Friendship endpoints as raw SteamIDs plus formation day (-1 when
    #: the friendship predates Steam's Sept-2008 timestamping epoch).
    edge_a: np.ndarray
    edge_b: np.ndarray
    edge_day: np.ndarray
    #: Library entries: crawled-user position, appid, playtimes (minutes).
    lib_user: np.ndarray
    lib_appid: np.ndarray
    lib_total_min: np.ndarray
    lib_twoweek_min: np.ndarray
    #: Membership entries: crawled-user position, dense group index.
    member_user: np.ndarray
    member_group: np.ndarray
    #: Accounts whose details were private (modern-API behavior).
    n_private: int = 0
    #: Accounts skipped after persistent failures (graceful degradation).
    n_skipped: int = 0


def crawl_details(
    session: CrawlSession,
    steamids: np.ndarray,
    checkpoint: CrawlCheckpoint | None = None,
    checkpoint_every: int = 2_000,
    skip_failed: bool = False,
) -> DetailCrawl:
    """Crawl friends/games/groups for every account in ``steamids``."""
    if checkpoint is None:
        checkpoint = CrawlCheckpoint()
    start = checkpoint.detail_cursor
    # The harvest lists are the checkpoint's own: each save journals
    # only the rows appended since the previous one.
    columns = checkpoint.resume(
        PHASE, _STASH_COLUMNS, n_private=0, n_skipped=0
    )
    n_private = int(columns["n_private"])
    n_skipped = int(columns["n_skipped"])

    if not checkpoint.is_done(PHASE):
        # Local aliases: these run once per harvested record, millions
        # of times in a large crawl.
        edge_a, edge_b, edge_day = (
            columns["edge_a"],
            columns["edge_b"],
            columns["edge_day"],
        )
        lib_user, lib_appid = columns["lib_user"], columns["lib_appid"]
        lib_total, lib_twoweek = (
            columns["lib_total"],
            columns["lib_twoweek"],
        )
        member_user, member_group = (
            columns["member_user"],
            columns["member_group"],
        )
        for position in range(start, len(steamids)):
            steamid = int(steamids[position])
            # Pipelined window: the account's three detail calls go out
            # back-to-back through one session call.  get_many stops at
            # the first escaped error, so a private profile (raised by
            # the *first* call) suppresses the other two — the same
            # transport-call sequence as the lockstep loop — and the
            # all-three-or-nothing commit below keeps resume atomic.
            payloads, error = session.get_many(
                [
                    ("/ISteamUser/GetFriendList/v1", {"steamid": steamid}),
                    ("/IPlayerService/GetOwnedGames/v1", {"steamid": steamid}),
                    ("/ISteamUser/GetUserGroupList/v1", {"steamid": steamid}),
                ]
            )
            if error is not None:
                if isinstance(error, PrivateProfileError):
                    n_private += 1
                    session.note_private()
                    continue
                if not isinstance(error, RetriesExhausted):
                    raise error
                if not skip_failed:
                    # Resume retries this account.
                    checkpoint.advance(
                        PHASE,
                        position,
                        n_private=n_private,
                        n_skipped=n_skipped,
                    )
                    raise error
                n_skipped += 1
                checkpoint.record_failure(PHASE, steamid)
                session.note_skipped(PHASE)
                continue

            friends = payloads[0]["friendslist"]["friends"]
            for record in friends:
                other = int(record["steamid"])
                if other <= steamid:
                    continue  # keep each undirected edge once (u < v)
                since = record.get("friend_since", 0)
                edge_a.append(steamid)
                edge_b.append(other)
                edge_day.append(unix_to_day(since) if since > 0 else -1)

            games = payloads[1]["response"].get("games", [])
            for game in games:
                lib_user.append(position)
                lib_appid.append(game["appid"])
                lib_total.append(game.get("playtime_forever", 0))
                lib_twoweek.append(game.get("playtime_2weeks", 0))

            groups = payloads[2]["response"].get("groups", [])
            for group in groups:
                member_user.append(position)
                member_group.append(group["gid"] - GROUP_ID_BASE)

            if (position + 1) % checkpoint_every == 0:
                checkpoint.advance(
                    PHASE,
                    position + 1,
                    n_private=n_private,
                    n_skipped=n_skipped,
                )

        checkpoint.advance(
            PHASE,
            len(steamids),
            done=True,
            n_private=n_private,
            n_skipped=n_skipped,
        )

    return DetailCrawl(
        edge_a=np.array(columns["edge_a"], dtype=np.int64),
        edge_b=np.array(columns["edge_b"], dtype=np.int64),
        edge_day=np.array(columns["edge_day"], dtype=np.int32),
        lib_user=np.array(columns["lib_user"], dtype=np.int64),
        lib_appid=np.array(columns["lib_appid"], dtype=np.int64),
        lib_total_min=np.array(columns["lib_total"], dtype=np.int64),
        lib_twoweek_min=np.array(columns["lib_twoweek"], dtype=np.int32),
        member_user=np.array(columns["member_user"], dtype=np.int64),
        member_group=np.array(columns["member_group"], dtype=np.int64),
        n_private=n_private,
        n_skipped=n_skipped,
    )

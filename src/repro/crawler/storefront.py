"""Phase 3: the product catalog via the storefront endpoint.

The paper fetched every product's storefront payload (genres, type,
price, Metacritic, release date) one app per request, voluntarily paced
at one request per two seconds.  App IDs come from the unpublicized
``GetAppList`` endpoint.

Resilience mirrors the other phases: the raw storefront entries are
stashed in the checkpoint alongside the cursor, so an aborted catalog
crawl resumes losslessly; ``skip_failed=True`` logs-and-skips apps that
keep failing after retries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.retry import RetriesExhausted
from repro.crawler.session import CrawlSession
from repro.steamapi.models import AppDetails

__all__ = ["CatalogCrawl", "crawl_storefront"]

PHASE = "storefront"


@dataclass
class CatalogCrawl:
    """Phase-3 harvest: one :class:`AppDetails` per product."""

    details: list[AppDetails]

    @property
    def n_products(self) -> int:
        return len(self.details)

    def genre_names(self) -> tuple[str, ...]:
        """All genre labels observed, in first-seen order."""
        seen: dict[str, None] = {}
        for item in self.details:
            for genre in item.genres:
                seen.setdefault(genre, None)
        return tuple(seen)


def crawl_storefront(
    session: CrawlSession,
    checkpoint: CrawlCheckpoint | None = None,
    checkpoint_every: int = 500,
    skip_failed: bool = False,
) -> CatalogCrawl:
    """Fetch the app list, then every product's storefront payload."""
    if checkpoint is None:
        checkpoint = CrawlCheckpoint()
    start = checkpoint.storefront_cursor
    # Raw [appid, entry] payloads: JSON-stashable, rebuilt into
    # AppDetails at the end, so resume reconstructs identical parses.
    # The list is the checkpoint's own: each save journals only the
    # entries appended since the previous one.
    harvest = checkpoint.resume(PHASE, ("entries",))["entries"]

    if not checkpoint.is_done(PHASE):
        applist = session.get("/ISteamApps/GetAppList/v2")["applist"]["apps"]
        appids = sorted(int(app["appid"]) for app in applist)
        # Pipelined transport: issue a bounded window of requests per
        # session call (sequential-equivalent — same transport order,
        # pacing, and retries as the one-at-a-time loop), harvesting
        # the window in bulk.  The window divides checkpoint_every so
        # checkpoints land on the same positions as the lockstep loop.
        window = max(1, checkpoint_every // 2)
        position = start
        while position < len(appids):
            # Never let a window straddle a checkpoint boundary, so the
            # cursor lands on the same positions as the lockstep loop.
            boundary = (position // checkpoint_every + 1) * checkpoint_every
            batch = appids[position : min(position + window, boundary)]
            payloads, error = session.get_many(
                [("/appdetails", {"appids": appid}) for appid in batch]
            )
            for appid, payload in zip(batch, payloads):
                entry = payload[str(appid)]
                if entry.get("success"):
                    harvest.append([appid, entry])
            position += len(payloads)
            if error is not None:
                if not isinstance(error, RetriesExhausted):
                    raise error
                if not skip_failed:
                    # Resume retries this app.
                    checkpoint.advance(PHASE, position)
                    raise error
                checkpoint.record_failure(PHASE, appids[position])
                session.note_skipped(PHASE)
                position += 1  # skip the poisoned app
            if position < len(appids) and position % checkpoint_every == 0:
                checkpoint.advance(PHASE, position)
        checkpoint.advance(PHASE, len(appids), done=True)

    return CatalogCrawl(
        details=[
            AppDetails.from_json(int(appid), entry)
            for appid, entry in harvest
        ]
    )


def catalog_arrays(crawl: CatalogCrawl) -> dict[str, np.ndarray]:
    """Columnar views of the phase-3 harvest (for table assembly)."""
    names = crawl.genre_names()
    index = {name: i for i, name in enumerate(names)}
    n = crawl.n_products
    appid = np.empty(n, dtype=np.int32)
    is_game = np.empty(n, dtype=bool)
    primary = np.zeros(n, dtype=np.int8)
    mask = np.zeros(n, dtype=np.uint64)
    price = np.empty(n, dtype=np.int32)
    multiplayer = np.empty(n, dtype=bool)
    release = np.empty(n, dtype=np.int32)
    metacritic = np.zeros(n, dtype=np.int8)
    for i, item in enumerate(crawl.details):
        appid[i] = item.appid
        is_game[i] = item.app_type == "game"
        price[i] = item.price_cents
        multiplayer[i] = item.multiplayer
        release[i] = item.release_day
        metacritic[i] = item.metacritic or 0
        bits = np.uint64(0)
        for g, genre in enumerate(item.genres):
            bit = np.uint64(1) << np.uint64(index[genre])
            bits |= bit
            if g == 0:
                primary[i] = index[genre]
        mask[i] = bits
    return {
        "appid": appid,
        "is_game": is_game,
        "primary_genre": primary,
        "genre_mask": mask,
        "price_cents": price,
        "multiplayer": multiplayer,
        "release_day": release,
        "metacritic": metacritic,
        "genre_names": names,
    }

"""Phase 4: per-game global achievement percentages (May 2016).

Resilience mirrors the other phases: the harvested rates are stashed in
the checkpoint with the cursor for lossless resume, and
``skip_failed=True`` logs-and-skips apps that keep failing after
retries instead of aborting the crawl.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.retry import RetriesExhausted
from repro.crawler.session import CrawlSession
from repro.steamapi.errors import NotFoundError

__all__ = ["AchievementCrawl", "crawl_achievements"]

PHASE = "achievements"


@dataclass
class AchievementCrawl:
    """Per-appid achievement completion rates (fractions in [0, 1])."""

    rates_by_appid: dict[int, np.ndarray]


def crawl_achievements(
    session: CrawlSession,
    appids: list[int],
    checkpoint: CrawlCheckpoint | None = None,
    checkpoint_every: int = 500,
    skip_failed: bool = False,
) -> AchievementCrawl:
    """Fetch global achievement percentages for every app in ``appids``."""
    if checkpoint is None:
        checkpoint = CrawlCheckpoint()
    start = checkpoint.achievements_cursor
    # [appid, [rates]] pairs: JSON-stashable, dict-ified at the end.
    # The list is the checkpoint's own: each save journals only the
    # pairs appended since the previous one.
    harvest = checkpoint.resume(PHASE, ("rates",))["rates"]

    path = "/ISteamUserStats/GetGlobalAchievementPercentagesForApp/v2"
    if not checkpoint.is_done(PHASE):
        # Pipelined window over the app list (see storefront.py for the
        # sequential-equivalence contract).  A NotFoundError is a
        # per-app non-event (the app simply has no achievements), so it
        # advances past the app and the window picks up right after.
        window = max(1, checkpoint_every // 2)
        position = start
        while position < len(appids):
            boundary = (position // checkpoint_every + 1) * checkpoint_every
            batch = appids[position : min(position + window, boundary)]
            payloads, error = session.get_many(
                [(path, {"gameid": int(a)}) for a in batch]
            )
            for appid, payload in zip(batch, payloads):
                entries = payload["achievementpercentages"]["achievements"]
                harvest.append(
                    [
                        int(appid),
                        [float(e["percent"]) / 100.0 for e in entries],
                    ]
                )
            position += len(payloads)
            if error is not None:
                if isinstance(error, NotFoundError):
                    position += 1
                elif isinstance(error, RetriesExhausted):
                    if not skip_failed:
                        # Resume retries this app.
                        checkpoint.advance(PHASE, position)
                        raise error
                    checkpoint.record_failure(PHASE, int(appids[position]))
                    session.note_skipped(PHASE)
                    position += 1
                else:
                    raise error
            if position < len(appids) and position % checkpoint_every == 0:
                checkpoint.advance(PHASE, position)
        checkpoint.advance(PHASE, len(appids), done=True)

    return AchievementCrawl(
        rates_by_appid={
            int(appid): np.array(rates, dtype=np.float32)
            for appid, rates in harvest
        }
    )

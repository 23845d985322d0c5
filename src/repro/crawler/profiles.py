"""Phase 1: exhaustive ID-space sweep (Section 3.1).

Queries ``GetPlayerSummaries`` for consecutive 100-ID windows starting at
the SteamID base, recording every account that answers.  The sweep stops
once a run of consecutive windows comes back empty (the paper stopped
when it reached accounts "created just seconds before the moment of
collection").  Window occupancy is recorded so the density profile the
paper describes (<50% early, >90% late) can be re-derived.

Resilience: when a checkpoint is supplied, the partial harvest is
stashed alongside the cursor at every save, so a sweep aborted mid-phase
(crash, :class:`~repro.crawler.retry.RetriesExhausted`) resumes with
nothing lost.  With ``skip_failed=True``, a window that keeps failing
after retries is recorded in the checkpoint's failure log and skipped
instead of aborting the crawl.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.retry import RetriesExhausted
from repro.crawler.session import CrawlSession, unix_to_day
from repro.steamapi.service import MAX_SUMMARY_BATCH

__all__ = ["ProfileSweep", "sweep_profiles"]

PHASE = "profiles"

_STASH_COLUMNS = ("offsets", "created", "countries", "cities", "window_hits")


@dataclass
class ProfileSweep:
    """Everything phase 1 learned."""

    #: ID offsets of valid accounts, ascending.
    offsets: np.ndarray
    created_day: np.ndarray
    #: Reported country name per account (None when unreported).
    countries: list[str | None]
    #: Reported city id per account (-1 when unreported).
    cities: np.ndarray
    #: Per-window (start_offset, hits) pairs for the density profile.
    window_hits: list[tuple[int, int]] = field(default_factory=list)

    @property
    def n_accounts(self) -> int:
        return len(self.offsets)

    def density_profile(self, n_bins: int = 20) -> np.ndarray:
        """Fraction of valid IDs per ID-range bin (Section 3.1)."""
        if not self.window_hits:
            return np.empty(0)
        starts = np.array([w[0] for w in self.window_hits], dtype=np.float64)
        hits = np.array([w[1] for w in self.window_hits], dtype=np.float64)
        occupied = hits > 0
        if not occupied.any():
            return np.zeros(n_bins)
        # Ignore the trailing all-empty run that terminated the sweep.
        end = starts[occupied].max() + MAX_SUMMARY_BATCH
        keep = starts < end
        starts, hits = starts[keep], hits[keep]
        edges = np.linspace(0, end, n_bins + 1)
        out = np.zeros(n_bins)
        for i in range(n_bins):
            mask = (starts >= edges[i]) & (starts < edges[i + 1])
            if mask.any():
                out[i] = hits[mask].sum() / (mask.sum() * MAX_SUMMARY_BATCH)
        return out


def sweep_profiles(
    session: CrawlSession,
    stop_after_empty: int = 100,
    max_offset: int | None = None,
    checkpoint: CrawlCheckpoint | None = None,
    checkpoint_every: int = 500,
    batch_size: int = MAX_SUMMARY_BATCH,
    skip_failed: bool = False,
) -> ProfileSweep:
    """Run (or resume) the phase-1 sweep.

    ``batch_size`` is how many IDs each GetPlayerSummaries call carries
    (<= the API's limit of 100); the ablation benchmark sweeps it.
    """
    if not 1 <= batch_size <= MAX_SUMMARY_BATCH:
        raise ValueError("batch_size must be in [1, 100]")
    if checkpoint is None:
        checkpoint = CrawlCheckpoint()
    cursor = checkpoint.profile_cursor
    # The harvest lists are the checkpoint's own: each save journals
    # only the rows appended since the previous one.
    state = checkpoint.resume(PHASE, _STASH_COLUMNS, empty_run=0)
    offsets, created, countries, cities, window_hits = (
        state[name] for name in _STASH_COLUMNS
    )
    empty_run = int(state["empty_run"])

    if not checkpoint.is_done(PHASE):
        base = constants.STEAMID_BASE
        path = "/ISteamUser/GetPlayerSummaries/v2"
        window_cap = max(1, checkpoint_every // 2)
        windows_done = 0
        completed = False
        while True:
            if max_offset is not None and cursor >= max_offset:
                # Stopped by an explicit bound, not exhaustion: resume
                # must keep sweeping, so the phase is not "done".
                break
            # Pipelined windows, sequential-equivalent to the lockstep
            # sweep: termination needs ``empty_run`` to reach
            # ``stop_after_empty``, which takes at least that many more
            # consecutive empty windows — so a batch of at most
            # ``stop_after_empty - empty_run`` windows issues exactly
            # the requests the one-at-a-time loop would have (the stop
            # can only trigger on the batch's final window).  The batch
            # also never straddles the checkpoint cadence or
            # ``max_offset``.
            n_windows = min(
                window_cap,
                stop_after_empty - empty_run,
                checkpoint_every - windows_done % checkpoint_every,
            )
            if max_offset is not None:
                n_windows = min(
                    n_windows, -(-(max_offset - cursor) // batch_size)
                )
            items = []
            for w in range(n_windows):
                start = base + cursor + w * batch_size
                items.append(
                    (
                        path,
                        {
                            "steamids": ",".join(
                                str(start + i) for i in range(batch_size)
                            )
                        },
                    )
                )
            payloads, error = session.get_many(items)
            for response in payloads:
                players = response["response"]["players"]
                window_hits.append([cursor, len(players)])
                if players:
                    empty_run = 0
                    for player in players:
                        offsets.append(int(player["steamid"]) - base)
                        created.append(unix_to_day(player["timecreated"]))
                        countries.append(player.get("loccountrycode"))
                        cities.append(int(player.get("loccityid", -1)))
                else:
                    empty_run += 1
                    if empty_run >= stop_after_empty:
                        completed = True
                        break
                cursor += batch_size
                windows_done += 1
            if completed:
                break
            if error is not None:
                if not isinstance(error, RetriesExhausted):
                    raise error
                if not skip_failed:
                    # The cursor points at the failed window.
                    checkpoint.advance(PHASE, cursor, empty_run=empty_run)
                    raise error
                # Graceful degradation: log the window and move on; the
                # occupancy of a skipped window is unknown, so it joins
                # neither the hit list nor the empty run.
                checkpoint.record_failure(PHASE, cursor)
                session.note_skipped(PHASE)
                cursor += batch_size
                windows_done += 1
                continue  # the lockstep loop skipped this cadence check
            if windows_done % checkpoint_every == 0:
                checkpoint.advance(PHASE, cursor, empty_run=empty_run)
        checkpoint.advance(
            PHASE, cursor, done=completed, empty_run=empty_run
        )

    order = np.argsort(np.array(offsets, dtype=np.int64), kind="stable")
    return ProfileSweep(
        offsets=np.array(offsets, dtype=np.int64)[order],
        created_day=np.array(created, dtype=np.int32)[order],
        countries=[countries[i] for i in order],
        cities=np.array(cities, dtype=np.int64)[order],
        window_hits=[(int(start), int(hits)) for start, hits in window_hits],
    )

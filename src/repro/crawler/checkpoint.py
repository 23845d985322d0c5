"""Resumable crawl state.

A crawl over 100+ million accounts runs for months (the paper's phase 2
spanned May to November 2013); surviving restarts is a hard requirement.
The checkpoint is two files:

- the *cursor file* (``path``, e.g. ``crawl_checkpoint.json``): the
  per-phase cursors, ``extra`` and the journal's committed byte length,
  small JSON replaced atomically (write-to-temp, fsync, rename);
- the *journal* (``path`` + ``.journal``): each phase's harvest, as
  append-only JSON lines.  A record carries one phase's rows harvested
  since the previous save plus its scalars (``empty_run``,
  ``n_private``, ...).

A save appends the new records, fsyncs the journal, then replaces the
cursor file.  That rename is the one commit point, so cursor and data
can never diverge: bytes past the committed length (a crash between
append and rename) are ignored by ``load`` and truncated by the next
append.  A save costs O(rows since the last save), not O(whole harvest).

Phase state:

- the phase's harvest (``stash``/``unstash``), committed with its cursor
  at every save, so a crawl killed mid-phase (crash, ``RetriesExhausted``
  escaping) resumes with the already-collected data intact instead of
  silently dropping it;
- ``done:<phase>`` in ``extra`` — completion flags, so re-running a
  finished phase replays its harvest instead of re-crawling;
- ``failed`` in ``extra`` — per-phase lists of identifiers (SteamIDs,
  appids, window offsets) that kept failing after retries and were
  skipped under graceful degradation.

A corrupt or truncated cursor file, or a journal missing or shorter than
its committed length (disk filled up, files copied apart, ...), is
treated as absent: ``load`` warns and starts fresh rather than refusing
to crawl.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import Obs

__all__ = ["CrawlCheckpoint"]

#: Phase name -> the attribute holding its cursor.
_CURSORS = {
    "profiles": "profile_cursor",
    "details": "detail_cursor",
    "storefront": "storefront_cursor",
    "achievements": "achievements_cursor",
}


@dataclass
class CrawlCheckpoint:
    """Per-phase progress cursors plus a journal of each phase's harvest."""

    path: Path | None = None
    #: Next ID-space offset for the profile sweep.
    profile_cursor: int = 0
    #: Number of users whose detail crawl completed.
    detail_cursor: int = 0
    #: Number of catalog apps fetched.
    storefront_cursor: int = 0
    #: Number of apps whose achievements were fetched.
    achievements_cursor: int = 0
    extra: dict = field(default_factory=dict)
    #: Where save/load timings land (never persisted); a crawl given
    #: this checkpoint points it at the crawl's own scope.
    obs: Obs | None = field(default=None, repr=False, compare=False)
    #: Phase -> its latest stashed harvest (list columns held by reference).
    _stash: dict = field(default_factory=dict, init=False, repr=False)
    #: Phase -> column -> rows already staged for the journal.
    _rows: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Journal records staged since the last successful save.
    _pending: list = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    #: Journal length named by the committed cursor file.
    _journal_bytes: int = field(
        default=0, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.obs is None:
            self.obs = Obs()

    @property
    def journal_path(self) -> Path | None:
        if self.path is None:
            return None
        return self.path.parent / (self.path.name + ".journal")

    @classmethod
    def load(
        cls, path: str | Path, obs: Obs | None = None
    ) -> "CrawlCheckpoint":
        """Load a checkpoint, or start fresh when the file is absent.

        A cursor file that does not parse as a JSON object (corruption,
        a partial write by some other tool), or a journal that is missing
        or shorter than the committed length, also yields a fresh
        checkpoint, with a warning — losing crawl progress beats refusing
        to crawl.  Journal bytes past the committed length are the torn
        tail of an interrupted save and are ignored.
        """
        path = Path(path)
        checkpoint = cls(path=path, obs=obs)
        obs = checkpoint.obs
        start = obs.clock()
        if not path.exists():
            return checkpoint
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
            if not isinstance(data, dict):
                raise ValueError("checkpoint root is not an object")
            checkpoint._replay(int(data.get("journal_bytes", 0)))
        except (ValueError, OSError, KeyError, TypeError) as exc:
            warnings.warn(
                f"checkpoint {path} is corrupt ({exc}); starting fresh",
                RuntimeWarning,
                stacklevel=2,
            )
            return cls(path=path, obs=obs)
        for name in _CURSORS.values():
            setattr(checkpoint, name, data.get(name, 0))
        checkpoint.extra = data.get("extra", {})
        # Checkpoints written before the journal kept each harvest
        # inline as ``extra["stash:<phase>"]``; stage it for the journal.
        for key in [k for k in checkpoint.extra if k.startswith("stash:")]:
            checkpoint.stash(key[len("stash:") :], checkpoint.extra.pop(key))
        obs.histogram(
            "crawler_checkpoint_load_seconds",
            "Time spent loading the crawl checkpoint",
        ).observe(obs.clock() - start)
        return checkpoint

    def _replay(self, committed: int) -> None:
        """Rebuild every phase's stash from the journal's committed bytes."""
        self._journal_bytes = committed
        if committed == 0:
            return
        with open(self.journal_path, "rb") as handle:
            blob = handle.read(committed)
        if len(blob) < committed:
            raise ValueError(
                f"journal holds {len(blob)} of {committed} committed bytes"
            )
        for line in blob.splitlines():
            record = json.loads(line)
            old = self._stash.get(record["phase"], {})
            state = {}
            for name, rows in record["rows"].items():
                at = record["from"][name]
                column = old.get(name, [])
                if at > len(column):
                    raise ValueError(f"journal record skips rows of {name}")
                del column[at:]
                column.extend(rows)
                state[name] = column
            state.update(record["scalars"])
            self._stash[record["phase"]] = state
        self._rows = {
            phase: {k: len(v) for k, v in state.items() if isinstance(v, list)}
            for phase, state in self._stash.items()
        }

    def save(self) -> None:
        """Commit staged harvest rows and the cursors (no-op without a path).

        Appends the staged journal records and fsyncs the journal, then
        atomically replaces the cursor file naming the new journal
        length: the rename is the commit point.
        """
        if self.path is None:
            return
        start = self.obs.clock()
        journal_bytes = self._journal_bytes
        if self._pending:
            blob = "".join(
                json.dumps(record, separators=(",", ":")) + "\n"
                for record in self._pending
            ).encode("ascii")
            with open(self.journal_path, "ab") as handle:
                # Drop a torn tail left by a save that died before its
                # commit; O_APPEND then writes at the committed end.
                handle.truncate(journal_bytes)
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            journal_bytes += len(blob)
        payload = {name: getattr(self, name) for name in _CURSORS.values()}
        payload["extra"] = self.extra
        payload["journal_bytes"] = journal_bytes
        # Temp file keeps the full name (``state.json.tmp``), not a
        # swapped suffix: ``with_suffix(".tmp")`` drops the extension,
        # so sibling checkpoints sharing a stem (``state.json`` and
        # ``state.bak``) would both write ``state.tmp`` and cross-
        # clobber each other mid-write.
        tmp = self.path.parent / (self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload))
            handle.flush()
            # fsync before rename: os.replace is atomic in the
            # namespace but not durable — a crash after the rename yet
            # before writeback could surface a torn checkpoint.
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._journal_bytes = journal_bytes
        self._pending.clear()
        self.obs.histogram(
            "crawler_checkpoint_save_seconds",
            "Time spent persisting the crawl checkpoint",
        ).observe(self.obs.clock() - start)
        self.obs.counter(
            "crawler_checkpoint_saves", "Checkpoint writes performed"
        ).inc()

    # -- phase state ----------------------------------------------------------

    def resume(
        self, phase: str, columns: tuple[str, ...], **scalars
    ) -> dict:
        """The phase's harvest to continue: stashed, or fresh and empty.

        A fresh harvest has an empty list per name in ``columns`` plus
        ``scalars`` as defaults.  The phase appends to these lists in
        place; the checkpoint holds them by reference, so ``advance``
        journals only the rows appended since its previous call.
        """
        state = self._stash.get(phase)
        if state is None:
            if getattr(self, _CURSORS[phase]) > 0 and not self.is_done(phase):
                warnings.warn(
                    f"{phase} checkpoint has a cursor but no stashed "
                    "harvest; rows harvested before the restart are lost",
                    RuntimeWarning,
                    stacklevel=3,
                )
            state = {name: [] for name in columns}
            state.update(scalars)
            self._stash[phase] = state
        return state

    def advance(
        self, phase: str, cursor: int, done: bool = False, **scalars
    ) -> None:
        """Commit one step of ``phase`` in one save.

        Records the cursor, the rows appended to the ``resume`` lists
        since the last step, the phase's ``scalars`` (small counters,
        stored whole) and, with ``done``, its completion flag.
        """
        setattr(self, _CURSORS[phase], cursor)
        self.stash(phase, {**self._stash.get(phase, {}), **scalars})
        if done:
            self.mark_done(phase)
        self.save()

    def stash(self, phase: str, payload: dict) -> None:
        """Attach a phase's harvest (persisted on next ``save``).

        List values are append-only columns: passing the same list again
        stages only its new rows; a different list object replaces the
        column.  Other values are stored whole.
        """
        previous = self._stash.get(phase, {})
        self._stash[phase] = payload
        if self.path is None:
            return
        staged = self._rows.setdefault(phase, {})
        record = {"phase": phase, "from": {}, "rows": {}, "scalars": {}}
        for name, value in payload.items():
            if isinstance(value, list):
                at = staged.get(name, 0) if value is previous.get(name) else 0
                record["from"][name] = at
                record["rows"][name] = value[at:]
                staged[name] = len(value)
            else:
                record["scalars"][name] = value
        self._pending.append(record)

    def unstash(self, phase: str) -> dict | None:
        """The phase's whole stashed harvest, if any."""
        return self._stash.get(phase)

    def mark_done(self, phase: str) -> None:
        self.extra[f"done:{phase}"] = True

    def is_done(self, phase: str) -> bool:
        return bool(self.extra.get(f"done:{phase}", False))

    def record_failure(self, phase: str, ident: int) -> None:
        """Note an identifier skipped after persistent failures."""
        self.extra.setdefault("failed", {}).setdefault(phase, []).append(
            int(ident)
        )

    def failures(self, phase: str | None = None) -> dict | list:
        """Skipped identifiers, per phase (or for one phase)."""
        failed = self.extra.get("failed", {})
        if phase is None:
            return failed
        return failed.get(phase, [])

    @property
    def n_failures(self) -> int:
        return sum(len(v) for v in self.extra.get("failed", {}).values())

"""Content-addressed on-disk memo of stage results.

Layout: ``<root>/<key[:2]>/<key>.pkl`` where ``key`` is the hex digest
from :func:`repro.engine.fingerprint.stage_key`.  Every entry is

    ``MAGIC || sha256(payload) || payload``

with ``payload`` a pickle of the stage's return value, so a torn write,
bit rot, or a stale pickle protocol all fail the checksum (or the
unpickle) and degrade to a recompute — the cache can slow you down but
never change an answer.  Writes are atomic (unique same-directory temp
+ fsync + ``os.replace``), mirroring the crawler checkpoint discipline.

Eviction is size-bounded and oldest-first: after every write the cache
prunes least-recently-used entries (by mtime; reads touch their entry)
until it fits ``max_bytes``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs import Obs

__all__ = ["StageCache", "CacheStats"]

_MAGIC = b"RPROSTAGE1"
_DIGEST_LEN = 32


@dataclass
class CacheStats:
    """Counters for one cache handle's lifetime."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    evictions: int = 0
    writes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "writes": self.writes,
        }


@dataclass
class StageCache:
    """A directory of checksummed, pickled stage results."""

    root: Path
    #: Prune oldest entries beyond this total size (None: unbounded).
    max_bytes: int | None = None
    #: Mirrors ``stats`` into engine_cache_* counters; a private scope
    #: is built when none is passed.
    obs: Obs | None = field(default=None, repr=False)
    #: Test-only interleave hook: ``hooks(event, path)`` is called at
    #: the race-sensitive points (``get_before_read``,
    #: ``put_before_replace``, ``prune_before_unlink``) so concurrency
    #: tests can hold one thread at an exact boundary.  ``None`` (the
    #: default) keeps the hot path branch-predictable.
    hooks: Any = field(default=None, repr=False)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root).expanduser()
        if self.obs is None:
            self.obs = Obs()

    def _count(self, event: str) -> None:
        self.obs.counter(
            f"engine_cache_{event}",
            f"Stage cache {event}",
        ).inc()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> tuple[bool, Any]:
        """``(True, value)`` on a verified hit, else ``(False, None)``.

        An entry that exists but fails the magic, checksum, or unpickle
        is counted as ``corrupt``, deleted, and reported as a miss.
        """
        path = self.path_for(key)
        if self.hooks is not None:
            self.hooks("get_before_read", path)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            self._count("misses")
            return False, None
        try:
            if not blob.startswith(_MAGIC):
                raise ValueError("bad magic")
            digest = blob[len(_MAGIC) : len(_MAGIC) + _DIGEST_LEN]
            payload = blob[len(_MAGIC) + _DIGEST_LEN :]
            if hashlib.sha256(payload).digest() != digest:
                raise ValueError("checksum mismatch")
            value = pickle.loads(payload)
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._count("corrupt")
            self._count("misses")
            try:
                path.unlink()
            except OSError:
                pass
            return False, None
        self.stats.hits += 1
        self._count("hits")
        try:
            os.utime(path)  # LRU touch for eviction ordering
        except OSError:
            pass
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Atomically persist ``value`` under ``key``, then prune."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        tmp = path.parent / f"{path.name}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            if self.hooks is not None:
                self.hooks("put_before_replace", path)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        self.stats.writes += 1
        self._count("writes")
        if self.max_bytes is not None:
            self.prune()

    def entries(self) -> list[Path]:
        """Every entry file currently in the cache."""
        if not self.root.exists():
            return []
        return sorted(self.root.glob("*/*.pkl"))

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entries())

    def prune(self) -> int:
        """Evict oldest entries until the cache fits ``max_bytes``."""
        if self.max_bytes is None:
            return 0
        sized = []
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            sized.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in sized)
        evicted = 0
        for _, size, path in sorted(sized):
            if total <= self.max_bytes:
                break
            if self.hooks is not None:
                self.hooks("prune_before_unlink", path)
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
            self.stats.evictions += 1
            self._count("evictions")
        return evicted

    def clear(self) -> None:
        for path in self.entries():
            try:
                path.unlink()
            except OSError:
                pass

"""Bounded-exponential retry around API calls.

Backoff optionally applies *full jitter* (AWS-style: sleep a uniform
draw from ``[0, capped_exponential]``), which de-synchronises workers
that all got rate-limited at the same instant.  The jitter RNG is
injectable and seeded so retried crawls stay deterministic.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.steamapi.errors import (
    ApiError,
    BadRequestError,
    NotFoundError,
    PrivateProfileError,
    RateLimitedError,
    UnauthorizedError,
)

__all__ = ["RetryPolicy", "RetriesExhausted"]

T = TypeVar("T")

#: Errors that retrying will never fix.
FATAL_ERRORS = (
    BadRequestError,
    NotFoundError,
    PrivateProfileError,
    UnauthorizedError,
)


class RetriesExhausted(ApiError):
    """All retry attempts failed."""

    status = 503

    def __init__(self, message: str = "", last: ApiError | None = None) -> None:
        super().__init__(message)
        #: The error the final attempt died on.
        self.last = last


@dataclass
class RetryPolicy:
    """Retry transient failures; honour rate-limit ``retry_after`` hints."""

    max_attempts: int = 5
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    sleeper: Callable[[float], None] = time.sleep
    #: Full jitter: sleep uniform(0, backoff) instead of the exact backoff.
    jitter: bool = False
    #: Seeded RNG for the jitter draw (deterministic chaos runs).
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    #: Observer called with (error, delay) before every retry sleep.
    on_retry: Callable[[ApiError, float], None] | None = None
    #: Total retry sleeps performed (i.e. failures that were retried).
    retries: int = 0
    #: Number of times the policy gave up with :class:`RetriesExhausted`.
    exhausted: int = 0

    def _backoff(self, attempt: int) -> float:
        delay = min(self.backoff_base * 2.0**attempt, self.backoff_cap)
        if self.jitter:
            delay = self.rng.uniform(0.0, delay)
        return delay

    def _note(self, exc: ApiError, delay: float) -> None:
        self.retries += 1
        if self.on_retry is not None:
            self.on_retry(exc, delay)
        self.sleeper(delay)

    def call(self, fn: Callable[[], T]) -> T:
        """Run ``fn``, retrying transient API errors."""
        try:
            return fn()
        except FATAL_ERRORS:
            raise
        except ApiError as exc:
            return self.resume(fn, exc)

    def resume(self, fn: Callable[[], T], first_exc: ApiError) -> T:
        """Continue the policy after an attempt-0 failure of ``fn``.

        Lets a caller attempt the first transport call inline (the
        no-failure fast path of a pipelined request window) and fall
        into the normal retry machinery only when that attempt fails —
        with backoff schedule, jitter draws, and counters exactly as if
        :meth:`call` had run the attempt itself.
        """
        last: ApiError | None = None
        for attempt in range(self.max_attempts):
            final = attempt == self.max_attempts - 1
            if attempt == 0:
                exc: ApiError = first_exc
            else:
                try:
                    return fn()
                except FATAL_ERRORS:
                    raise
                except ApiError as retry_exc:
                    exc = retry_exc
            last = exc
            if not final:  # the post-failure sleep is pointless then
                if isinstance(exc, RateLimitedError):
                    self._note(exc, min(exc.retry_after, self.backoff_cap))
                else:
                    self._note(exc, self._backoff(attempt))
        self.exhausted += 1
        raise RetriesExhausted(
            f"gave up after {self.max_attempts} attempts: {last}", last=last
        )

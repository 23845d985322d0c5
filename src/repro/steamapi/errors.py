"""API error taxonomy, mirrored onto HTTP status codes."""

from __future__ import annotations

__all__ = [
    "ApiError",
    "BadRequestError",
    "UnauthorizedError",
    "NotFoundError",
    "PrivateProfileError",
    "RateLimitedError",
    "OverloadedError",
    "RequestTimeoutError",
    "MalformedResponseError",
    "ServiceUnavailableError",
    "DeadlineExceededError",
    "AbortedResponse",
    "error_for_status",
    "status_of",
]


class ApiError(Exception):
    """Base class; carries the HTTP-like status code."""

    status = 500

    def __init__(self, message: str = "") -> None:
        super().__init__(message or self.__class__.__name__)
        self.message = message


class BadRequestError(ApiError):
    """Malformed parameters (bad SteamID, too many ids, ...)."""

    status = 400


class UnauthorizedError(ApiError):
    """Missing or revoked API key."""

    status = 401


class NotFoundError(ApiError):
    """No such account / app."""

    status = 404


class PrivateProfileError(ApiError):
    """The profile exists but its details are private (HTTP 403)."""

    status = 403


class RateLimitedError(ApiError):
    """API key exceeded its request budget; retry later."""

    status = 429

    def __init__(self, message: str = "", retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class OverloadedError(RateLimitedError):
    """The server shed this request to protect itself (admission
    control over budget, or a tripped circuit breaker).

    Subclasses :class:`RateLimitedError` so it shares the 429 status
    and the ``Retry-After`` plumbing — to a client the contract is the
    same: back off for ``retry_after`` seconds and try again.
    ``reason`` says which guard shed it (``capacity`` / ``route`` /
    ``breaker``) for metrics and tests.
    """

    def __init__(
        self,
        message: str = "",
        retry_after: float = 1.0,
        reason: str = "capacity",
    ) -> None:
        super().__init__(message, retry_after=retry_after)
        self.reason = reason


class ServiceUnavailableError(ApiError):
    """The service exists but is not ready to serve (mid-swap, no
    store yet); readiness probes map this to HTTP 503."""

    status = 503


class DeadlineExceededError(ApiError):
    """The request's time budget ran out before a layer finished;
    maps to HTTP 504.  ``layer`` names the boundary that noticed."""

    status = 504

    def __init__(self, message: str = "", layer: str = "dispatch") -> None:
        super().__init__(message)
        self.layer = layer


class RequestTimeoutError(ApiError):
    """The request ran out of time in flight; transient, retryable."""

    status = 408


class MalformedResponseError(ApiError):
    """The response body was not valid JSON (truncated mid-transfer,
    proxy garbage, ...); transient, retryable.

    ``body`` optionally carries the broken raw bytes, which lets the
    fault-injecting HTTP server replay the truncation over a real
    socket.
    """

    status = 502

    def __init__(self, message: str = "", body: bytes | None = None) -> None:
        super().__init__(message)
        self.body = body


class AbortedResponse(Exception):
    """An injected mid-body abort: headers promise ``len(body)`` bytes,
    only ``cut`` are written, then the connection closes.  Not an
    :class:`ApiError`: the wire says 200, the fault lives below the JSON
    protocol (the HTTP handler replays it on the real socket)."""

    def __init__(self, body: bytes, cut: int) -> None:
        super().__init__(f"aborted response body ({cut}/{len(body)} bytes)")
        self.body = body
        self.cut = cut


#: ``OverloadedError`` deliberately stays out of this table: it shares
#: 429 with ``RateLimitedError``, and a client reconstructing a typed
#: error from a bare status must get the canonical class.
_BY_STATUS = {
    cls.status: cls
    for cls in (
        BadRequestError,
        UnauthorizedError,
        NotFoundError,
        PrivateProfileError,
        RateLimitedError,
        RequestTimeoutError,
        MalformedResponseError,
        ServiceUnavailableError,
        DeadlineExceededError,
    )
}


def error_for_status(status: int, message: str = "") -> ApiError:
    """Reconstruct the typed error for an HTTP status code."""
    cls = _BY_STATUS.get(status, ApiError)
    return cls(message)


def status_of(exc: BaseException) -> int:
    """The one exception → status policy, shared by the HTTP handler
    and the serving tier's request records: a truncation carrying its
    broken body ships as 200, a mid-body abort is the nginx-style 499
    sentinel, malformed parameters are 400, a server bug is 500."""
    if isinstance(exc, MalformedResponseError) and exc.body is not None:
        return 200
    if isinstance(exc, AbortedResponse):
        return 499
    if isinstance(exc, ApiError):
        return exc.status
    if isinstance(exc, (KeyError, ValueError, TypeError)):
        return 400
    return 500

"""Error taxonomy and status mapping."""

import pytest

from repro.steamapi.errors import (
    AbortedResponse,
    ApiError,
    BadRequestError,
    DeadlineExceededError,
    MalformedResponseError,
    NotFoundError,
    OverloadedError,
    RateLimitedError,
    ServiceUnavailableError,
    UnauthorizedError,
    error_for_status,
    status_of,
)


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "cls,status",
        [
            (BadRequestError, 400),
            (UnauthorizedError, 401),
            (NotFoundError, 404),
            (RateLimitedError, 429),
        ],
    )
    def test_status_codes(self, cls, status):
        assert cls.status == status

    def test_error_for_status_roundtrip(self):
        for status in (400, 401, 404, 429):
            error = error_for_status(status, "boom")
            assert error.status == status
            assert error.message == "boom"

    def test_unknown_status_is_generic(self):
        assert type(error_for_status(418)) is ApiError

    def test_serving_statuses_are_typed(self):
        assert type(error_for_status(503)) is ServiceUnavailableError
        assert type(error_for_status(504)) is DeadlineExceededError

    def test_overloaded_shares_rate_limit_contract(self):
        # A shed request looks like a rate limit to clients: same 429,
        # same Retry-After plumbing — but a bare 429 reconstructs to
        # the canonical RateLimitedError, never the subclass.
        error = OverloadedError(retry_after=0.25, reason="breaker")
        assert isinstance(error, RateLimitedError)
        assert error.status == 429
        assert error.retry_after == 0.25
        assert error.reason == "breaker"
        assert type(error_for_status(429)) is RateLimitedError

    def test_rate_limited_retry_after_default(self):
        assert RateLimitedError().retry_after == 1.0

    def test_all_are_api_errors(self):
        for cls in (
            BadRequestError,
            UnauthorizedError,
            NotFoundError,
            RateLimitedError,
        ):
            assert issubclass(cls, ApiError)


class TestStatusOf:
    """The one exception → status policy, one row per exception class
    the HTTP handler tells apart."""

    @pytest.mark.parametrize(
        "exc,status",
        [
            (MalformedResponseError("cut", body=b'{"players": ['), 200),
            (AbortedResponse(b'{"players": []}', 5), 499),
            (MalformedResponseError("garbage"), 502),
            (NotFoundError(), 404),
            (OverloadedError(reason="breaker"), 429),
            (DeadlineExceededError(), 504),
            (KeyError("steamid"), 400),
            (ValueError("invalid literal for int()"), 400),
            (TypeError("unhashable type"), 400),
            (RuntimeError("handler bug"), 500),
        ],
        ids=[
            "truncated-body",
            "aborted-body",
            "api-error-without-body",
            "api-error",
            "api-error-subclass",
            "deadline",
            "key-error",
            "value-error",
            "type-error",
            "anything-else",
        ],
    )
    def test_status_table(self, exc, status):
        assert status_of(exc) == status

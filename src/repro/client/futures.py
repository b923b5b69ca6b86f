"""A tiny future for request/response over the simulated network.

Client operations (early-binding resolution, name discovery) are
asynchronous: the reply arrives as a later simulator event. A
:class:`Reply` lets callers either register callbacks or run the
simulator and then read ``value``.

A reply can also *fail* — the request timed out against every resolver
tried, or its overall deadline passed. Failure is terminal and mutually
exclusive with success: the first of :meth:`resolve` / :meth:`fail`
wins and the loser is ignored, which is exactly the semantics a lossy
datagram network needs (a late duplicate response arriving after the
client gave up must not reanimate the request).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional


class RequestError(Exception):
    """Base class for client request failures carried by a Reply."""


class RequestTimeout(RequestError):
    """Every retransmission of a request went unanswered."""


class DeadlineExceeded(RequestError):
    """The request's overall deadline passed before an answer arrived."""


class Reply:
    """A single-assignment container for an asynchronous result.

    Exactly one of three things happens to a reply: it stays pending
    forever (the caller abandoned it), it resolves with a value, or it
    fails with a :class:`RequestError`. ``done`` reports success only;
    ``settled`` reports "no longer pending". A settled reply holds no
    callback lists: nothing can be queued on it any more.
    """

    __slots__ = (
        "_value", "_done", "_failed", "_error", "_callbacks", "_error_callbacks",
        "deadline",
    )

    def __init__(self) -> None:
        self._value: Any = None
        self._done = False
        self._failed = False
        self._error: Optional[BaseException] = None
        # Both None once the reply settles.
        self._callbacks: Optional[List[Callable[[Any], None]]] = []
        self._error_callbacks: Optional[List[Callable[[BaseException], None]]] = []
        #: Absolute virtual time by which this request must settle, when
        #: the issuing client enforces one (informational for callers).
        self.deadline: Optional[float] = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def settled(self) -> bool:
        """True once the reply resolved or failed."""
        return self._done or self._failed

    @property
    def error(self) -> Optional[BaseException]:
        """The failure, or None while pending/resolved."""
        return self._error

    @property
    def value(self) -> Any:
        """The result; raises if the reply has not arrived (or failed)."""
        if self._failed:
            raise self._error
        if not self._done:
            raise RuntimeError("reply not available yet; run the simulator")
        return self._value

    def value_or(self, default: Any) -> Any:
        return self._value if self._done else default

    def resolve(self, value: Any) -> None:
        """Deliver the result; runs registered callbacks. Idempotent —
        only the first settlement counts (duplicate datagrams happen),
        and a response landing after the request already failed is
        ignored the same way."""
        if self._done or self._failed:
            return
        self._value = value
        self._done = True
        callbacks = self._callbacks
        self._callbacks = self._error_callbacks = None
        for callback in callbacks:
            callback(value)

    def fail(self, error: BaseException) -> None:
        """Settle the reply as failed; runs ``on_error`` callbacks.
        Idempotent, and a no-op once the reply resolved."""
        if self._done or self._failed:
            return
        self._error = error
        self._failed = True
        callbacks = self._error_callbacks
        self._callbacks = self._error_callbacks = None
        for callback in callbacks:
            callback(error)

    def then(self, callback: Callable[[Any], None]) -> "Reply":
        """Run ``callback(value)`` once resolved (immediately if done)."""
        if self._done:
            callback(self._value)
        elif not self._failed:
            self._callbacks.append(callback)
        return self

    def on_error(self, callback: Callable[[BaseException], None]) -> "Reply":
        """Run ``callback(error)`` if the reply fails (immediately if it
        already has). Each callback fires at most once."""
        if self._failed:
            callback(self._error)
        elif not self._done:
            self._error_callbacks.append(callback)
        return self

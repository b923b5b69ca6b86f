"""The INS client API (Section 3).

:class:`InsClient` is what applications embed. It attaches to an INR
(either a given one, or the best of the DSR's active list measured by
INR-ping, mirroring how resolvers choose peers), and then offers the
three INS services:

- **early binding** — :meth:`resolve_early` returns the [ip, [port,
  transport]] list with per-endpoint metrics;
- **intentional anycast** — :meth:`send_anycast` late-binds a message to
  the single best matching service;
- **intentional multicast** — :meth:`send_multicast` late-binds to all
  matching services;

plus :meth:`discover` for bootstrap-style name discovery.

Every request/response operation (early binding, discovery, the attach
pings and DSR list requests behind them) is wrapped in the resilience
layer described by :class:`RetryPolicy`: per-request timeouts with
capped exponential backoff, an overall deadline after which the
:class:`~.futures.Reply` fails instead of hanging, and automatic
failover to a different resolver after enough consecutive timeouts
against the current one. Per-client counters live in :class:`ClientStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..message import Binding, Delivery, InsMessage
from ..naming import NameSpecifier
from ..netsim import Node, Process, cancel
from ..obs import STATUS_OK
from ..message.dsr import DsrListRequest, DsrListResponse
from ..resolver.ports import DSR_PORT, INR_PORT
from ..resolver.protocol import (
    DataPacket,
    DiscoveryRequest,
    DiscoveryResponse,
    PingRequest,
    PingResponse,
    ResolutionRequest,
    ResolutionResponse,
)
from .futures import DeadlineExceeded, Reply, RequestTimeout

#: How long a client waits for INR-ping answers before attaching.
_ATTACH_PING_TIMEOUT = 0.5

#: How long a reselection round may run before the previous attachment
#: is restored (list round-trip plus the ping round, with margin).
_RESELECT_TIMEOUT = 2.0

#: The probe name used when a client pings candidate resolvers.
_PROBE = NameSpecifier.from_dict({"service": "client-ping"})

#: Each retry waits this many times longer than the attempt before it,
#: up to the policy's ``backoff_max``.
BACKOFF_FACTOR = 2.0

#: A backed-off wait is stretched by up to this fraction, drawn from
#: the simulator's RNG, so synchronized clients do not retry in
#: lockstep against a recovering resolver.
JITTER_FRACTION = 0.1

#: Timeouts after which a request fails with ``RequestTimeout``.
MAX_ATTEMPTS = 4

#: Consecutive timeouts against one resolver after which the client
#: declares it suspect and fails over through the DSR.
FAILOVER_THRESHOLD = 3

MessageHandler = Callable[[InsMessage, str], None]


@dataclass(frozen=True)
class RetryPolicy:
    """Resilience knobs for one client's request/response operations.

    The retransmit schedule: attempt k is answered within
    ``min(request_timeout * BACKOFF_FACTOR**(k-1), backoff_max)``
    seconds or it times out and the next attempt goes out (retry delays
    after the first carry up to ``JITTER_FRACTION`` multiplicative
    jitter). ``MAX_ATTEMPTS`` timeouts fail the request with
    :class:`~.futures.RequestTimeout`; ``deadline`` caps the whole
    request with :class:`~.futures.DeadlineExceeded` regardless of how
    many attempts remain. ``FAILOVER_THRESHOLD`` consecutive timeouts
    against one resolver trigger ``reattach()`` through the DSR,
    excluding the suspect.
    """

    enabled: bool = True
    request_timeout: float = 0.5
    backoff_max: float = 4.0
    deadline: float = 10.0

    @classmethod
    def disabled(cls) -> "RetryPolicy":
        """Fire-and-forget mode: one datagram per request, no timers —
        the pre-resilience behavior, kept for ablations."""
        return cls(enabled=False)


#: The policy of every client built without one: frozen, so one object
#: serves them all.
DEFAULT_RETRY_POLICY = RetryPolicy()


class ClientStats:
    """Per-client resilience counters."""

    __slots__ = (
        "requests_sent", "attempts_sent", "retries", "requests_succeeded",
        "requests_failed", "deadline_exceeded", "failovers", "attach_retries",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Every counter in declaration order — the uniform shape the
        metrics registry ingests and artifacts embed."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        counters = ", ".join(f"{name}={value}" for name, value in self.snapshot().items())
        return f"ClientStats({counters})"


@dataclass
class _PendingRequest:
    """Book-keeping for one in-flight request/response operation."""

    reply: Reply
    request: object
    started_at: float = 0.0
    attempts: int = 0
    timeouts: int = 0
    resolver: Optional[str] = None
    timer: Optional[list] = None
    #: The root span covering this request, when the domain is traced.
    span: Optional[object] = None

    def cancel_timer(self) -> None:
        if self.timer is not None:
            cancel(self.timer)
            self.timer = None


class InsClient(Process):
    """An application endpoint speaking the INS protocols."""

    __slots__ = (
        "resolver", "dsr_address", "reselect_interval", "retry_policy", "stats",
        "tracer", "attached", "_pending", "_ping_rtts", "_ping_sent",
        "_message_handler", "_reselect_timer", "_exclude_resolver",
        "_reselect_previous", "_reselect_epoch", "_attach_epoch",
        "_attach_attempts", "_ping_round_open", "_consecutive_failures",
        "_ever_attached",
    )

    def __init__(
        self,
        node: Node,
        port: int,
        resolver: Optional[str] = None,
        dsr_address: Optional[str] = None,
        reselect_interval: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        """``reselect_interval`` enables the periodic part of the client
        configuration protocol: every interval the client re-measures
        the active INRs and moves to the best one. Because INR-ping
        responses queue behind the resolver's CPU backlog, a loaded INR
        looks slow and clients drain toward freshly spawned helpers —
        exactly how Section 2.5 expects spawn-based load balancing to
        take effect."""
        if resolver is None and dsr_address is None:
            raise ValueError("a client needs either a resolver or a DSR to find one")
        super().__init__(node, port)
        self.resolver = resolver
        self.dsr_address = dsr_address
        self.reselect_interval = reselect_interval
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.stats = ClientStats()
        #: Observability hook: a ``repro.obs.Tracer`` when the domain is
        #: being observed, None otherwise (zero cost when off).
        self.tracer = None
        self.attached = Reply()
        self._pending: Dict[int, _PendingRequest] = {}
        self._ping_rtts: Dict[str, float] = {}
        self._ping_sent: Dict[int, tuple] = {}
        self._message_handler: Optional[MessageHandler] = None
        self._reselect_timer = None
        #: resolver address skipped during the next selection round
        #: (the suspect a failover is escaping from).
        self._exclude_resolver: Optional[str] = None
        #: (attached Reply, resolver) to fall back to if a reselection
        #: round dies on a lost datagram.
        self._reselect_previous: Optional[Tuple[Reply, Optional[str]]] = None
        self._reselect_epoch = 0
        self._attach_epoch = 0
        self._attach_attempts = 0
        #: True between a DSR list arriving and the ping round closing;
        #: while set, the list-request watchdog stands down.
        self._ping_round_open = False
        self._consecutive_failures = 0
        #: Once a client has attached at least once, a resilient request
        #: issued mid-failover waits for the new resolver instead of
        #: raising — only a never-attached client rejects operations.
        self._ever_attached = False

    # ------------------------------------------------------------------
    # Attachment (the client configuration protocol)
    # ------------------------------------------------------------------
    def start(self) -> None:
        if (
            self.reselect_interval is not None
            and self.dsr_address is not None
            and self._reselect_timer is None
        ):
            self._reselect_timer = self.every(self.reselect_interval, self._reselect)
        if self.resolver is not None:
            self._ever_attached = True
            self.attached.resolve(self.resolver)
            return
        self._request_inr_list()

    def _request_inr_list(self) -> None:
        """Ask the DSR for the active list, with a retransmit watchdog:
        on a lossy link the request or its answer may vanish, and an
        attach round must not hang forever."""
        self._attach_epoch += 1
        self._ping_round_open = False
        self.send(
            self.dsr_address,
            DSR_PORT,
            DsrListRequest(reply_to=self.address, reply_port=self.port),
        )
        if self.retry_policy.enabled:
            self._attach_attempts += 1
            delay = min(1.0 * 2.0 ** (self._attach_attempts - 1), 5.0)
            self.set_timer(delay, self._attach_watchdog, self._attach_epoch)

    def _attach_watchdog(self, epoch: int) -> None:
        if epoch != self._attach_epoch or self.attached.done:
            return
        if self._ping_round_open:
            return  # the list arrived; the ping-timeout path is in control
        self.stats.attach_retries += 1
        self._request_inr_list()

    def _reselect(self) -> None:
        """Re-run resolver selection; the current resolver keeps serving
        until a better one is measured. If the round dies (lost DSR
        response, no ping answers) the previous attachment is restored,
        so callbacks registered against ``attached`` in the window never
        hang while the old resolver still works."""
        if not self.attached.done:
            return  # initial selection still in progress
        self._reselect_previous = (self.attached, self.resolver)
        self._reselect_epoch += 1
        self.attached = Reply()
        self._attach_attempts = 0
        self._request_inr_list()
        self.set_timer(_RESELECT_TIMEOUT, self._restore_reselect, self._reselect_epoch)

    def _restore_reselect(self, epoch: int) -> None:
        if epoch != self._reselect_epoch or self.attached.done:
            return
        previous = self._reselect_previous
        if previous is None:
            return
        self.attached, self.resolver = previous
        self._reselect_previous = None
        self._attach_epoch += 1  # stand the watchdog down
        self._ping_round_open = False

    def _handle_inr_list(self, response: DsrListResponse) -> None:
        if self.attached.done:
            return
        if not response.active:
            # No resolver yet; ask again shortly.
            self._ping_round_open = False
            self.set_timer(1.0, self._request_inr_list)
            return
        candidates = [a for a in response.active if a != self._exclude_resolver]
        if not candidates:
            # The suspect is the only resolver there is; better a slow
            # or flaky INR than none at all.
            candidates = list(response.active)
        self._ping_round_open = True
        self._ping_rtts = {}
        for address in candidates:
            request = PingRequest(
                probe=_PROBE, reply_to=self.address, reply_port=self.port
            )
            self._ping_sent[request.token] = (address, self.now)
            self.send(address, INR_PORT, request)
        self.set_timer(_ATTACH_PING_TIMEOUT, self._pick_resolver)

    def _pick_resolver(self) -> None:
        # The selection round is over: tokens whose responses never
        # arrived would otherwise pin dead entries forever.
        self._ping_sent.clear()
        self._ping_round_open = False
        if self.attached.done:
            return
        if not self._ping_rtts:
            if self._reselect_previous is not None:
                self._restore_reselect(self._reselect_epoch)
                return
            self.set_timer(1.0, self._request_inr_list)
            return
        best = min(self._ping_rtts, key=lambda a: (self._ping_rtts[a], a))
        self.resolver = best
        self._exclude_resolver = None
        self._reselect_previous = None
        self._consecutive_failures = 0
        self._ever_attached = True
        self.attached.resolve(best)

    def reattach(self, exclude: Optional[str] = None) -> None:
        """Re-run resolver selection (e.g. after the INR died or new
        resolvers were spawned for load balancing). ``exclude`` skips
        one address during the round — the failover path uses it to
        avoid re-picking the resolver that just went silent."""
        if self.dsr_address is None:
            return
        self._exclude_resolver = exclude
        self._reselect_previous = None
        self.attached = Reply()
        self.resolver = None
        self._attach_attempts = 0
        self.start()

    def _require_resolver(self) -> str:
        if self.resolver is None:
            raise RuntimeError(
                f"client {self.address}:{self.port} is not attached to a resolver yet"
            )
        return self.resolver

    # ------------------------------------------------------------------
    # The request/response resilience layer
    # ------------------------------------------------------------------
    def _issue(self, request, reply: Reply) -> Reply:
        """Send ``request`` under the retry policy and track ``reply``."""
        policy = self.retry_policy
        if not (policy.enabled and self._ever_attached):
            # Mid-failover a resilient request waits for the new
            # resolver; everyone else needs an attachment up front.
            self._require_resolver()
        self.stats.requests_sent += 1
        pending = _PendingRequest(reply=reply, request=request, started_at=self.now)
        if self.tracer is not None:
            # Root span of the trace: every INR hop this request touches
            # nests under it through the wire context.
            pending.span = self.tracer.start_span(
                "client.request",
                node=f"{self.address}:{self.port}",
                tags={"kind": type(request).__name__},
            )
            request.trace = pending.span.context
        self._pending[request.request_id] = pending
        if not policy.enabled:
            # Fire-and-forget: one datagram, no timers, replies may hang.
            pending.attempts = 1
            self.stats.attempts_sent += 1
            self.send(self.resolver, INR_PORT, request)
            return reply
        reply.deadline = self.now + policy.deadline
        self._attempt(request.request_id)
        return reply

    def _attempt(self, request_id: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        policy = self.retry_policy
        if self.now - pending.started_at >= policy.deadline:
            self._fail_request(request_id, DeadlineExceeded(
                f"request {request_id} exceeded its {policy.deadline}s deadline"
            ))
            return
        if self.resolver is None:
            # Reattachment in progress: hold the attempt until a new
            # resolver is selected (the deadline still applies).
            pending.timer = self.set_timer(0.25, self._attempt, request_id)
            return
        pending.attempts += 1
        pending.resolver = self.resolver
        self.stats.attempts_sent += 1
        if pending.attempts > 1:
            self.stats.retries += 1
        if pending.span is not None:
            self.tracer.annotate(
                pending.span,
                f"attempt {pending.attempts} -> {self.resolver}",
            )
        self.send(self.resolver, INR_PORT, pending.request)
        if pending.timeouts == 0:
            # The happy path: no backoff power to raise, no RNG draw.
            timeout = min(policy.request_timeout, policy.backoff_max)
        else:
            timeout = min(
                policy.request_timeout * BACKOFF_FACTOR ** pending.timeouts,
                policy.backoff_max,
            )
            # Jitter only the backed-off waits.
            timeout *= 1.0 + JITTER_FRACTION * self.sim.rng.random()
        remaining = pending.started_at + policy.deadline - self.now
        timeout = min(timeout, max(remaining, 1e-3))
        pending.timer = self.set_timer(
            timeout, self._on_request_timeout, request_id, pending.attempts
        )

    def _on_request_timeout(self, request_id: int, attempt_no: int) -> None:
        pending = self._pending.get(request_id)
        if pending is None or pending.attempts != attempt_no:
            return  # answered
        pending.timeouts += 1
        if pending.span is not None:
            self.tracer.annotate(
                pending.span, f"timeout {pending.timeouts} at {pending.resolver}"
            )
        self._note_resolver_failure(pending.resolver)
        if pending.timeouts >= MAX_ATTEMPTS:
            self._fail_request(request_id, RequestTimeout(
                f"request {request_id} unanswered after "
                f"{pending.timeouts} attempts"
            ))
            return
        self._attempt(request_id)

    def _fail_request(self, request_id: int, error: BaseException) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return
        pending.cancel_timer()
        self.stats.requests_failed += 1
        if isinstance(error, DeadlineExceeded):
            self.stats.deadline_exceeded += 1
        if pending.span is not None:
            status = (
                "deadline-exceeded"
                if isinstance(error, DeadlineExceeded)
                else "timeout"
                if isinstance(error, RequestTimeout)
                else "failed"
            )
            self.tracer.end_span(pending.span, status)
        pending.reply.fail(error)

    def _note_resolver_failure(self, address: Optional[str]) -> None:
        """Count a timeout against the resolver an attempt targeted;
        enough consecutive ones trigger failover through the DSR."""
        if address is None or address != self.resolver:
            return  # a straggler against a resolver we already left
        self._consecutive_failures += 1
        if (
            self.dsr_address is not None
            and self._consecutive_failures >= FAILOVER_THRESHOLD
        ):
            self._consecutive_failures = 0
            self.stats.failovers += 1
            self.reattach(exclude=address)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def resolve_early(self, name: NameSpecifier) -> Reply:
        """Early binding: resolve ``name`` to [(Endpoint, metric), ...],
        sorted by metric (least first)."""
        request = ResolutionRequest(
            name=name, reply_to=self.address, reply_port=self.port
        )
        return self._issue(request, Reply())

    def discover(self, name_filter: NameSpecifier) -> Reply:
        """Name discovery: all known names matching ``name_filter`` as
        [(NameSpecifier, metric), ...]."""
        request = DiscoveryRequest(
            filter=name_filter, reply_to=self.address, reply_port=self.port
        )
        return self._issue(request, Reply())

    # ------------------------------------------------------------------
    # Late binding sends
    # ------------------------------------------------------------------
    def send_message(self, message: InsMessage) -> None:
        """Hand a fully-formed INS message to the attached resolver."""
        resolver = self._require_resolver()
        if self.tracer is not None and message.trace is None:
            # Root span for a late-binding send: zero-duration anchor
            # that the per-INR hop spans nest under.
            span = self.tracer.start_span(
                "client.send",
                node=f"{self.address}:{self.port}",
                tags={"delivery": message.delivery.value},
            )
            message.trace = span.context
            self.send(resolver, INR_PORT, DataPacket(raw=message.encode()))
            self.tracer.end_span(span, "sent")
            return
        self.send(resolver, INR_PORT, DataPacket(raw=message.encode()))

    def send_anycast(
        self,
        destination: NameSpecifier,
        data: bytes = b"",
        source: Optional[NameSpecifier] = None,
        cache_lifetime: int = 0,
        accept_cached: bool = False,
    ) -> None:
        """Intentional anycast: deliver to the best node matching
        ``destination`` (least application-advertised metric)."""
        self.send_message(
            InsMessage(
                destination=destination,
                source=source if source is not None else NameSpecifier(),
                data=data,
                binding=Binding.LATE,
                delivery=Delivery.ANYCAST,
                cache_lifetime=cache_lifetime,
                accept_cached=accept_cached,
            )
        )

    def send_multicast(
        self,
        destination: NameSpecifier,
        data: bytes = b"",
        source: Optional[NameSpecifier] = None,
        cache_lifetime: int = 0,
    ) -> None:
        """Intentional multicast: deliver to every node matching
        ``destination``."""
        self.send_message(
            InsMessage(
                destination=destination,
                source=source if source is not None else NameSpecifier(),
                data=data,
                binding=Binding.LATE,
                delivery=Delivery.MULTICAST,
                cache_lifetime=cache_lifetime,
            )
        )

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_message(self, handler: MessageHandler) -> None:
        """Register the callback for late-bound messages tunnelled to
        this endpoint: ``handler(message, source_address)``."""
        self._message_handler = handler

    def handle_message(self, payload: object, source: str) -> None:
        if isinstance(payload, (ResolutionResponse, DiscoveryResponse)):
            pending = self._pending.pop(payload.request_id, None)
            if pending is not None:
                pending.cancel_timer()
                self.stats.requests_succeeded += 1
                self._consecutive_failures = 0
                if pending.span is not None:
                    self.tracer.end_span(pending.span, STATUS_OK)
                pending.reply.resolve(
                    payload.bindings
                    if isinstance(payload, ResolutionResponse)
                    else payload.names
                )
        elif isinstance(payload, DataPacket):
            if self._message_handler is not None:
                self._message_handler(payload.message, source)
        elif isinstance(payload, PingResponse):
            sent = self._ping_sent.pop(payload.token, None)
            if sent is not None:
                address, sent_at = sent
                self._ping_rtts[address] = self.now - sent_at
        elif isinstance(payload, DsrListResponse):
            self._handle_inr_list(payload)

    @property
    def pending_requests(self) -> int:
        """Requests issued but not yet settled (for tests and chaos)."""
        return len(self._pending)

"""Services: applications that advertise an intentional name.

A :class:`Service` is a client that additionally announces a
name-specifier with an application-controlled metric, refreshing it
periodically (soft state, Section 2.2). Updating the metric triggers an
immediate re-advertisement, which is how the Printer proxies steer
anycast toward the least-loaded printer (Section 3.3).

Advertisements are marked *triggered* when they carry new information
(first announcement after an attachment or failover, a metric change, a
rename, a post-mobility repair) and left periodic otherwise.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..message import InsMessage
from ..naming import NameSpecifier
from ..nametree import AnnouncerID, Endpoint
from ..netsim import Node
from ..resolver.ports import INR_PORT
from ..resolver.protocol import Advertisement
from .api import InsClient, RetryPolicy

RequestHandler = Callable[[InsMessage, str], None]


class Service(InsClient):
    """An application that provides functionality under a name."""

    __slots__ = (
        "name", "metric", "lifetime", "refresh_interval", "transport", "announcer",
        "advertisements_sent", "_advertising", "_advertisement",
    )

    def __init__(
        self,
        node: Node,
        port: int,
        name: NameSpecifier,
        resolver: Optional[str] = None,
        dsr_address: Optional[str] = None,
        metric: float = 0.0,
        lifetime: float = 45.0,
        refresh_interval: float = 15.0,
        transport: str = "udp",
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(
            node,
            port,
            resolver=resolver,
            dsr_address=dsr_address,
            retry_policy=retry_policy,
        )
        name.require_concrete()
        self.name = name
        self.metric = metric
        self.lifetime = lifetime
        self.refresh_interval = refresh_interval
        self.transport = transport
        self.announcer = AnnouncerID.generate(node.address)
        self.advertisements_sent = 0
        #: True while the refresh timer is installed (start() to stop()).
        self._advertising = False
        #: The last advertisement sent, re-sent as it is while it still
        #: says what this service would say now (see :meth:`advertise`).
        self._advertisement: Optional[Advertisement] = None

    def start(self) -> None:
        super().start()
        # Advertise as soon as we know our resolver, then periodically.
        # Runs again on every reattachment (including the failover path),
        # so a service is visible at its new resolver immediately.
        self.attached.then(lambda _resolver: self._begin_advertising())

    def stop(self) -> None:
        # The refresh timer dies with the other timers: a later start()
        # (after a re-bind) must install a new one.
        super().stop()
        self._advertising = False
        self._advertisement = None

    def _begin_advertising(self) -> None:
        self.advertise(triggered=True)
        # start() can run more than once (reattach after a resolver
        # failure); only the first attachment installs the refresh timer.
        if not self._advertising:
            self._advertising = True
            self.every(self.refresh_interval, self.advertise, jitter_fraction=0.05)

    def advertise(self, triggered: bool = False) -> None:
        """Announce (or refresh) this service's name at its resolver.

        Every field is read afresh each time, so a node that moved
        advertises its new address on the next refresh — this is what
        makes INS track node mobility (Section 3.2) — and a metric set
        with ``announce_now=False`` goes out with it. When nothing
        differs from the advertisement sent last, that object is sent
        again instead of an equal new one (names are sealed values:
        the same name object is the same name).
        """
        if self.resolver is None:
            return
        advertisement = self._advertisement
        if (
            advertisement is None
            or advertisement.name is not self.name
            or (endpoint := advertisement.endpoints[0]).host != self.node.address
            or endpoint.port != self.port
            or endpoint.transport != self.transport
            or advertisement.anycast_metric != self.metric
            or advertisement.lifetime != self.lifetime
            or advertisement.triggered != triggered
        ):
            advertisement = self._advertisement = Advertisement(
                name=self.name,
                announcer=self.announcer,
                endpoints=(
                    Endpoint(
                        host=self.address, port=self.port, transport=self.transport
                    ),
                ),
                anycast_metric=self.metric,
                lifetime=self.lifetime,
                triggered=triggered,
            )
        self.send(self.resolver, INR_PORT, advertisement, advertisement.wire_size())
        self.advertisements_sent += 1

    def set_metric(self, metric: float, announce_now: bool = True) -> None:
        """Change the application-controlled anycast metric.

        With ``announce_now`` the new value reaches the resolver
        immediately (a triggered advertisement) instead of waiting for
        the next periodic refresh.
        """
        self.metric = metric
        if announce_now:
            self.advertise(triggered=True)

    def rename(self, name: NameSpecifier, announce_now: bool = True) -> None:
        """Change the advertised name (service mobility, Section 3.2).

        The AnnouncerID stays fixed, so resolvers replace the old name
        with the new one instead of keeping both.
        """
        name.require_concrete()
        self.name = name
        if announce_now:
            self.advertise(triggered=True)

    def reply_to(
        self, request: InsMessage, data: bytes, cache_lifetime: int = 0
    ) -> None:
        """Answer ``request`` by inverting its source and destination
        names, the Camera transmitter's pattern (Section 3.2)."""
        if request.source.is_empty:
            return
        response = request.reply_template()
        response.data = data
        response.cache_lifetime = cache_lifetime
        self.send_message(response)

    def on_network_change(self) -> None:
        """After mobility, re-announce immediately from the new address
        so resolvers update the name-to-location mapping fast."""
        self.advertise(triggered=True)

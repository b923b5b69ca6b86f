"""Corpus: resolver stand-in for the protocol-exhaustive surfaces.

Dispatches Ping (directly), Pong (via a reachable helper) and Tabled (a
key of the class-level table that helper reads) but not Orphan; counts
one drop cause with a span emission and one without. Never imported; see
tests/lint/test_corpus.py. Line numbers are asserted — append, don't
reorder.
"""

from repro.message import Ping, Pong, Tabled

DROP_PREFIX = "drop:"


class InrStats:
    drops_no_route: int = 0              # emitted below; not flagged
    drops_ghost: int = 0                 # line 17: no span emission


class INR:
    def __init__(self):
        self.stats = InrStats()

    def handle_message(self, payload, source):
        if isinstance(payload, Ping):
            return self._drop(source)
        return self._late(payload, source)

    def _late(self, payload, source):
        if isinstance(payload, (Pong,)):
            return source
        return self._TABLE[type(payload)](self, payload, source)

    def _drop(self, source):
        self.stats.drops_no_route += 1
        return (source, DROP_PREFIX + "no-route")

    def _on_tabled(self, payload, source):
        return payload

    _TABLE = {Tabled: _on_tabled}

"""Corpus: resolver stand-in for the protocol-exhaustive dispatch surface.

Dispatches Ping (directly), Pong (via a reachable helper), and Tabled and
Bound through the table that helper reads: ``_bound`` is built per
instance from the class-level ``_TABLE``, itself the union of the
``HANDLERS`` dict literals of the components in parts.py. Nothing
dispatches Orphan. Never imported; see tests/lint/test_corpus.py.
"""

from repro.message import Ping, Pong

from .parts import Left, Right, merge
from .stats import InrStats

DROP_PREFIX = "drop:"


class INR:
    _TABLE = merge(left=Left.HANDLERS, right=Right.HANDLERS)

    def __init__(self):
        self.stats = InrStats()
        self.left = Left()
        self.right = Right()
        self._bound = {
            message: getattr(self, owner)
            for message, owner in self._TABLE.items()
        }

    def handle_message(self, payload, source):
        if isinstance(payload, Ping):
            return self._drop(source)
        return self._late(payload, source)

    def _late(self, payload, source):
        if isinstance(payload, (Pong,)):
            return source
        return self._bound[type(payload)].handle(payload, source)

    def _drop(self, source):
        self.stats.drops_no_route += 1
        return (source, DROP_PREFIX + "no-route")

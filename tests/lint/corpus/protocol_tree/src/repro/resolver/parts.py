"""Corpus: two components, each declaring the message types it handles.

``INR._TABLE`` in inr.py is the union of the two ``HANDLERS`` literals;
deleting a key here leaves its message without a dispatch arm. Never
imported; see tests/lint/test_corpus.py.
"""

from repro.message import Bound, Tabled


def merge(**tables):
    return {
        message: owner for owner, table in tables.items() for message in table
    }


class Left:
    def handle(self, payload, source):
        return payload

    HANDLERS = {Tabled: handle}


class Right:
    def handle(self, payload, source):
        return source

    HANDLERS = {Bound: handle}

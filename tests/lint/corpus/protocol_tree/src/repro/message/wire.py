"""Corpus: wire message classes; no arm or table key names Orphan.

Never imported; scanned by tests/lint/test_corpus.py. Line numbers are
asserted — append, don't reorder.
"""


class Ping:
    pass


class Pong:
    pass


class Orphan:                            # line 16: exported, undispatched
    pass


class Tabled:                            # a key of one component's table
    pass


class Bound:                             # a key of the other component's table
    pass

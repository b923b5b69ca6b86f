"""Corpus: the stats dataclass stand-in for the drop-cause surfaces.

Counts one drop cause with a span emission (in inr.py) and one without.
Never imported; see tests/lint/test_corpus.py. Line numbers are
asserted — append, don't reorder.
"""


class InrStats:
    drops_no_route: int = 0              # emitted in inr.py; not flagged
    drops_ghost: int = 0                 # line 11: no span emission

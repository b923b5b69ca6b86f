"""Corpus: the laundering source — a pragma-sanctioned clock wrapper.

The wall-clock read below is justified in place, so ``entropy-taint``'s
report of the source itself is suppressed; the pragma does not sanction
callers, so the rule still flags every call site in other files that
inherits the taint. Never imported; scanned by
tests/lint/test_corpus.py. Line numbers are asserted — append, don't
reorder.
"""

import time


def wall_seconds():
    # line 16: sanctioned at the source, tainted for callers
    return time.time()  # lint: disable=entropy-taint -- host profiling helper; its callers are still reported

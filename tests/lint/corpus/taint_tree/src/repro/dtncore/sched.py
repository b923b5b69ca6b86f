"""Corpus: second hop — the two-hop wrapper no per-file scan can see.

This module is two calls away from ``time.time()`` (sched ->
stopwatch -> clock) with no entropy token anywhere in the file; only
call-graph reachability can connect it to the source. Never imported;
line numbers are asserted.
"""

from repro.hostutil.stopwatch import elapsed_since  # lint: disable=layering -- corpus tree sits outside the layer DAG


def overdue(start, budget):
    return elapsed_since(start) > budget  # line 13: two-hop taint

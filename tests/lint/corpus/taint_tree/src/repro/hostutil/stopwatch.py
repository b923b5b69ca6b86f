"""Corpus: first hop — launders the clock through an intermediate.

No entropy source appears in this file; ``entropy-taint`` flags the
call because its callee is a wall-clock source. Never imported; line
numbers are asserted.
"""

from repro.hostutil.clock import wall_seconds


def elapsed_since(start):
    return wall_seconds() - start        # line 12: one-hop taint

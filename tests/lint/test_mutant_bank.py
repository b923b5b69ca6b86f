"""The mutant bank: every kept rule catches a mutant of the real tree.

A rule stays in ``repro.lint`` only while it flags a hand mutant of the
shipped source that the rest of tier-1 lets through (docs/LINT.md names
each one). This test copies ``src/repro`` and ``docs/PROTOCOL.md``,
applies one mutant per rule at a distinct site — plus the two the rule
pack used to miss: a ``random.SystemRandom`` posing as a seeded RNG, and
an INR control message whose dispatch key is deleted — lints the copy
once, and asserts that each mutated site is flagged by exactly its rule
and that nothing else is flagged.
"""

import shutil
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

from repro.lint import Engine

REPO = Path(__file__).resolve().parents[2]

FUTURE = "from __future__ import annotations\n"
MEMBERSHIP = "src/repro/resolver/membership.py"
PROTOCOL = "src/repro/resolver/protocol.py"
INR = "src/repro/resolver/inr.py"


class Mutant(NamedTuple):
    rule: str
    #: ``(path, old, new)``; ``old`` occurs exactly once when applied.
    edits: Tuple[Tuple[str, str, str], ...]
    #: ``(path, text)``: every line holding ``text`` is flagged by ``rule``.
    flagged: Tuple[Tuple[str, str], ...]


BANK = (
    # INR-ping RTT read off the wall clock, two calls below the DSR-list
    # handler: the source and every call reaching it are reported.
    Mutant(
        "entropy-taint",
        (
            (MEMBERSHIP, FUTURE, FUTURE + "import time\n"),
            (MEMBERSHIP, "(address, inr.now, purpose)",
             "(address, time.time(), purpose)"),
        ),
        (
            (MEMBERSHIP, "(address, time.time(), purpose)"),
            (MEMBERSHIP, 'self._ping(address, purpose="join")'),
            (MEMBERSHIP, "self._relax_with_list(response)"),
            (MEMBERSHIP, 'self._ping(parent.address, purpose="parent-refresh")'),
            (MEMBERSHIP, 'self._ping(probe, purpose="relax")'),
        ),
    ),
    # The same read inside a handler only a dispatch table reaches: no
    # call site names it, so only the report of the source itself can
    # see it. This is the row that keeps the per-file half of the rule.
    Mutant(
        "entropy-taint",
        (
            (MEMBERSHIP, FUTURE, FUTURE + "from time import time as wall_clock\n"),
            (MEMBERSHIP, "rtt = self.inr.now - sent_at",
             "rtt = wall_clock() - sent_at"),
        ),
        ((MEMBERSHIP, "rtt = wall_clock() - sent_at"),),
    ),
    # The relaxation probe drawn from the interpreter-global RNG.
    Mutant(
        "entropy-taint",
        (
            (MEMBERSHIP, FUTURE, FUTURE + "import random\n"),
            (MEMBERSHIP, "self.inr.sim.rng.choice(candidates)",
             "random.choice(candidates)"),
        ),
        (
            (MEMBERSHIP, "random.choice(candidates)"),
            (MEMBERSHIP, "self._relax_with_list(response)"),
        ),
    ),
    # Request ids from a SystemRandom "seeded" with 7: it ignores the seed.
    Mutant(
        "entropy-taint",
        (
            (PROTOCOL, "import itertools\n", "import itertools\nimport random\n"),
            (PROTOCOL, "return next(_REQUEST_IDS)",
             "return random.SystemRandom(7).getrandbits(31)"),
        ),
        ((PROTOCOL, "random.SystemRandom(7)"),),
    ),
    # Multicast copies sent in hash order.
    Mutant(
        "no-unsorted-iteration",
        (("src/repro/resolver/dataplane.py", "for next_hop in sorted(next_hops):",
          "for next_hop in next_hops:"),),
        (("src/repro/resolver/dataplane.py", "for next_hop in next_hops:"),),
    ),
    # A DSR message exported from repro.message that nothing handles.
    Mutant(
        "protocol-exhaustive",
        (
            ("src/repro/message/dsr.py", "\n__all__ = [",
             '\nclass DsrGhost:\n    """Sent, never handled."""\n\n\n__all__ = ['),
            ("src/repro/message/__init__.py", "    DsrClaimCandidate,\n",
             "    DsrClaimCandidate,\n    DsrGhost,\n"),
            ("src/repro/message/__init__.py", '    "DsrClaimCandidate",\n',
             '    "DsrClaimCandidate",\n    "DsrGhost",\n'),
        ),
        (("src/repro/message/dsr.py", "class DsrGhost:"),),
    ),
    # An INR control message whose key left its component's table.
    Mutant(
        "protocol-exhaustive",
        ((MEMBERSHIP, "        PeerGoodbye: (_handle_peer_goodbye, cost_receive),\n",
          ""),),
        ((PROTOCOL, "class PeerGoodbye:"),),
    ),
    # A drop counter with neither a drop:<cause> span nor a doc entry.
    Mutant(
        "protocol-exhaustive",
        (("src/repro/resolver/stats.py", "    drops_hop_limit: int = 0\n",
          "    drops_hop_limit: int = 0\n    drops_ghost: int = 0\n"),),
        (("src/repro/resolver/stats.py", "drops_ghost: int = 0"),),
    ),
    # The name-tree importing the resolver above it.
    Mutant(
        "layering",
        (("src/repro/nametree/nodes.py", "from typing import Dict, Optional\n",
          "from typing import Dict, Optional\n\n"
          "from ..resolver.protocol import NameUpdate\n"),),
        (("src/repro/nametree/nodes.py", "from ..resolver.protocol import"),),
    ),
    # A handler fault swallowed at the INR's dispatch.
    Mutant(
        "no-silent-except",
        ((INR, "            entry[0](payload, source)\n",
          "            try:\n                entry[0](payload, source)\n"
          "            except Exception:\n                pass\n"),),
        ((INR, "except Exception:"),),
    ),
    # An INR method writing a dict every INR of every run shares.
    Mutant(
        "node-isolation",
        (
            (INR, "TIMER_JITTER = 0.05\n",
             "TIMER_JITTER = 0.05\n\n_LAST_HEARD: Dict[str, float] = {}\n"),
            (INR, "        self.neighbors.heard_from(source, self.now)\n",
             "        self.neighbors.heard_from(source, self.now)\n"
             "        _LAST_HEARD[source] = self.now\n"),
        ),
        ((INR, "_LAST_HEARD[source] = self.now"),),
    ),
)


def _lines_holding(text: str, needle: str):
    lines = [n for n, line in enumerate(text.splitlines(), 1) if needle in line]
    assert lines, f"{needle!r} is on no line"
    return lines


@pytest.fixture(scope="module")
def bank(tmp_path_factory):
    root = tmp_path_factory.mktemp("bank")
    shutil.copytree(
        REPO / "src" / "repro", root / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    (root / "docs").mkdir()
    shutil.copy(REPO / "docs" / "PROTOCOL.md", root / "docs" / "PROTOCOL.md")
    for mutant in BANK:
        for rel, old, new in mutant.edits:
            path = root / rel
            text = path.read_text()
            assert text.count(old) == 1, (rel, old)
            path.write_text(text.replace(old, new))
    expected = set()
    for mutant in BANK:
        for rel, needle in mutant.flagged:
            for line in _lines_holding((root / rel).read_text(), needle):
                expected.add((mutant.rule, rel, line))
    return Engine(root=root).run([root / "src"]), expected


def test_each_mutant_is_flagged_by_its_rule_and_nothing_else(bank):
    result, expected = bank
    assert {(f.rule, f.path, f.line) for f in result.findings} == expected
    assert result.suppressed == []


def test_every_kept_rule_has_a_mutant():
    from repro.lint import REGISTRY

    assert {mutant.rule for mutant in BANK} == set(REGISTRY)


def test_drop_counter_mutant_misses_both_span_and_doc(bank):
    result, _ = bank
    messages = [f.message for f in result.findings if "drops_ghost" in f.message]
    assert len(messages) == 2
    assert any("'drop:ghost'" in m for m in messages)
    assert any("docs/PROTOCOL.md" in m for m in messages)

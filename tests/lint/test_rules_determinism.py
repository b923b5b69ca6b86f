"""Per-rule unit tests for the determinism rules.

Each rule has at least one failing and one passing case (several
migrated from the original ``tests/test_determinism_lint.py``
meta-tests, which this suite supersedes). Ambient-entropy sources are
reported by the project rule ``entropy-taint``, so those cases lint a
one-module tree rather than a string.
"""

import pytest

from repro.lint import Engine


@pytest.fixture
def entropy_rule_ids(tmp_path):
    """Rule ids ``entropy-taint`` reports on one module, linted as a tree."""

    def _scan(source):
        path = tmp_path / "mod.py"
        path.write_text(source)
        engine = Engine(root=tmp_path, select=["entropy-taint"])
        return [f.rule for f in engine.run([path]).findings]

    return _scan


class TestAmbientEntropy:
    RULE = "entropy-taint"

    def test_global_random_flagged(self, entropy_rule_ids):
        assert self.RULE in entropy_rule_ids(
            "import random\nx = random.randint(0, 5)\n"
        )

    def test_seeded_random_allowed(self, entropy_rule_ids):
        assert self.RULE not in entropy_rule_ids(
            "import random\nrng = random.Random(7)\nx = rng.random()\n"
        )

    def test_system_random_is_os_entropy_not_a_seeded_rng(self, entropy_rule_ids):
        # SystemRandom accepts a seed and ignores it: SystemRandom(7)
        # never repeats, so it is as ambient as os.urandom.
        assert self.RULE in entropy_rule_ids(
            "import random\nrng = random.SystemRandom(7)\nx = rng.random()\n"
        )
        assert self.RULE in entropy_rule_ids(
            "from random import SystemRandom\nx = SystemRandom().random()\n"
        )
        assert self.RULE in entropy_rule_ids("import os\nb = os.getrandom(8)\n")

    def test_wall_clock_flagged(self, entropy_rule_ids):
        assert self.RULE in entropy_rule_ids("import time\nt = time.time()\n")
        assert self.RULE in entropy_rule_ids("import time\nt = time.time_ns()\n")

    def test_perf_counter_allowed(self, entropy_rule_ids):
        assert self.RULE not in entropy_rule_ids(
            "import time\nt = time.perf_counter()\n"
        )

    def test_from_import_flagged(self, entropy_rule_ids):
        assert self.RULE in entropy_rule_ids(
            "from random import randint\nx = randint(0, 5)\n"
        )
        assert self.RULE in entropy_rule_ids("from time import time\nt = time()\n")

    def test_aliased_module_flagged(self, entropy_rule_ids):
        assert self.RULE in entropy_rule_ids(
            "import random as rnd\nx = rnd.choice([1, 2])\n"
        )
        assert self.RULE in entropy_rule_ids(
            "from time import time as walltime\nt = walltime()\n"
        )

    def test_datetime_now_flagged(self, entropy_rule_ids):
        assert self.RULE in entropy_rule_ids(
            "from datetime import datetime\nt = datetime.now()\n"
        )
        assert self.RULE in entropy_rule_ids(
            "import datetime\nt = datetime.datetime.utcnow()\n"
        )

    def test_os_entropy_flagged(self, entropy_rule_ids):
        assert self.RULE in entropy_rule_ids("import os\nb = os.urandom(8)\n")
        assert self.RULE in entropy_rule_ids("import uuid\ni = uuid.uuid4()\n")
        assert self.RULE in entropy_rule_ids(
            "import secrets\nt = secrets.token_hex(4)\n"
        )

    def test_uuid5_is_deterministic_and_allowed(self, entropy_rule_ids):
        assert self.RULE not in entropy_rule_ids(
            "import uuid\ni = uuid.uuid5(uuid.NAMESPACE_DNS, 'x')\n"
        )


class TestUnsortedIteration:
    RULE = "no-unsorted-iteration"

    def test_for_over_set_literal_flagged(self, rule_ids):
        assert self.RULE in rule_ids(
            "for x in {1, 2, 3}:\n    print(x)\n"
        )

    def test_for_over_set_variable_flagged(self, rule_ids):
        assert self.RULE in rule_ids(
            "hosts = set()\nfor h in hosts:\n    print(h)\n"
        )

    def test_for_over_sorted_allowed(self, rule_ids):
        assert self.RULE not in rule_ids(
            "hosts = set()\nfor h in sorted(hosts):\n    print(h)\n"
        )

    def test_annotated_parameter_flagged(self, rule_ids):
        assert self.RULE in rule_ids(
            "from typing import Set\n"
            "def emit(pending: Set[str]):\n"
            "    for p in pending:\n"
            "        print(p)\n"
        )

    def test_annotated_attribute_flagged(self, rule_ids):
        assert self.RULE in rule_ids(
            "from typing import Set\n"
            "class Node:\n"
            "    def __init__(self):\n"
            "        self.records: Set[str] = set()\n"
            "    def walk(self):\n"
            "        return [r for r in self.records]\n"
        )

    def test_set_algebra_flagged(self, rule_ids):
        assert self.RULE in rule_ids(
            "a = set()\nb = a | {1}\nfor x in b:\n    print(x)\n"
        )

    def test_list_conversion_flagged(self, rule_ids):
        assert self.RULE in rule_ids("items = list({1, 2})\n")
        assert self.RULE in rule_ids(
            "names = set()\nline = ','.join(names)\n"
        )

    def test_order_insensitive_folds_allowed(self, rule_ids):
        source = (
            "hosts = {1, 2}\n"
            "n = len(hosts)\n"
            "s = sum(hosts)\n"
            "m = max(hosts)\n"
            "hit = 1 in hosts\n"
            "copy = set(hosts)\n"
            "upper = {h + 1 for h in hosts}\n"
        )
        assert self.RULE not in rule_ids(source)

    def test_plain_list_iteration_allowed(self, rule_ids):
        assert self.RULE not in rule_ids(
            "items = [1, 2]\nfor x in items:\n    print(x)\n"
        )

    def test_dict_views_allowed(self, rule_ids):
        # A dict iterates in insertion order, which the seed reproduces.
        assert self.RULE not in rule_ids(
            "d = {}\nfor k in d.keys():\n    print(k)\n"
        )

"""Rule-level tests for the cross-file flow rules (entropy-taint,
node-isolation) over synthetic trees rooted at tmp_path."""

import textwrap

from repro.lint import Engine
from repro.lint.rules.flow import classify_entropy_origin


def run_tree(tmp_path, files, **engine_kwargs):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    engine_kwargs.setdefault("root", tmp_path)
    return Engine(**engine_kwargs).run([tmp_path])


def findings_of(result, rule):
    return [f for f in result.findings if f.rule == rule]


class TestClassifyEntropyOrigin:
    def test_kinds(self):
        assert classify_entropy_origin("time.time") == "wall-clock"
        assert classify_entropy_origin("random.random") == "ambient-rng"
        assert classify_entropy_origin("random.uniform") == "ambient-rng"
        assert classify_entropy_origin("os.urandom") == "os-entropy"
        assert classify_entropy_origin("uuid.uuid4") == "os-entropy"
        assert classify_entropy_origin("secrets.token_hex") == "os-entropy"
        assert classify_entropy_origin("os.getrandom") == "os-entropy"
        # Takes a seed and ignores it: not a seeded RNG.
        assert classify_entropy_origin("random.SystemRandom") == "os-entropy"

    def test_clean_origins(self):
        assert classify_entropy_origin("random.Random") is None
        assert classify_entropy_origin("time.perf_counter") is None
        assert classify_entropy_origin("math.sqrt") is None


RNG_TREE = {
    "src/repro/util.py": """
        import random


        def jitter():
            return random.random()
    """,
    "src/repro/proto.py": """
        from repro.util import jitter


        def backoff(base):
            return base + jitter()
    """,
}


class TestEntropyTaint:
    def test_rng_taint_crosses_files_with_remedy(self, tmp_path):
        result = run_tree(tmp_path, RNG_TREE, select=["entropy-taint"])
        finding, source = findings_of(result, "entropy-taint")  # path order
        assert (source.path, source.line) == ("src/repro/util.py", 6)
        assert "random.random() uses the interpreter-global RNG" in source.message
        assert finding.path == "src/repro/proto.py"
        assert "ambient-rng" in finding.message
        assert "jitter -> random.random()" in finding.message
        assert "seeded random.Random" in finding.message

    def test_os_entropy_taint(self, tmp_path):
        result = run_tree(tmp_path, {
            "src/repro/ids.py": """
                import uuid


                def fresh_id():
                    return uuid.uuid4()
            """,
            "src/repro/record.py": """
                from repro.ids import fresh_id


                def record():
                    return {"id": fresh_id()}
            """,
        }, select=["entropy-taint"])
        source, finding = findings_of(result, "entropy-taint")
        assert source.path == "src/repro/ids.py"
        assert finding.path == "src/repro/record.py"
        assert "os-entropy" in finding.message

    def test_pragma_at_call_site_suppresses(self, tmp_path):
        files = dict(RNG_TREE)
        files["src/repro/proto.py"] = """
            from repro.util import jitter


            def backoff(base):
                return base + jitter()  # lint: disable=entropy-taint -- seeded upstream
        """
        result = run_tree(tmp_path, files, select=["entropy-taint"])
        # The caller is sanctioned; the source in util.py still reports.
        assert [f.path for f in findings_of(result, "entropy-taint")] == [
            "src/repro/util.py"
        ]
        assert len(result.suppressed) == 1

    def test_long_chain_is_truncated_in_message(self, tmp_path):
        files = {
            "src/repro/h0.py": """
                import time


                def hop0():
                    return time.time()
            """,
        }
        for i in range(1, 8):
            files[f"src/repro/h{i}.py"] = f"""
                from repro.h{i - 1} import hop{i - 1}


                def hop{i}():
                    return hop{i - 1}()
            """
        result = run_tree(tmp_path, files, select=["entropy-taint"])
        deepest = [
            f for f in findings_of(result, "entropy-taint")
            if f.path == "src/repro/h7.py"
        ]
        assert len(deepest) == 1
        assert "..." in deepest[0].message


ISOLATION_BASE = {
    "src/repro/netsim/__init__.py": "",
    "src/repro/netsim/process.py": """
        class Process:
            def __init__(self, node):
                self.node = node
                self.table = {}

            def send(self, address, port, payload):
                pass
    """,
}


class TestNodeIsolation:
    def test_foreign_write_and_global_forms(self, tmp_path):
        files = dict(ISOLATION_BASE)
        files["src/repro/sim/actor.py"] = """
            from repro.netsim.process import Process

            PEERS = {}


            def helper():
                global _COUNT
                _COUNT = 0


            class Actor(Process):
                def meddle(self, other: Process, value):
                    other.table["k"] = value
                    PEERS[self.node] = other

                def rebind(self):
                    global PEERS
                    PEERS = {}
        """
        result = run_tree(tmp_path, files, select=["node-isolation"])
        flagged = {
            (f.line, f.message.split(";")[0])
            for f in findings_of(result, "node-isolation")
        }
        lines = sorted(line for line, _ in flagged)
        assert lines == [14, 15, 19]
        messages = dict(sorted(flagged))
        assert "another node's process reference" in messages[14]
        assert "'PEERS'" in messages[15]
        assert "rebinds module-level 'PEERS'" in messages[19]

    def test_module_function_and_reads_are_exempt(self, tmp_path):
        # helper() above is not a node method; reads never flag.
        files = dict(ISOLATION_BASE)
        files["src/repro/sim/reader.py"] = """
            from repro.netsim.process import Process

            TABLE = {}


            def module_level():
                TABLE["x"] = 1


            class Reader(Process):
                def peek(self, other: Process):
                    return other.table, len(TABLE)

                def own(self, value):
                    self.table["x"] = value
        """
        result = run_tree(tmp_path, files, select=["node-isolation"])
        assert findings_of(result, "node-isolation") == []

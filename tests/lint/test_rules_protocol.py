"""Rule-level tests for protocol-exhaustive over synthetic trees.

The fixtures reuse the rule's default qnames (``repro.message``,
``repro.resolver.inr.INR.handle_message``, ``repro.resolver.stats.
InrStats``) so no option overrides are needed — mirroring how the rule
runs against the real tree.
"""

import shutil
import textwrap
from pathlib import Path

from repro.lint import Engine

PROTOCOL_TREE = Path(__file__).resolve().parent / "corpus" / "protocol_tree"


def run_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return Engine(root=tmp_path, select=["protocol-exhaustive"]).run(
        [tmp_path]
    )


def findings(result):
    return [f for f in result.findings if f.rule == "protocol-exhaustive"]


WIRE = {
    "src/repro/message/__init__.py": """
        from .wire import Handled, Header, Orphan

        __all__ = ["Handled", "Header", "Orphan"]
    """,
    "src/repro/message/wire.py": """
        class Handled:
            pass


        class Header:
            pass


        class Orphan:
            pass
    """,
}

DISPATCH = {
    "src/repro/resolver/inr.py": """
        from repro.message import Handled

        DROP_PREFIX = "drop:"


        class INR:
            def handle_message(self, payload, sender):
                if isinstance(payload, Handled):
                    return payload
                self._drop("no-route")

            def _drop(self, cause):
                return DROP_PREFIX + cause
    """,
    "src/repro/resolver/stats.py": """
        class InrStats:
            drops_no_route: int = 0
    """,
}


class TestDispatchSurface:
    def test_undispatched_export_flagged_at_class_def(self, tmp_path):
        result = run_tree(tmp_path, {**WIRE, **DISPATCH})
        flagged = findings(result)
        assert [(f.path, f.line) for f in flagged] == [
            ("src/repro/message/wire.py", 10)
        ]
        assert "Orphan" in flagged[0].message
        assert "no dispatch arm" in flagged[0].message
        # Handled is dispatched; Header is non_payload wire format.
        assert all("Handled" not in f.message for f in flagged)

    def test_tuple_isinstance_and_helper_reachability(self, tmp_path):
        files = dict(WIRE)
        files["src/repro/resolver/inr.py"] = """
            from repro.message import Handled, Orphan


            class INR:
                def handle_message(self, payload, sender):
                    return self._late(payload)

                def _late(self, payload):
                    if isinstance(payload, (Handled, Orphan)):
                        return payload
        """
        assert findings(run_tree(tmp_path, files)) == []

    def test_unreachable_arm_does_not_count(self, tmp_path):
        files = dict(WIRE)
        files["src/repro/resolver/inr.py"] = """
            from repro.message import Handled, Orphan


            class INR:
                def handle_message(self, payload, sender):
                    if isinstance(payload, Handled):
                        return payload

                def never_called(self, payload):
                    if isinstance(payload, Orphan):
                        return payload
        """
        flagged = findings(run_tree(tmp_path, files))
        assert [f.line for f in flagged] == [10]
        assert "Orphan" in flagged[0].message

    def test_dispatch_table_keys_count_as_arms(self, tmp_path):
        files = dict(WIRE)
        files["src/repro/resolver/inr.py"] = """
            from repro.message import Handled, Orphan


            class INR:
                def handle_message(self, payload, sender):
                    entry = self._DISPATCH.get(type(payload))
                    if entry is not None:
                        entry[0](self, payload, sender)

                def _on_handled(self, payload, sender):
                    return payload

                _DISPATCH = {
                    Handled: (_on_handled, None),
                    Orphan: (_on_handled, None),
                }
        """
        assert findings(run_tree(tmp_path, files)) == []

    def test_export_missing_from_the_table_is_flagged(self, tmp_path):
        files = dict(WIRE)
        files["src/repro/resolver/inr.py"] = """
            from typing import Dict

            from repro.message import Handled


            class INR:
                def handle_message(self, payload, sender):
                    return self._dispatch(payload, sender)

                def _dispatch(self, payload, sender):
                    self._TABLE[type(payload)](self, payload, sender)

                def _on_handled(self, payload, sender):
                    return payload

                _TABLE: Dict[type, object] = {Handled: _on_handled}
        """
        flagged = findings(run_tree(tmp_path, files))
        assert [(f.path, f.line) for f in flagged] == [
            ("src/repro/message/wire.py", 10)
        ]
        assert "Orphan" in flagged[0].message

    def test_table_nothing_reachable_reads_does_not_count(self, tmp_path):
        files = dict(WIRE)
        files["src/repro/resolver/inr.py"] = """
            from repro.message import Handled, Orphan


            class INR:
                def handle_message(self, payload, sender):
                    if isinstance(payload, Handled):
                        return payload

                def never_called(self, payload):
                    return self._UNUSED[type(payload)]

                _UNUSED = {Orphan: None}
        """
        flagged = findings(run_tree(tmp_path, files))
        assert [f.line for f in flagged] == [10]
        assert "Orphan" in flagged[0].message

    def test_assembled_table_has_the_union_of_its_components_keys(self, tmp_path):
        """The corpus tree mirrors the INR: ``_TABLE`` is merged from two
        components' ``HANDLERS`` literals and read through a per-instance
        copy; only Orphan (no arm anywhere) is flagged."""
        tree = shutil.copytree(PROTOCOL_TREE, tmp_path / "tree")
        result = Engine(root=tree, select=["protocol-exhaustive"]).run([tree])
        assert [
            f.message.split()[2] for f in findings(result)
            if "no dispatch arm" in f.message
        ] == ["Orphan"]

    def test_deleting_a_key_from_one_components_table_is_flagged(self, tmp_path):
        tree = shutil.copytree(PROTOCOL_TREE, tmp_path / "tree")
        parts = tree / "src" / "repro" / "resolver" / "parts.py"
        source = parts.read_text()
        assert "HANDLERS = {Bound: handle}" in source
        parts.write_text(source.replace("HANDLERS = {Bound: handle}", "HANDLERS = {}"))
        result = Engine(root=tree, select=["protocol-exhaustive"]).run([tree])
        unarmed = [f for f in findings(result) if "no dispatch arm" in f.message]
        assert sorted(f.message.split()[2] for f in unarmed) == ["Bound", "Orphan"]
        assert {f.path for f in unarmed} == {"src/repro/message/wire.py"}

    def test_assembled_table_nothing_reachable_reads_does_not_count(self, tmp_path):
        files = dict(WIRE)
        files["src/repro/resolver/inr.py"] = """
            from repro.message import Handled

            from .parts import Part


            class INR:
                _TABLE = dict(Part.HANDLERS)

                def __init__(self):
                    self._bound = dict(self._TABLE)

                def handle_message(self, payload, sender):
                    if isinstance(payload, Handled):
                        return payload
        """
        files["src/repro/resolver/parts.py"] = """
            from repro.message import Orphan


            class Part:
                HANDLERS = {Orphan: None}
        """
        flagged = findings(run_tree(tmp_path, files))
        assert [f.line for f in flagged] == [10]
        assert "Orphan" in flagged[0].message

    def test_inr_control_messages_are_checked_too(self, tmp_path):
        """``repro.resolver.protocol`` exports the INR's own control
        messages; each needs an arm like a wire message does. The
        client's handler is a dispatch entry (replies land there), and a
        record carried inside a batch is not a payload."""
        files = {
            "src/repro/resolver/protocol.py": """
                class Goodbye:
                    pass


                class NameUpdate:
                    pass


                class Reply:
                    pass


                __all__ = ["Goodbye", "NameUpdate", "Reply"]
            """,
            "src/repro/resolver/inr.py": """
                class INR:
                    def handle_message(self, payload, sender):
                        return self._TABLE.get(type(payload))

                    _TABLE = {}
            """,
            "src/repro/client/api.py": """
                from repro.resolver.protocol import Reply


                class InsClient:
                    def handle_message(self, payload, source):
                        if isinstance(payload, Reply):
                            return payload
            """,
        }
        flagged = findings(run_tree(tmp_path, files))
        assert [(f.path, f.line) for f in flagged] == [
            ("src/repro/resolver/protocol.py", 2)
        ]
        assert "Goodbye is exported from repro.resolver.protocol" in flagged[0].message

    def test_silent_without_message_package_or_dispatcher(self, tmp_path):
        # Only the dispatcher: no export surface to check.
        assert findings(run_tree(tmp_path / "a", dict(DISPATCH))) == []
        # Only the messages: no dispatcher in scope — stay quiet
        # rather than flagging every export of a half-scanned tree.
        assert findings(run_tree(tmp_path / "b", dict(WIRE))) == []


class TestDropSurface:
    def test_counter_without_emission_flagged(self, tmp_path):
        files = dict(WIRE)
        files["src/repro/resolver/inr.py"] = """
            from repro.message import Handled, Orphan

            DROP_PREFIX = "drop:"


            class INR:
                def handle_message(self, payload, sender):
                    if isinstance(payload, (Handled, Orphan)):
                        return payload
                    return DROP_PREFIX + "no-route"
        """
        files["src/repro/resolver/stats.py"] = """
            class InrStats:
                drops_no_route: int = 0
                drops_ghost: int = 0
        """
        flagged = findings(run_tree(tmp_path, files))
        assert [(f.path, f.line) for f in flagged] == [
            ("src/repro/resolver/stats.py", 4)
        ]
        assert "drops_ghost" in flagged[0].message
        assert "'drop:ghost'" in flagged[0].message

    def test_literal_status_in_another_module_counts(self, tmp_path):
        files = dict(WIRE)
        files["src/repro/resolver/inr.py"] = """
            from repro.message import Handled, Orphan


            class INR:
                def handle_message(self, payload, sender):
                    if isinstance(payload, (Handled, Orphan)):
                        return payload
        """
        files["src/repro/resolver/stats.py"] = """
            class InrStats:
                drops_ghost: int = 0
        """
        files["src/repro/obs_helper.py"] = """
            def status():
                return "drop:ghost"
        """
        assert findings(run_tree(tmp_path, files)) == []

    def test_doc_surface_flags_only_unmentioned_causes(self, tmp_path):
        files = dict(WIRE)
        files["src/repro/resolver/inr.py"] = """
            from repro.message import Handled, Orphan

            DROP_PREFIX = "drop:"


            class INR:
                def handle_message(self, payload, sender):
                    if isinstance(payload, (Handled, Orphan)):
                        return payload
                    return DROP_PREFIX + "no-route", DROP_PREFIX + "ghost"
        """
        files["src/repro/resolver/stats.py"] = """
            class InrStats:
                drops_no_route: int = 0
                drops_ghost: int = 0
        """
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "PROTOCOL.md").write_text(
            "Packets die with `drop:no-route` when no route exists.\n"
        )
        flagged = findings(run_tree(tmp_path, files))
        assert [(f.path, f.line) for f in flagged] == [
            ("src/repro/resolver/stats.py", 4)
        ]
        assert "docs/PROTOCOL.md" in flagged[0].message
        assert "'ghost'" in flagged[0].message

    def test_absent_doc_skips_the_doc_surface(self, tmp_path):
        # Same tree as above but no docs/PROTOCOL.md: the span surface
        # is satisfied, so nothing at all is flagged.
        files = dict(WIRE)
        files["src/repro/resolver/inr.py"] = """
            from repro.message import Handled, Orphan

            DROP_PREFIX = "drop:"


            class INR:
                def handle_message(self, payload, sender):
                    if isinstance(payload, (Handled, Orphan)):
                        return payload
                    return DROP_PREFIX + "ghost"
        """
        files["src/repro/resolver/stats.py"] = """
            class InrStats:
                drops_ghost: int = 0
        """
        assert findings(run_tree(tmp_path, files)) == []

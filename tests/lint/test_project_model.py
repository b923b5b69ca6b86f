"""Unit tests for the pass-2 whole-program model (repro.lint.project)."""

import textwrap

from repro.lint import FileContext
from repro.lint.project import ProjectModel


def build_model(tmp_path, files):
    contexts = []
    for rel, source in sorted(files.items()):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        contexts.append(FileContext(path, path.read_text(), root=tmp_path))
    return ProjectModel(contexts, root=tmp_path)


class TestModuleIndex:
    def test_repro_modules_and_pseudo_modules(self, tmp_path):
        model = build_model(tmp_path, {
            "src/repro/naming/tree.py": "def lookup():\n    pass\n",
            "src/repro/naming/__init__.py": "",
            "tests/test_x.py": "def test_x():\n    pass\n",
        })
        assert "repro.naming.tree" in model.modules
        assert "repro.naming" in model.modules
        assert "tests.test_x" in model.modules
        assert "repro.naming.tree.lookup" in model.functions

    def test_exports_and_mutable_vars(self, tmp_path):
        model = build_model(tmp_path, {
            "src/repro/pkg/__init__.py": """
                __all__ = ["a", "b"]
                REGISTRY = {}
                LIMIT = 3
            """,
        })
        info = model.modules["repro.pkg"]
        assert [name for name, _ in info.exports] == ["a", "b"]
        assert info.mutable_vars == {"REGISTRY"}
        assert "LIMIT" in info.variables


class TestResolution:
    def test_reexport_chased_through_package_init(self, tmp_path):
        model = build_model(tmp_path, {
            "src/repro/pkg/__init__.py":
                "from .impl import Thing\n__all__ = [\"Thing\"]\n",
            "src/repro/pkg/impl.py": "class Thing:\n    pass\n",
            "src/repro/user.py":
                "from repro.pkg import Thing\n"
                "def make():\n    return Thing()\n",
        })
        assert model.resolve_local("repro.pkg", "Thing") == (
            "class", "repro.pkg.impl.Thing"
        )
        assert model.resolve_local("repro.user", "Thing") == (
            "class", "repro.pkg.impl.Thing"
        )

    def test_relative_import_absolutized(self, tmp_path):
        model = build_model(tmp_path, {
            "src/repro/layer/a.py": "def helper():\n    pass\n",
            "src/repro/layer/b.py":
                "from .a import helper\n"
                "def use():\n    return helper()\n",
        })
        fn = model.functions["repro.layer.b.use"]
        assert [callee for callee, _ in fn.project_calls] == [
            "repro.layer.a.helper"
        ]

    def test_external_symbol_resolves_external(self, tmp_path):
        model = build_model(tmp_path, {
            "src/repro/m.py":
                "import time\n"
                "def stamp():\n    return time.time()\n",
        })
        fn = model.functions["repro.m.stamp"]
        assert [origin for origin, _ in fn.external_calls] == ["time.time"]


class TestCallGraph:
    WIRED = {
        "src/repro/core.py": """
            class Engine:
                def __init__(self):
                    self.pump = Pump()

                def run(self):
                    self.step()
                    self.pump.push()

                def step(self):
                    pass


            class Pump:
                def push(self):
                    pass
        """,
        "src/repro/drive.py": """
            from repro.core import Engine


            def drive(engine: Engine):
                engine.run()
        """,
    }

    def test_self_and_component_calls_resolve(self, tmp_path):
        model = build_model(tmp_path, self.WIRED)
        run = model.functions["repro.core.Engine.run"]
        callees = {callee for callee, _ in run.project_calls}
        assert callees == {
            "repro.core.Engine.step", "repro.core.Pump.push"
        }

    def test_annotated_param_method_resolves(self, tmp_path):
        model = build_model(tmp_path, self.WIRED)
        drive = model.functions["repro.drive.drive"]
        assert [c for c, _ in drive.project_calls] == [
            "repro.core.Engine.run"
        ]

    def test_reachable_from_walks_the_graph(self, tmp_path):
        model = build_model(tmp_path, self.WIRED)
        reached = model.reachable_from(["repro.drive.drive"])
        assert "repro.core.Engine.run" in reached
        assert "repro.core.Engine.step" in reached
        assert "repro.core.Pump.push" in reached


class TestHierarchy:
    def test_subclasses_of_transitive(self, tmp_path):
        model = build_model(tmp_path, {
            "src/repro/base.py": "class Root:\n    pass\n",
            "src/repro/mid.py":
                "from repro.base import Root\n"
                "class Mid(Root):\n    pass\n",
            "src/repro/leaf.py":
                "from repro.mid import Mid\n"
                "class Leaf(Mid):\n    pass\n"
                "class Other:\n    pass\n",
        })
        subs = model.subclasses_of(["repro.base.Root"])
        assert subs == {
            "repro.base.Root", "repro.mid.Mid", "repro.leaf.Leaf"
        }

    def test_lookup_method_walks_bases(self, tmp_path):
        model = build_model(tmp_path, {
            "src/repro/base.py":
                "class Root:\n    def ping(self):\n        pass\n",
            "src/repro/leaf.py":
                "from repro.base import Root\n"
                "class Leaf(Root):\n    pass\n",
        })
        assert model.lookup_method("repro.leaf.Leaf", "ping") == \
            "repro.base.Root.ping"


def test_source_line_round_trip(tmp_path):
    model = build_model(tmp_path, {
        "src/repro/m.py": "FIRST = 1\nSECOND = 2\n",
    })
    assert model.source_line("src/repro/m.py", 2) == "SECOND = 2"
    assert model.source_line("missing.py", 1) == ""


def test_cycle_in_reexports_terminates(tmp_path):
    model = build_model(tmp_path, {
        "src/repro/a.py": "from repro.b import thing\n",
        "src/repro/b.py": "from repro.a import thing\n",
    })
    assert model.resolve_local("repro.a", "thing") is None

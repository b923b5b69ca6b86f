"""Tests for the visualization tooling."""

from repro.experiments import InsDomain
from repro.nametree import NameTree
from repro.tools import (
    domain_report,
    render_name_tree,
    render_overlay,
    resolver_report,
)

from ..conftest import OVAL_OFFICE_CAMERA, make_record, parse


class TestNameTreeRendering:
    def test_empty_tree(self):
        text = render_name_tree(NameTree(vspace="cams"))
        assert "vspace='cams'" in text
        assert "records=0" in text

    def test_alternating_layers_shown(self):
        tree = NameTree()
        tree.insert(parse("[service=camera[entity=transmitter]]"), make_record())
        text = render_name_tree(tree)
        assert "service:" in text
        assert "= camera" in text
        assert "entity:" in text
        assert "= transmitter  (1 record)" in text

    def test_figure_4_style_tree(self):
        tree = NameTree()
        tree.insert(parse(OVAL_OFFICE_CAMERA), make_record("a"))
        tree.insert(parse("[city=rome][service=camera[data-type=movie]]"),
                    make_record("b"))
        text = render_name_tree(tree)
        assert "= washington" in text
        assert "= rome" in text
        assert text.index("city:") < text.index("= rome")

    def test_rendering_is_deterministic(self):
        def build():
            tree = NameTree()
            tree.insert(parse("[b=2]"), make_record("x"))
            tree.insert(parse("[a=1]"), make_record("y"))
            return render_name_tree(tree)

        assert build() == build()

    def test_depth_limit(self):
        tree = NameTree()
        tree.insert(parse("[a=1[b=2[c=3[d=4]]]]"), make_record())
        text = render_name_tree(tree, max_depth=1)
        assert "..." in text


class TestOverlayRendering:
    def test_tree_shape_shown(self):
        domain = InsDomain(seed=300)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        text = render_overlay(domain)
        assert "2 INRs" in text
        assert "inr-a" in text
        assert "inr-b" in text
        # the child is indented under its parent
        assert text.index("inr-a") < text.index("inr-b")

    def test_terminated_inrs_omitted(self):
        domain = InsDomain(seed=301)
        a = domain.add_inr(address="inr-a")
        b = domain.add_inr(address="inr-b")
        b.terminate()
        domain.run(1.0)
        assert "inr-b" not in render_overlay(domain)


class TestReports:
    def test_resolver_report_fields(self):
        domain = InsDomain(seed=302)
        inr = domain.add_inr(address="inr-a")
        domain.add_service("[service=x[id=1]]", resolver=inr)
        domain.run(1.0)
        text = resolver_report(inr)
        assert "INR inr-a (active)" in text
        assert "names: 1" in text
        assert "cache:" in text

    def test_domain_report_includes_everything(self):
        domain = InsDomain(seed=303)
        domain.add_inr(address="inr-a")
        domain.add_inr(address="inr-b")
        text = domain_report(domain)
        assert "2 active INRs" in text
        assert "INR inr-a" in text
        assert "INR inr-b" in text

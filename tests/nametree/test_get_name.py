"""Tests for the GET-NAME extraction algorithm (Figure 6).

``get_name`` normally answers with the grafted name-specifier it kept;
these tests are about the Figure 6 trace, so they call the oracle
(``fig6_oracle``) and check ``get_name`` against it on the way.
"""

from ..conftest import OVAL_OFFICE_CAMERA, make_record, parse
from .fig6_oracle import oracle_get_name


def extract(tree, record):
    """The literal Figure 6 reconstruction, after checking that
    ``get_name`` gives the same name in the same sibling order."""
    traced = oracle_get_name(tree, record)
    assert tree.get_name(record).to_wire() == traced.to_wire()
    return traced


class TestGetName:
    def test_single_pair_round_trip(self, tree):
        record = make_record()
        tree.insert(parse("[a=b]"), record)
        assert extract(tree, record) == parse("[a=b]")

    def test_deep_chain_round_trip(self, tree):
        record = make_record()
        name = parse("[a=b[c=d[e=f[g=h]]]]")
        tree.insert(name, record)
        assert extract(tree, record) == name

    def test_multi_branch_round_trip(self, tree):
        """Grafting joins fragments through shared ancestors."""
        record = make_record()
        name = parse("[a=b[x=1][y=2[z=3]]][c=d]")
        tree.insert(name, record)
        assert extract(tree, record) == name

    def test_figure_3_name_round_trips(self, tree):
        record = make_record()
        name = parse(OVAL_OFFICE_CAMERA)
        tree.insert(name, record)
        assert extract(tree, record) == name

    def test_extraction_from_superposed_tree(self, tree):
        """Each record's name comes back exactly, even when the tree
        superposes many names over shared nodes."""
        names = [
            "[a=b[c=d]]",
            "[a=b[c=e]]",
            "[a=b[c=d[f=g]]]",
            "[a=z]",
            "[q=r][a=b]",
        ]
        records = {}
        for index, wire in enumerate(names):
            record = make_record(host=f"h{index}")
            tree.insert(parse(wire), record)
            records[wire] = record
        for wire, record in records.items():
            assert extract(tree, record) == parse(wire), wire

    def test_names_iterates_all_pairs(self, tree):
        wires = {"[a=b]", "[c=d[e=f]]"}
        inserted = {}
        for wire in sorted(wires):
            record = make_record(host=wire)
            tree.insert(parse(wire), record)
            inserted[wire] = record
        extracted = {name.to_wire(): record for name, record in tree.names()}
        assert set(extracted) == wires
        for wire in sorted(wires):
            assert extracted[wire] is inserted[wire]

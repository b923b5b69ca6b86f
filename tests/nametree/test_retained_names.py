"""``get_name`` answers with the grafted name-specifier it retained.

The retained object is a sealed value, and indistinguishable from the
literal Figure 6 trace (``fig6_oracle``) — same structure *and*
same sibling order, since the order is what update wire bytes and
discovery ordering are made of. That it stays so over any history of
tree mutations is ``test_tree_state_machine.py``'s to show; these are
the two cases worth reading.
"""

from repro.nametree import NameRecord

from ..conftest import make_record, parse
from .fig6_oracle import oracle_get_name


def test_refresh_with_reordered_siblings_keeps_first_graft_order(tree):
    first = parse("[a=1[x=1][y=2]][b=2]")
    record = make_record("h")
    tree.insert(first, record)
    again = NameRecord(announcer=record.announcer, endpoints=list(record.endpoints))
    outcome = tree.insert(parse("[b=2][a=1[y=2][x=1]]"), again)
    assert outcome.record is record and not outcome.created
    assert tree.get_name(record) is first
    assert tree.get_name(record).to_wire() == "[a=1[x=1][y=2]][b=2]"
    assert oracle_get_name(tree, record).to_wire() == "[a=1[x=1][y=2]][b=2]"


def test_rename_retains_the_new_object_and_remove_drops_it(tree):
    record = make_record("h")
    tree.insert(parse("[a=1]"), record)
    renamed = parse("[a=2[b=3]]")
    moved = NameRecord(announcer=record.announcer, endpoints=list(record.endpoints))
    tree.insert(renamed, moved)
    assert record.advertised_name is None  # the displaced record lets go
    assert tree.get_name(moved) is renamed
    tree.remove(moved)
    assert moved.advertised_name is None

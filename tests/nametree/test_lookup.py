"""Tests for the LOOKUP-NAME algorithm (Figure 5 semantics)."""

import pytest

from repro.naming import NameSpecifier
from repro.nametree import NameTree

from ..conftest import OVAL_OFFICE_CAMERA, make_record, node_counts, parse
from .fig5_oracle import oracle_lookup


@pytest.fixture
def populated():
    """A tree with the paper's Figure 4 flavour of content."""
    tree = NameTree()
    records = {}
    advertisements = {
        "oval-camera": OVAL_OFFICE_CAMERA,
        "macy-printer": "[city=washington[building=macy[floor=1]]]"
        "[service=printer]",
        "movie-camera": "[city=rome][service=camera[data-type=movie"
        "[format=mpg]]][accessibility=private]",
        "plain-sensor": "[service=sensor]",
    }
    for label, wire in advertisements.items():
        record = make_record(host=label)
        tree.insert(parse(wire), record)
        records[label] = record
    return tree, records


def lookup_labels(tree, records, query):
    found = tree.lookup(parse(query))
    return {label for label, record in records.items() if record in found}


class TestExactMatching:
    def test_full_name_matches(self, populated):
        tree, records = populated
        assert lookup_labels(tree, records, OVAL_OFFICE_CAMERA) == {"oval-camera"}

    def test_prefix_query_matches_deeper_advertisement(self, populated):
        """Omitted query attributes are wild-cards."""
        tree, records = populated
        assert lookup_labels(tree, records, "[service=camera]") == {
            "oval-camera",
            "movie-camera",
        }

    def test_value_mismatch_excludes(self, populated):
        tree, records = populated
        assert lookup_labels(
            tree, records, "[service=camera[data-type=audio]]"
        ) == set()

    def test_unknown_attribute_in_query_is_no_constraint(self, populated):
        """Figure 5: a query attribute absent from the tree is skipped
        (every advertisement omitted it -> wild-card)."""
        tree, records = populated
        assert lookup_labels(
            tree, records, "[service=sensor][nonexistent=thing]"
        ) == {"plain-sensor"}

    def test_multiple_constraints_intersect(self, populated):
        tree, records = populated
        assert lookup_labels(
            tree, records, "[city=washington][service=camera]"
        ) == {"oval-camera"}

    def test_shorter_advertisement_matches_deeper_query(self, populated):
        """Omitted advertisement attributes are wild-cards too: the
        plain sensor (no room) satisfies any deeper constraint chain
        below its leaf."""
        tree, records = populated
        assert lookup_labels(
            tree, records, "[service=sensor[unit=celsius]]"
        ) == {"plain-sensor"}

    def test_empty_query_matches_everything(self, populated):
        tree, records = populated
        assert tree.lookup(NameSpecifier()) == set(records.values())


class TestWildcardMatching:
    def test_leaf_wildcard_unions_values(self, populated):
        tree, records = populated
        assert lookup_labels(tree, records, "[city=*]") == {
            "oval-camera",
            "macy-printer",
            "movie-camera",
        }

    def test_wildcard_constrains_attribute_presence(self, populated):
        """[city=*] does NOT match advertisements without a city."""
        tree, records = populated
        assert "plain-sensor" not in lookup_labels(tree, records, "[city=*]")

    def test_wildcard_in_nested_position(self, populated):
        tree, records = populated
        found = lookup_labels(
            tree,
            records,
            "[city=washington[building=whitehouse[wing=west[room=*]]]]",
        )
        assert found == {"oval-camera"}

    def test_pairs_below_wildcard_are_ignored(self, populated):
        """Section 2.3.2: av-pairs after a wild-card are ignored."""
        tree, records = populated
        with_garbage = lookup_labels(
            tree, records, "[service=*[data-type=never-advertised]]"
        )
        without = lookup_labels(tree, records, "[service=*]")
        assert with_garbage == without


class TestRangeMatching:
    @pytest.fixture
    def rooms(self):
        tree = NameTree()
        records = {}
        for room in ("4", "12", "20", "annex"):
            record = make_record(host=f"printer-{room}")
            tree.insert(parse(f"[service=printer[room={room}]]"), record)
            records[f"printer-{room}"] = record
        return tree, records

    def test_less_than(self, rooms):
        tree, records = rooms
        assert lookup_labels(tree, records, "[service=printer[room=<15]]") == {
            "printer-4",
            "printer-12",
        }

    def test_greater_equal(self, rooms):
        tree, records = rooms
        assert lookup_labels(tree, records, "[service=printer[room=>=12]]") == {
            "printer-12",
            "printer-20",
        }

    def test_lexicographic_for_non_numeric(self, rooms):
        tree, records = rooms
        found = lookup_labels(tree, records, "[service=printer[room=>aaa]]")
        assert found == {"printer-annex"}


class TestMultipleRecords:
    def test_identical_names_from_different_announcers_coexist(self, tree):
        """Section 2.2: AnnouncerIDs differentiate identical names."""
        first = make_record("h1")
        second = make_record("h2")
        tree.insert(parse("[service=camera][room=510]"), first)
        tree.insert(parse("[service=camera][room=510]"), second)
        assert tree.lookup(parse("[service=camera]")) == {first, second}
        assert len(tree) == 2

    def test_single_pass_no_sibling_branch_recovery(self, tree):
        """Documented Figure 5 behaviour: the single-pass algorithm does
        not match an advertisement through a sibling branch it omitted.

        [service=camera[entity=transmitter]] advertises no 'id', so a
        query constraining BOTH entity and id under service=camera
        intersects the id constraint against the id-bearing records
        only."""
        with_id = make_record("with-id")
        without_id = make_record("without-id")
        tree.insert(parse("[service=camera[entity=t][id=a]]"), with_id)
        tree.insert(parse("[service=camera[entity=t]]"), without_id)
        found = tree.lookup(parse("[service=camera[entity=t][id=a]]"))
        assert with_id in found

    def test_early_exit_on_empty_intersection(self, tree):
        first = make_record("h1")
        tree.insert(parse("[a=1][b=2]"), first)
        # a=1 matches, b=3 empties the set; result must be empty.
        assert tree.lookup(parse("[a=1][b=3]")) == set()


class TestLookupEdgeBranches:
    """Pin down Figure 5's less-travelled branches."""

    def test_early_exit_never_resurrects_via_later_constraints(self, tree):
        """Once the candidate intersection empties, remaining query
        pairs are skipped — and skipping must not re-admit records a
        later constraint would have matched."""
        record = make_record("h1")
        tree.insert(parse("[a=1][b=2][c=3]"), record)
        # b=9 empties the set; c=3 WOULD match but must not resurrect.
        assert tree.lookup(parse("[a=1][b=9][c=3]")) == set()

    def test_query_deeper_than_advertisement_unions_the_leaf_subtree(self, tree):
        """When the matched value-node is an advertisement leaf, the
        query's deeper constraints are satisfied vacuously and ALL
        records attached below that value-node are unioned in."""
        shallow_a = make_record("shallow-a")
        shallow_b = make_record("shallow-b")
        deep = make_record("deep")
        tree.insert(parse("[service=sensor]"), shallow_a)
        tree.insert(parse("[service=sensor]"), shallow_b)
        tree.insert(parse("[service=sensor[unit=kelvin]]"), deep)
        # sensor is a leaf for both shallow ads; the deeper query's
        # [unit=celsius] is a wild-card for them but excludes the
        # kelvin advertisement, which classifies 'unit' differently.
        found = tree.lookup(parse("[service=sensor[unit=celsius]]"))
        assert found == {shallow_a, shallow_b}

    def test_wildcard_with_zero_matching_values_is_empty(self, tree):
        """A wild-card/range constraint over an attribute that IS in
        the tree but whose advertised values all fail the matcher
        yields the empty union, not 'no constraint'."""
        record = make_record("h1")
        tree.insert(parse("[service=printer[room=annex]]"), record)
        assert tree.lookup(parse("[service=printer[room=<5]]")) == set()

    def test_wildcard_zero_match_then_early_exit(self, tree):
        record = make_record("h1")
        tree.insert(parse("[room=annex][floor=2]"), record)
        # the empty range union triggers the early exit before floor.
        assert tree.lookup(parse("[room=<5][floor=2]")) == set()


class TestFigure5Oracle:
    def test_tree_and_oracle_agree(self):
        """The tree's LOOKUP-NAME against the literal Figure 5
        recursion (``fig5_oracle``): exact, wild-card, range and
        omitted-attribute queries over shallow and deep advertisements,
        with and without the memo, each asked twice so the second
        answer is a cached one."""
        queries = [
            "[service=camera]",
            "[city=*]",
            "[service=camera[data-type=picture]]",
            "[service=printer[room=<15]]",
            "[service=sensor[unit=celsius]]",
            "[service=printer[room=4[desk=2]]][city=rome]",
            OVAL_OFFICE_CAMERA,
            "",
        ]
        ads = [
            OVAL_OFFICE_CAMERA,
            "[service=printer[room=4]]",
            "[service=printer[room=20]]",
            "[city=rome][service=camera]",
            "[service=sensor]",
            "[service=sensor[unit=kelvin]]",
        ]
        for memoize in (True, False):
            tree = NameTree(memoize=memoize)
            for index, wire in enumerate(ads):
                tree.insert(parse(wire), make_record(host=f"ad-{index}"))
            for query in queries:
                expected = oracle_lookup(tree, parse(query))
                assert tree.lookup(parse(query)) == expected, query
                assert tree.lookup(parse(query)) == expected, query


class TestValueDependentHierarchy:
    """Section 2.1's argument for av-pair (not attribute) hierarchies:
    child attributes may vary with the parent VALUE — country=us has a
    state, country=canada has a province."""

    def test_children_vary_with_parent_value(self, tree):
        us = make_record("us-host")
        canada = make_record("ca-host")
        tree.insert(parse("[country=us[state=virginia]]"), us)
        tree.insert(parse("[country=canada[province=ontario]]"), canada)
        assert tree.lookup(parse("[country=us[state=virginia]]")) == {us}
        assert tree.lookup(parse("[country=canada[province=ontario]]")) == {canada}
        # both live under one 'country' attribute-node
        attributes, _values = node_counts(tree)
        assert attributes == 3  # country, state, province

    def test_omitted_attribute_is_a_wildcard_for_the_advertisement(self, tree):
        """Faithful Figure 5: canada never advertised a 'state', so a
        state constraint does not exclude it (omitted attributes are
        wild-cards for advertisements too)."""
        us = make_record("us-host")
        canada = make_record("ca-host")
        tree.insert(parse("[country=us[state=virginia]]"), us)
        tree.insert(parse("[country=canada[province=ontario]]"), canada)
        assert tree.lookup(parse("[country=canada[state=virginia]]")) == {canada}

    def test_value_mismatch_under_the_right_attribute_excludes(self, tree):
        us = make_record("us-host")
        canada = make_record("ca-host")
        tree.insert(parse("[country=us[state=virginia]]"), us)
        tree.insert(parse("[country=canada[province=ontario]]"), canada)
        # 'province' IS advertised under canada; a wrong value excludes.
        assert tree.lookup(parse("[country=canada[province=quebec]]")) == set()

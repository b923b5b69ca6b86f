"""Property-based tests for name-tree invariants (hypothesis)."""

import random
import re

from hypothesis import given, settings, strategies as st

from repro.experiments import UniformWorkload
from repro.naming import NameSpecifier
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree

from ..conftest import node_counts, random_query
from .fig5_oracle import oracle_lookup
from .fig6_oracle import oracle_get_name


def _workload(seed: int, depth: int = 2) -> UniformWorkload:
    return UniformWorkload(
        rng=random.Random(seed),
        depth=depth,
        attribute_range=3,
        value_range=3,
        attributes_per_level=2,
    )


def _record(tag: str) -> NameRecord:
    return NameRecord(
        announcer=AnnouncerID.generate(tag),
        endpoints=[Endpoint(host=tag, port=1)],
    )


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_every_inserted_name_is_found_by_itself(seed, count):
    """lookup(n) contains n's record for every advertised n."""
    workload = _workload(seed)
    tree = NameTree()
    pairs = []
    for index, name in enumerate(workload.distinct_names(count)):
        record = _record(f"p-{index}")
        tree.insert(name, record)
        pairs.append((name, record))
    for name, record in pairs:
        assert record in tree.lookup(name)


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=1, max_value=25))
@settings(max_examples=50, deadline=None)
def test_get_name_inverts_insert(seed, count):
    """GET-NAME returns exactly the advertised name-specifier."""
    workload = _workload(seed, depth=3)
    tree = NameTree()
    pairs = []
    for index, name in enumerate(workload.distinct_names(count)):
        record = _record(f"g-{index}")
        tree.insert(name, record)
        pairs.append((name, record))
    for name, record in pairs:
        assert oracle_get_name(tree, record) == name
        assert tree.get_name(record) == name


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=2, max_value=25))
@settings(max_examples=50, deadline=None)
def test_remove_then_empty_tree_is_pristine(seed, count):
    """Inserting then removing everything leaves zero nodes (pruning
    never strands branches)."""
    workload = _workload(seed, depth=3)
    tree = NameTree()
    records = []
    for index, name in enumerate(workload.distinct_names(count)):
        record = _record(f"r-{index}")
        tree.insert(name, record)
        records.append(record)
    order = random.Random(seed)
    order.shuffle(records)
    for record in records:
        tree.remove(record)
    assert len(tree) == 0
    assert node_counts(tree) == (0, 0)


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_empty_query_returns_all_records(seed, count):
    workload = _workload(seed)
    tree = NameTree()
    expected = set()
    for index, name in enumerate(workload.distinct_names(count)):
        record = _record(f"e-{index}")
        tree.insert(name, record)
        expected.add(record)
    assert tree.lookup(NameSpecifier()) == expected


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_lookup_results_subset_of_wildcard_union(seed, count):
    """Any constrained lookup returns a subset of what the top-level
    wild-card over the same attribute returns."""
    workload = _workload(seed)
    tree = NameTree()
    names = workload.distinct_names(count)
    for index, name in enumerate(names):
        tree.insert(name, _record(f"s-{index}"))
    probe = names[0]
    attribute = probe._roots[0].attribute
    wild = NameSpecifier.parse(f"[{attribute}=*]")
    exact = NameSpecifier.parse(
        f"[{attribute}={probe._roots[0].value}]"
    )
    assert tree.lookup(exact) <= tree.lookup(wild)


def _query_variants(seed: int):
    """One generated query with wild-cards, the same with its first
    literal leaf turned into a range, and its first root pair alone
    (every attribute below it omitted)."""
    wild = random_query(_workload(seed), wildcard_probability=0.3)
    text = wild.to_wire()
    ranged = NameSpecifier.parse(re.sub(r"=(v\d+)\]", r"=>=\1]", text, count=1))
    root = wild._roots[0]
    omitted = NameSpecifier.parse(f"[{root.attribute}={root.value}]")
    return wild, ranged, omitted


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_lookup_agrees_with_the_figure5_oracle(seed, count):
    """The iterative, cached, memoized LOOKUP-NAME returns what the
    literal Figure 5 recursion returns — wild-card, range and
    omitted-attribute queries, with and without the memo, asked twice
    so the second answer comes from the caches."""
    # Shallow names beside deep ones, so interior value-nodes carry
    # records of their own (the "S ∪ the name-records of T" of Fig. 5).
    names = _workload(seed).distinct_names(count)
    names += _workload(seed, depth=1).distinct_names(min(count, 9))
    for memoize in (True, False):
        tree = NameTree(memoize=memoize)
        for index, name in enumerate(names):
            tree.insert(name, _record(f"o-{index}"))
        for query in _query_variants(seed + 1):
            expected = oracle_lookup(tree, query)
            assert tree.lookup(query) == expected
            assert tree.lookup(query) == expected

"""Property-based tests for name-tree invariants (hypothesis)."""

import random

from hypothesis import given, settings, strategies as st

from repro.experiments import UniformWorkload
from repro.naming import NameSpecifier
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree


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
        assert tree.reconstruct_name(record) == name
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
    assert tree.node_counts() == (0, 0)


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
    attribute = probe.roots[0].attribute
    wild = NameSpecifier.parse(f"[{attribute}=*]")
    exact = NameSpecifier.parse(
        f"[{attribute}={probe.roots[0].value}]"
    )
    assert tree.lookup(exact) <= tree.lookup(wild)


@given(seed=st.integers(min_value=0, max_value=10_000),
       count=st.integers(min_value=1, max_value=20))
@settings(max_examples=40, deadline=None)
def test_hash_and_linear_search_agree(seed, count):
    """Search strategy never changes lookup results."""
    workload_a = _workload(seed)
    workload_b = _workload(seed)
    hash_tree = NameTree(search="hash")
    linear_tree = NameTree(search="linear")
    names_a = workload_a.distinct_names(count)
    names_b = workload_b.distinct_names(count)
    hash_records, linear_records = {}, {}
    for index, (na, nb) in enumerate(zip(names_a, names_b)):
        ra, rb = _record(f"h-{index}"), _record(f"l-{index}")
        hash_tree.insert(na, ra)
        linear_tree.insert(nb, rb)
        hash_records[index] = ra
        linear_records[index] = rb
    query = _workload(seed + 1).random_query(wildcard_probability=0.3)
    found_hash = {i for i, r in hash_records.items() if r in hash_tree.lookup(query)}
    found_linear = {
        i for i, r in linear_records.items() if r in linear_tree.lookup(query)
    }
    assert found_hash == found_linear

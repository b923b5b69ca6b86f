"""Tests for the LOOKUP-NAME memo and its epoch invalidation.

The memo is beyond the paper (see ``NameTree.__init__``): repeated
queries against an unchanged record set are answered from a bounded
LRU keyed by the query's canonical key, holding ``MEMO_CAPACITY``
results beyond one per record. The tree epoch advances only on
membership changes — graft, remove, expiry — so pure soft-state
refreshes keep the memo warm. These tests pin down the counters, the
invalidation points, the capacity bound, and (``check_histories``, run
wide in CI) that memoized results always equal a freshly built
uncached tree's over the live records, however long ago the last sweep
ran.
"""

import random
from typing import Tuple

import pytest

from repro.experiments import UniformWorkload
from repro.nametree import AnnouncerID, Endpoint, NameRecord, NameTree
from repro.nametree import tree as tree_module

from ..conftest import make_record, parse, random_query


def _refresh_record(host: str, expires_at: float = float("inf")) -> NameRecord:
    """A record whose announcer is stable across calls, so re-inserting
    one is a soft-state refresh rather than a new advertisement."""
    return NameRecord(
        announcer=AnnouncerID.generate(host, startup_time=1.0),
        endpoints=[Endpoint(host=host, port=1)],
        expires_at=expires_at,
    )


class TestMemoCounters:
    def test_repeat_query_hits(self, tree):
        tree.insert(parse("[service=camera]"), make_record("h1"))
        query = parse("[service=camera]")
        first = tree.lookup(query)
        second = tree.lookup(query)
        assert first == second
        assert tree.memo_misses == 1
        assert tree.memo_hits == 1

    def test_structurally_equal_queries_share_an_entry(self, tree):
        """The memo key is the canonical key: sibling order and
        whitespace never cause a second miss."""
        tree.insert(parse("[a=1][b=2]"), make_record("h1"))
        tree.lookup(parse("[a=1][b=2]"))
        tree.lookup(parse("[b=2][a=1]"))
        assert tree.memo_hits == 1
        assert tree.memo_misses == 1

    def test_returned_set_is_a_copy(self, tree):
        record = make_record("h1")
        tree.insert(parse("[service=camera]"), record)
        query = parse("[service=camera]")
        tree.lookup(query).clear()  # caller mutates its copy
        assert tree.lookup(query) == {record}

    def test_memoize_off_never_counts(self):
        tree = NameTree(memoize=False)
        tree.insert(parse("[service=camera]"), make_record("h1"))
        query = parse("[service=camera]")
        tree.lookup(query)
        tree.lookup(query)
        assert tree.memo_hits == 0
        assert tree.memo_misses == 0


class TestEpochInvalidation:
    def test_new_advertisement_flushes(self, tree):
        tree.insert(parse("[service=camera]"), make_record("h1"))
        query = parse("[service=camera]")
        tree.lookup(query)
        late = make_record("h2")
        tree.insert(parse("[service=camera]"), late)
        assert late in tree.lookup(query)
        assert tree.memo_invalidations == 1
        assert tree.memo_misses == 2

    def test_remove_flushes(self, tree):
        record = make_record("h1")
        tree.insert(parse("[service=camera]"), record)
        query = parse("[service=camera]")
        tree.lookup(query)
        tree.remove(record)
        assert tree.lookup(query) == set()
        assert tree.memo_invalidations == 1

    def test_expire_flushes(self, tree):
        record = make_record("h1", expires_at=10.0)
        tree.insert(parse("[service=camera]"), record)
        query = parse("[service=camera]")
        assert tree.lookup(query) == {record}
        tree.expire(now=11.0)
        assert tree.lookup(query) == set()
        assert tree.memo_invalidations == 1

    def test_expire_with_nothing_expired_keeps_memo(self, tree):
        tree.insert(parse("[service=camera]"), make_record("h1", expires_at=10.0))
        query = parse("[service=camera]")
        tree.lookup(query)
        tree.expire(now=5.0)
        tree.lookup(query)
        assert tree.memo_hits == 1
        assert tree.memo_invalidations == 0

    def test_pure_refresh_keeps_memo_warm(self, tree):
        """The tentpole property: a periodic re-advertisement of the
        same name by the same announcer does not advance the epoch, so
        the memo keeps answering from cache."""
        tree.insert(parse("[service=camera]"), _refresh_record("h1", 10.0))
        query = parse("[service=camera]")
        tree.lookup(query)
        epoch_before = tree._epoch
        outcome = tree.insert(parse("[service=camera]"), _refresh_record("h1", 20.0))
        assert not outcome.created
        assert tree._epoch == epoch_before
        found = tree.lookup(query)
        assert tree.memo_hits == 1
        assert tree.memo_invalidations == 0
        # In-place refreshes are visible through the memoized result
        # because records are shared objects.
        assert {r.expires_at for r in found} == {20.0}

    def test_refresh_with_new_name_flushes(self, tree):
        """Service mobility: the same announcer advertising a different
        name IS a membership change."""
        tree.insert(parse("[service=camera[room=510]]"), _refresh_record("h1"))
        old_query = parse("[service=camera[room=510]]")
        tree.lookup(old_query)
        tree.insert(parse("[service=camera[room=511]]"), _refresh_record("h1"))
        assert tree.lookup(old_query) == set()
        assert len(tree.lookup(parse("[service=camera[room=511]]"))) == 1
        assert tree.memo_invalidations == 1


class TestMemoCapacity:
    def test_lru_bound(self, monkeypatch):
        """One record and ``MEMO_CAPACITY`` 2: the memo holds three
        results, and the fourth distinct query evicts the least
        recently used."""
        monkeypatch.setattr(tree_module, "MEMO_CAPACITY", 2)  # small, so eviction is exercised
        tree = NameTree()
        tree.insert(parse("[service=camera]"), make_record("h1"))
        a, b, c, d = parse("[x=1]"), parse("[x=2]"), parse("[x=3]"), parse("[x=4]")
        tree.lookup(a)
        tree.lookup(b)
        tree.lookup(c)
        tree.lookup(a)  # touch a: b becomes least recently used
        tree.lookup(d)  # evicts b
        assert tree.memo_misses == 4
        assert tree.memo_evictions == 1
        tree.lookup(a)
        tree.lookup(c)
        tree.lookup(d)
        assert tree.memo_hits == 4
        tree.lookup(b)  # evicted: misses again
        assert tree.memo_misses == 5
        assert tree.memo_evictions == 2

    def test_bound_grows_with_the_records_held(self, monkeypatch):
        """A tree of N records holds ``MEMO_CAPACITY + N`` results
        before its first eviction, and then evicts the least recently
        used."""
        monkeypatch.setattr(tree_module, "MEMO_CAPACITY", 3)
        tree = NameTree()
        for index in range(5):
            tree.insert(parse(f"[service=s{index}]"), make_record(f"h{index}"))
        queries = [parse(f"[x={index}]") for index in range(9)]
        for query in queries[:8]:
            tree.lookup(query)
        for query in queries[:8]:
            tree.lookup(query)
        assert (tree.memo_misses, tree.memo_hits) == (8, 8)
        assert tree.memo_evictions == 0
        tree.lookup(queries[0])  # touch: queries[1] is now least recently used
        tree.lookup(queries[8])  # the ninth result evicts it
        assert tree.memo_evictions == 1
        tree.lookup(queries[0])
        tree.lookup(queries[2])
        assert tree.memo_hits == 11
        tree.lookup(queries[1])
        assert tree.memo_misses == 10

    def test_quiet_tree_answers_its_own_names_from_the_memo(self):
        """2,000 records of the benchmark's name shape, each asked its
        own name round-robin, twice: the second pass is all hits. A
        fixed 1,024-slot LRU would hit none of them, since every name
        is evicted before the cycle comes back to it."""
        names = UniformWorkload(rng=random.Random(1)).distinct_names(2000)
        tree = NameTree()
        for index, name in enumerate(names):
            tree.insert(name, make_record(f"h{index}"))
        for _ in range(2):
            for name in names:
                tree.lookup(name)
        assert tree.memo_misses == 2000
        assert tree.memo_hits == 2000
        assert tree.memo_evictions == 0


def _workload(seed: int) -> UniformWorkload:
    return UniformWorkload(
        rng=random.Random(seed),
        depth=2,
        attribute_range=3,
        value_range=3,
        attributes_per_level=2,
    )


def check_histories(seeds) -> dict:
    """Under a random interleaving of insert / refresh / move / remove
    / sparse sweeps / bursts of lookups, every memoized lookup returns
    exactly what a freshly built, uncached tree over the records whose
    deadline is after the history's clock returns. Returns how often
    the memo hit, how often it evicted, how many grafts took a slot an
    earlier record had freed, and how many lookups the expiry view
    changed (a matching record past its deadline that no sweep had
    collected yet was hidden), over all ``seeds``."""
    tally = {"hits": 0, "evictions": 0, "slots_reused": 0, "hidden": 0}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tree_module, "MEMO_CAPACITY", 4)  # small, so eviction is exercised
        for seed in seeds:
            tree, reused, hidden = _check_history(seed)
            tally["hits"] += tree.memo_hits
            tally["evictions"] += tree.memo_evictions
            tally["slots_reused"] += reused
            tally["hidden"] += hidden
    return tally


def _check_history(seed: int) -> Tuple[NameTree, int, int]:
    rng = random.Random(seed)
    names = _workload(seed).distinct_names(12)
    queries = _workload(seed + 1)
    query_pool = [random_query(queries, wildcard_probability=0.4) for _ in range(16)]
    clock = 0.0
    tree = NameTree(clock=lambda: clock)
    held = {}  # tag -> (name, expires_at), live or not yet swept
    next_tag = 0
    issued = set()  # every slot a graft has taken
    reused = 0
    hidden = 0

    def insert(tag: str, name, expires: float) -> None:
        nonlocal reused
        record = _refresh_record(tag, expires)
        if tree.insert(name, record).record is record:  # grafted, not refreshed
            reused += record.slot in issued
            issued.add(record.slot)
        held[tag] = (name, expires)

    for _ in range(60):
        clock += 1.0
        op = rng.choice(["insert", "refresh", "move", "remove", "expire",
                         "lookup", "lookup"])
        if op == "insert":
            tag = f"m-{next_tag}"
            next_tag += 1
            insert(tag, rng.choice(names), clock + rng.choice([5.0, 1000.0]))
        elif op == "refresh" and held:
            tag = rng.choice(sorted(held))
            insert(tag, held[tag][0], clock + 1000.0)
        elif op == "move" and held:
            tag = rng.choice(sorted(held))
            insert(tag, rng.choice(names), clock + 1000.0)
        elif op == "remove" and held:
            tag = rng.choice(sorted(held))
            removed = tree.remove_announcer(
                AnnouncerID.generate(tag, startup_time=1.0)
            )
            assert removed is not None
            del held[tag]
        elif op == "expire" and rng.random() < 0.25:
            # Sparse, as a resolver's sweep is beside its lookups: dead
            # records stay held for a while, and the view must hide them.
            tree.expire(clock)
            held = {tag: entry for tag, entry in held.items()
                    if entry[1] > clock}
        elif op == "lookup":
            # Every record held, into a tree that hides none of them.
            fresh = NameTree(memoize=False)
            for tag, (name, expires) in held.items():
                fresh.insert(name, _refresh_record(tag, expires))
            for query in rng.choices(query_pool, k=rng.randint(1, 16)):
                matched = fresh.lookup(query)
                expected = {r.announcer for r in matched if r.expires_at > clock}
                hidden += len(expected) < len(matched)
                assert {r.announcer for r in tree.lookup(query)} == expected, (
                    f"seed {seed}: a memoized lookup differs from an uncached "
                    f"tree's over the live records"
                )
    assert len(tree) == len(held)
    return tree, reused, hidden


def test_memoized_lookup_equals_fresh_uncached_tree():
    tally = check_histories(range(40))
    # Worth running only while the memo both answers and evicts, while
    # grafts reuse freed slots, and while the view hides records no
    # sweep has collected. Floors are half of what these seeds tallied
    # (1,526 / 2,493 / 391; hidden 29 once sweeps became sparse).
    assert tally["hits"] > 750 and tally["evictions"] > 1200, tally
    assert tally["slots_reused"] > 190, tally
    assert tally["hidden"] > 14, tally

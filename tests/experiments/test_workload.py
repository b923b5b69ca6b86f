"""Tests for the uniform workload generator (Section 5.1 parameters)."""

import random

import pytest

from repro.experiments import UniformWorkload
from repro.nametree import NameTree

from ..conftest import count, depth, random_query


def make(seed=0, **kwargs):
    defaults = dict(depth=3, attribute_range=3, value_range=3,
                    attributes_per_level=2)
    defaults.update(kwargs)
    return UniformWorkload(rng=random.Random(seed), **defaults)


class TestGeneration:
    def test_names_have_requested_depth(self):
        workload = make(depth=3)
        for _ in range(20):
            assert depth(workload.random_name()) == 3

    def test_names_have_requested_breadth(self):
        workload = make(attributes_per_level=2)
        for _ in range(20):
            name = workload.random_name()
            assert len(name._roots) == 2
            for root in name._roots:
                assert len(root.children) == 2

    def test_av_pair_count_matches_geometry(self):
        """n_a attributes per level, d levels -> sum n_a^i pairs."""
        workload = make(depth=3, attributes_per_level=2)
        assert count(workload.random_name()) == 2 + 4 + 8

    def test_attribute_range_respected(self):
        workload = make(attribute_range=3)
        for _ in range(20):
            for pair in workload.random_name().walk():
                assert pair.attribute in {"a0", "a1", "a2"}

    def test_token_padding_widens_names(self):
        def total_wire_size(workload):
            return sum(workload.random_name().wire_size() for _ in range(50))

        assert total_wire_size(make(token_pad=3)) > total_wire_size(make())

    def test_determinism_by_seed(self):
        a = [make(seed=5).random_name().to_wire() for _ in range(1)]
        b = [make(seed=5).random_name().to_wire() for _ in range(1)]
        assert a == b

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make(attributes_per_level=9, attribute_range=3)
        with pytest.raises(ValueError):
            make(depth=0)

    def test_tokens_are_formatted_once_and_names_read_the_same(self):
        """The generator holds ``r_a + r_v`` token strings and every
        av-pair shares them; the names are the ones the per-pair
        f-strings used to spell."""
        workload = make(seed=7, token_pad=2)
        names = [workload.random_name() for _ in range(20)]
        tokens = {id(t) for n in names for p in n.walk() for t in (p.attribute, p.value)}
        assert len(tokens) <= 3 + 3
        replay = random.Random(7)

        def spelled(level):
            attributes = sorted(replay.sample(range(3), 2))
            out = []
            for attribute in attributes:
                value = replay.randrange(3)
                below = spelled(level + 1) if level < 3 else ""
                out.append(f"[a{attribute}xx=v{value}xx{below}]")
            return "".join(out)

        assert [name.to_wire() for name in names] == [spelled(1) for _ in names]
        assert names[0].to_wire() == (
            "[a0xx=v1xx[a0xx=v0xx[a0xx=v1xx][a2xx=v2xx]][a2xx=v0xx[a0xx=v0xx][a2xx=v0xx]]]"
            "[a1xx=v1xx[a0xx=v0xx[a0xx=v0xx][a1xx=v2xx]][a1xx=v0xx[a0xx=v2xx][a2xx=v2xx]]]"
        )


class TestDistinctNames:
    def test_requested_count_all_distinct(self):
        names = make().distinct_names(200)
        assert len(names) == 200
        assert len({n.canonical_key() for n in names}) == 200

    def test_impossible_count_raises(self):
        tiny = make(depth=1, attribute_range=2, value_range=1,
                    attributes_per_level=2)
        # only one possible name exists in this namespace
        with pytest.raises(ValueError):
            tiny.distinct_names(5, max_attempts_factor=10)


class TestQueriesAndTrees:
    def test_wildcard_probability_zero_yields_concrete(self):
        assert random_query(make(), 0.0).is_concrete()

    def test_wildcard_probability_one_stars_all_leaves(self):
        query = random_query(make(), 1.0)
        for pair in query.walk():
            if pair.is_leaf:
                assert pair.value == "*"

    def test_populate_tree(self):
        workload = make()
        tree = NameTree()
        records = workload.populate_tree(tree, 50)
        assert len(tree) == 50
        assert len(records) == 50

    def test_vspace_attached_when_configured(self):
        workload = make(vspace="cameras")
        assert workload.random_name().vspaces() == ("cameras",)

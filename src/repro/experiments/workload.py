"""Uniform random name workloads (Section 5.1).

The paper's analysis and experiments grow name-specifiers uniformly in
four dimensions (Figure 11):

- ``d``   — number of av-pair levels (half the alternating tree depth),
- ``r_a`` — range of possible attributes at each level,
- ``r_v`` — range of possible values per attribute,
- ``n_a`` — actual number of attributes present per level.

Figure 12 fixes r_a = 3, r_v = 3, n_a = 2, d = 3 and varies the number
of distinct names ``n`` in the tree. This module reproduces that
generator, plus query generation (optionally with wild-cards) and the
advertisement plumbing the protocol-level experiments need.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..naming import AVPair, NameSpecifier, VSPACE_ATTRIBUTE
from ..nametree import AnnouncerID, Endpoint, NameRecord, NameTree


class UniformWorkload:
    """Generates uniformly-grown random name-specifiers."""

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        depth: int = 3,
        attribute_range: int = 3,
        value_range: int = 3,
        attributes_per_level: int = 2,
        vspace: Optional[str] = None,
        token_pad: int = 0,
    ) -> None:
        """``token_pad`` widens attribute/value tokens so the average
        wire size can be calibrated (the paper's random names averaged
        82 bytes)."""
        if attributes_per_level > attribute_range:
            raise ValueError(
                "cannot place more attributes per level than the attribute range"
            )
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.rng = rng if rng is not None else random.Random(0)
        self.depth = depth
        self.attribute_range = attribute_range
        self.value_range = value_range
        self.attributes_per_level = attributes_per_level
        self.vspace = vspace
        # Formatted once: every generated av-pair shares these strings
        # instead of holding two of its own.
        pad = "x" * token_pad
        self._attributes = [f"a{index}{pad}" for index in range(attribute_range)]
        self._values = [f"v{index}{pad}" for index in range(value_range)]

    # ------------------------------------------------------------------
    # Name generation
    # ------------------------------------------------------------------
    def _add_children(self, pair: AVPair, level: int) -> None:
        attributes = self.rng.sample(
            range(self.attribute_range), self.attributes_per_level
        )
        for attribute_index in sorted(attributes):
            child = AVPair(
                self._attributes[attribute_index],
                self._values[self.rng.randrange(self.value_range)],
            )
            if level + 1 < self.depth:
                self._add_children(child, level + 1)
            pair.add_child(child)

    def random_name(self) -> NameSpecifier:
        """One uniformly-grown random name-specifier."""
        name = NameSpecifier()
        attributes = self.rng.sample(
            range(self.attribute_range), self.attributes_per_level
        )
        for attribute_index in sorted(attributes):
            root = AVPair(
                self._attributes[attribute_index],
                self._values[self.rng.randrange(self.value_range)],
            )
            if self.depth > 1:
                self._add_children(root, 1)
            name.add_pair(root)
        if self.vspace is not None:
            name.add(VSPACE_ATTRIBUTE, self.vspace)
        return name

    def distinct_names(self, count: int, max_attempts_factor: int = 200) -> List[NameSpecifier]:
        """``count`` pairwise-distinct random names.

        Raises when the configured namespace cannot produce that many
        (prevents silent infinite loops on tiny parameter choices).
        """
        names: List[NameSpecifier] = []
        seen = set()
        attempts = 0
        limit = count * max_attempts_factor
        while len(names) < count:
            attempts += 1
            if attempts > limit:
                raise ValueError(
                    f"could not generate {count} distinct names from this "
                    f"namespace after {attempts} attempts; got {len(names)}"
                )
            name = self.random_name()
            key = name.canonical_key()
            if key not in seen:
                seen.add(key)
                names.append(name)
        return names

    def random_query(self, wildcard_probability: float = 0.0) -> NameSpecifier:
        """A random query; leaf values become ``*`` with the given
        probability (wild-cards are leaf-only, Section 2.3.2)."""
        name = self.random_name()
        if wildcard_probability > 0:
            for pair in name.walk():
                if pair.is_leaf and self.rng.random() < wildcard_probability:
                    pair.value = "*"
        return name

    # ------------------------------------------------------------------
    # Tree construction helpers
    # ------------------------------------------------------------------
    def populate_tree(
        self, tree: NameTree, count: int, expires_at: float = float("inf")
    ) -> List[NameRecord]:
        """Fill ``tree`` with ``count`` distinct advertised names."""
        records = []
        for index, name in enumerate(self.distinct_names(count)):
            record = NameRecord(
                announcer=AnnouncerID.generate(f"wl-{index}"),
                endpoints=[Endpoint(host=f"wl-{index}", port=1)],
                anycast_metric=float(self.rng.randrange(100)),
                expires_at=expires_at,
            )
            tree.insert(name, record)
            records.append(record)
        return records

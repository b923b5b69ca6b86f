"""Figure 13: name-tree memory footprint.

The paper reports the Java heap allocated to the name-tree growing from
about 0.5 MB to 4 MB as names go from a few hundred to 14300, with the
growth linear once the first ~thousand names have populated every
attribute and value the namespace can produce (after that, new names
add only pointers and name-records).

We measure the same quantity with a deep ``sys.getsizeof`` walk. The
shape to reproduce: a steeper start while the vocabulary fills, then
clean linear growth in n. The ``tree-size`` workload; interpreter
object sizes depend on the host, so every number is a timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from ...experiments.workload import UniformWorkload
from ...nametree import AnnouncerID, Endpoint, NameRecord, NameTree, name_tree_bytes
from ..runner import Workload, WorkloadResult, register_workload
from . import sweep_result, sweep_tables


@dataclass
class SizeRow:
    """One point of the Figure 13 curve."""

    names_in_tree: int
    tree_bytes: int

    @property
    def tree_megabytes(self) -> float:
        return self.tree_bytes / (1024.0 * 1024.0)


#: The table's columns; the second is a timing per point.
COLUMNS = [
    ("names in tree", "names_in_tree", ""),
    ("megabytes", "tree_megabytes", ".2f"),
]


def run_size_experiment(
    seed: int,
    name_counts: Sequence[int] = (100, 2000, 5000, 10000, 14300),
    depth: int = 3,
    attribute_range: int = 3,
    value_range: int = 3,
    attributes_per_level: int = 2,
) -> WorkloadResult:
    """Reproduce Figure 13: deep size of the tree at each name count."""
    counts = sorted(set(name_counts))
    workload = UniformWorkload(
        rng=random.Random(seed),
        depth=depth,
        attribute_range=attribute_range,
        value_range=value_range,
        attributes_per_level=attributes_per_level,
    )
    names = workload.distinct_names(counts[-1])
    tree = NameTree()
    inserted = 0
    rows: List[SizeRow] = []
    for count in counts:
        while inserted < count:
            record = NameRecord(
                announcer=AnnouncerID.generate(f"fig13-{inserted}"),
                endpoints=[Endpoint(host=f"fig13-{inserted}", port=1)],
            )
            tree.insert(names[inserted], record)
            inserted += 1
        rows.append(SizeRow(names_in_tree=count, tree_bytes=name_tree_bytes(tree)))
    return sweep_result(rows, COLUMNS, timed=True)


register_workload(Workload(
    id="tree-size",
    description="Figure 13: the name-tree's deep getsizeof (host-dependent: timings)",
    run=run_size_experiment,
    suite_tables=sweep_tables(
        "Figure 13: name-tree size vs names in the tree", COLUMNS
    ),
    timed=True,
))

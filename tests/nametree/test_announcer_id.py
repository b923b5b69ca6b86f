"""``str(AnnouncerID)`` breaks anycast ties, so it must be one-to-one."""

import itertools

import pytest

from repro.nametree import AnnouncerID, NameRecord
from repro.resolver.dataplane import best_route

#: Startup times ``:g``'s six significant digits print alike.
COLLIDING = [(1000000.0, 1000001.0), (12.34567, 12.34568)]


@pytest.mark.parametrize("earlier, later", COLLIDING)
def test_announcers_that_differ_print_differently(earlier, later):
    one, other = AnnouncerID("cache", earlier), AnnouncerID("cache", later)
    assert f"{earlier:g}" == f"{later:g}"  # what __str__ used to print
    assert str(one) != str(other)
    assert float(str(one).split("@")[1]) == earlier
    assert float(str(other).split("@")[1]) == later


@pytest.mark.parametrize("earlier, later", COLLIDING)
def test_an_anycast_tie_is_broken_by_value_not_by_the_order_looked_up(
    earlier, later
):
    records = [
        NameRecord(announcer=AnnouncerID("cache", time))
        for time in (earlier, later, earlier + 0.5)
    ]
    picks = {
        best_route(order).announcer for order in itertools.permutations(records)
    }
    assert len(picks) == 1


def test_a_startup_time_that_six_digits_hold_prints_as_it_always_did():
    for sequence in range(1, 10**5 + 1):
        startup = float(sequence)
        assert str(AnnouncerID("h", startup)) == f"h@{startup:g}"
    for startup in (0.0, 0.5, 12.5, 1e6, 2.5e9, 1e-7, float("inf")):
        assert str(AnnouncerID("h", startup)) == f"h@{startup:g}"

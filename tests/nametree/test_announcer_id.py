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


def test_an_announcer_hashes_orders_and_prints_as_its_field_tuple():
    """A tuple, hashed in C: the hash is the one the field tuple has, so
    every dict and set of announcers (and of records, which hash one)
    keeps its layout; ordering is field by field; ``str`` and ``repr``
    read as they always did."""
    announcers = [
        AnnouncerID("b", 1.0), AnnouncerID("a", 2.0), AnnouncerID("a", 1.5),
        AnnouncerID.generate("c", startup_time=0.25),
    ]
    for announcer in announcers:
        assert hash(announcer) == hash((announcer.host, announcer.startup_time))
        assert announcer == AnnouncerID(announcer.host, announcer.startup_time)
    assert sorted(announcers) == [
        AnnouncerID("a", 1.5), AnnouncerID("a", 2.0), AnnouncerID("b", 1.0),
        AnnouncerID("c", 0.25),
    ]
    assert str(announcers[2]) == "a@1.5"
    assert repr(announcers[0]) == "AnnouncerID(host='b', startup_time=1.0)"

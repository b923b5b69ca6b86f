"""Tests for the discrete-event simulator core."""

import pytest

from repro.netsim import ARGS, CALLBACK, SEQUENCE, TIME, Simulator, cancel


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule(1.0, fired.append, label)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_scheduling_into_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(1.0, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        cancel(event)
        cancel(event)
        sim.run()


class TestBoundedRuns:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["early", "late"]

    def test_run_for_advances_relative(self):
        sim = Simulator()
        sim.run_for(4.0)
        assert sim.now == 4.0
        sim.run_for(1.5)
        assert sim.now == 5.5

    def test_max_events_bounds_work(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        assert not Simulator().step()

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestFiringInPlace:
    """``nothing_due_by`` is the whole test; ``fire`` the whole effect."""

    def test_nothing_is_due_on_an_empty_or_later_heap(self):
        sim = Simulator()
        assert sim.nothing_due_by(0.0) and sim.nothing_due_by(5.0)
        sim.at(1.0, lambda: None)
        assert sim.nothing_due_by(0.0) and sim.nothing_due_by(0.999)
        # an entry at the very time is queued ahead of one pushed now
        assert not sim.nothing_due_by(1.0)
        assert not sim.nothing_due_by(float("nan"))

    def test_an_entry_at_this_instant_is_due_even_when_cancelled(self):
        sim = Simulator()
        cancel(sim.at(0.0, lambda: None))
        assert not sim.nothing_due_by(0.0)
        sim.run()
        assert sim.nothing_due_by(0.0)
        cancel(sim.at(2.0, lambda: None))  # a tombstone is due by its time
        assert sim.nothing_due_by(1.5) and not sim.nothing_due_by(2.5)

    def test_an_exhausted_event_budget_leaves_the_callback_to_a_later_run(self):
        sim = Simulator()
        verdicts = []
        sim.at(1.0, lambda: verdicts.append(sim.nothing_due_by(sim.now)))
        sim.at(2.0, lambda: verdicts.append(sim.nothing_due_by(sim.now)))
        sim.run(max_events=1)
        sim.run(max_events=2)
        assert verdicts == [False, True]
        assert sim.nothing_due_by(sim.now)  # no run in progress, no budget

    def test_a_time_past_the_running_until_belongs_to_a_later_run(self):
        sim = Simulator()
        verdicts = []
        sim.at(1.0, lambda: verdicts.append(
            (sim.nothing_due_by(2.0), sim.nothing_due_by(2.5))
        ))
        sim.run(until=2.0)
        assert verdicts == [(True, False)]
        assert sim.nothing_due_by(2.5)  # no run in progress, no bound

    def test_fire_counts_and_profiles_the_event_it_stands_for(self):
        sim = Simulator()
        seen, fired = [], []
        sim.event_hook = seen.append
        first = sim.at(3.0, lambda: None)
        sim.run(until=1.0)
        sim.fire(1.5, fired.append, "in place")
        after = sim.at(3.0, lambda: None)
        assert fired == ["in place"] and sim.now == 1.5
        assert sim.events_processed == 1
        (event,) = seen
        assert (event[TIME], event[CALLBACK], event[ARGS]) == (
            1.5, fired.append, ("in place",)
        )
        # it took the sequence number scheduling would have taken
        assert (first[SEQUENCE], event[SEQUENCE], after[SEQUENCE]) == (0, 1, 2)


class TestDeterminism:
    def test_same_seed_same_randoms(self):
        a = Simulator(seed=42)
        b = Simulator(seed=42)
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]

    def test_different_seed_different_randoms(self):
        assert Simulator(seed=1).rng.random() != Simulator(seed=2).rng.random()


class TestEventOrdering:
    """The heap orders ``[time, sequence, callback, args]`` entries; the
    sequence number is unique, so a comparison never reaches the
    callback, which needs (and has) no ordering of its own."""

    def test_same_instant_events_fire_in_schedule_order_under_run_and_step(self):
        for drain in ("run", "step"):
            sim = Simulator()
            fired = []
            # Interleave two instants, with callbacks that are not
            # orderable themselves, many more than a heap level holds.
            for index in range(200):
                sim.at(2.0, fired.append, ("late", index))
                sim.at(1.0, fired.append, ("early", index))

            def chain(index):
                fired.append(("chained", index))
                if index < 3:
                    sim.at(sim.now, chain, index + 1)

            sim.at(1.0, chain, 0)
            if drain == "run":
                sim.run()
            else:
                while sim.step():
                    pass
            early = [("early", index) for index in range(200)]
            chained = [("chained", index) for index in range(4)]
            late = [("late", index) for index in range(200)]
            assert fired == early + chained + late

    def test_cancelled_tombstones_are_skipped_wherever_they_sit(self):
        sim = Simulator()
        fired = []
        events = [sim.at(1.0 + (index % 3), fired.append, index) for index in range(30)]
        for event in events[::2]:
            cancel(event)
        assert sim.pending_events == 30  # tombstones stay queued until popped
        assert sim.step() and fired == [3]  # the head (0) was a tombstone
        sim.run(until=1.0)
        assert fired == [3, 9, 15, 21, 27]
        sim.run()
        assert fired == [3, 9, 15, 21, 27, 1, 7, 13, 19, 25, 5, 11, 17, 23, 29]
        assert sim.events_processed == 15
        assert sim.pending_events == 0

    def test_event_defines_no_ordering(self):
        sim = Simulator()
        first = sim.at(1.0, lambda: None)
        second = sim.at(1.0, lambda: None)
        assert type(first) is list
        with pytest.raises(TypeError):
            first[CALLBACK] < second[CALLBACK]
        assert first < second  # settled by the sequence number
        assert (first[TIME], first[SEQUENCE]) < (second[TIME], second[SEQUENCE])

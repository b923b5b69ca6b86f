"""Tests for batched same-timestamp event dispatch in Simulator.run().

``run()`` fires every event sharing a timestamp in one inner loop
(one clock assignment per distinct time). The observable contract is
unchanged from the per-event loop: strict (time, sequence) order,
cancellation respected up to the instant of firing, ``max_events`` and
``until`` honored exactly, and events scheduled *at the current
timestamp from inside a callback* still fire within the same batch.
"""

import pytest

from repro.netsim import TIME, Simulator, cancel


def test_same_timestamp_fifo_order():
    sim = Simulator()
    fired = []
    for index in range(20):
        sim.at(1.0, fired.append, index)
    sim.run()
    assert fired == list(range(20))
    assert sim.now == 1.0


def test_interleaved_timestamps_stay_sorted():
    sim = Simulator()
    fired = []
    for index, time in enumerate([3.0, 1.0, 2.0, 1.0, 3.0, 2.0]):
        sim.at(time, fired.append, (time, index))
    sim.run()
    assert fired == sorted(fired)


def test_callback_scheduling_into_current_batch_fires_now():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            # Zero-delay schedule lands at the current timestamp with a
            # later sequence number: it must join the running batch.
            sim.schedule(0.0, chain, depth + 1)

    sim.at(5.0, chain, 0)
    sim.at(5.0, fired.append, "peer")
    sim.run()
    assert fired == [0, "peer", 1, 2, 3]
    assert sim.now == 5.0


def test_cancellation_inside_batch_respected():
    sim = Simulator()
    fired = []
    victim = sim.at(1.0, fired.append, "victim")
    sim.at(1.0, cancel, victim)
    # Sequence order puts the canceller *after* the victim, so this one
    # fires; cancel a later-sequence victim instead.
    later = sim.at(1.0, fired.append, "later")
    sim.at(1.0, fired.append, "tail")
    victim2 = later
    sim.at(0.5, cancel, victim2)
    sim.run()
    assert "later" not in fired
    assert fired == ["victim", "tail"]
    assert sim.events_processed == 4  # canceller lambdas count too


def test_max_events_cuts_mid_batch():
    sim = Simulator()
    fired = []
    for index in range(10):
        sim.at(1.0, fired.append, index)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]
    # The rest of the batch is still queued and fires on resume.
    sim.run()
    assert fired == list(range(10))


def test_until_excludes_later_batch_and_pins_clock():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, "early")
    sim.at(4.0, fired.append, "late")
    sim.run(until=2.5)
    assert fired == ["early"]
    assert sim.now == 2.5
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == 4.0


def test_event_hook_sees_every_batched_event():
    sim = Simulator()
    seen = []
    sim.event_hook = lambda event: seen.append(event[TIME])
    for time in (1.0, 1.0, 2.0):
        sim.at(time, lambda: None)
    sim.run()
    assert seen == [1.0, 1.0, 2.0]


def test_step_and_run_agree():
    """step() (per-event) and run() (batched) fire identical sequences."""

    def load(sim, log):
        for index, time in enumerate([2.0, 1.0, 1.0, 3.0, 2.0]):
            sim.at(time, log.append, (time, index))

    stepped, ran = Simulator(), Simulator()
    log_step, log_run = [], []
    load(stepped, log_step)
    load(ran, log_run)
    while stepped.step():
        pass
    ran.run()
    assert log_step == log_run

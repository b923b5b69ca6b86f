"""Tests for the serial CPU model."""

import pytest

from repro.netsim import Cpu, Simulator


class TestExecution:
    def test_work_completes_after_cost(self):
        sim = Simulator()
        cpu = Cpu(sim)
        done = []
        cpu.execute(0.5, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.5]

    def test_work_is_serialized(self):
        """Two jobs submitted together finish back to back."""
        sim = Simulator()
        cpu = Cpu(sim)
        done = []
        cpu.execute(0.5, lambda: done.append(sim.now))
        cpu.execute(0.25, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.5, 0.75]

    def test_idle_gap_resets_start_time(self):
        sim = Simulator()
        cpu = Cpu(sim)
        done = []
        cpu.execute(0.1, lambda: done.append(sim.now))
        sim.run()
        sim.at(5.0, lambda: cpu.execute(0.1, lambda: done.append(sim.now)))
        sim.run()
        assert done == [0.1, 5.1]

    def test_speed_scales_cost(self):
        sim = Simulator()
        fast = Cpu(sim, speed=2.0)
        done = []
        fast.execute(1.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.5]

    def test_zero_cost_work_runs_now(self):
        sim = Simulator()
        cpu = Cpu(sim)
        done = []
        cpu.execute(0.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_callback_arguments_fire_like_the_closure_form(self):
        """``execute(cost, callback, *args)`` schedules what
        ``execute(cost, lambda: callback(*args))`` schedules: the same
        virtual time, the same place in (time, sequence) order — also
        among equal-time jobs and events scheduled in between."""

        def drive(submit):
            sim = Simulator()
            cpu, other = Cpu(sim), Cpu(sim, speed=2.0)
            fired = []

            def note(label, extra=None):
                fired.append((label, extra, sim.now, sim.events_processed))

            finishes = [
                submit(cpu, 0.5, note, "a", 1),
                submit(other, 1.0, note, "b"),       # also done at t=0.5
                submit(cpu, 0.0, note, "c", None),   # queues behind "a"
            ]
            sim.at(0.5, note, "plain event")
            finishes.append(submit(other, 0.0, note, "d"))
            sim.run()
            return finishes, fired

        with_args = drive(lambda cpu, cost, fn, *args: cpu.execute(cost, fn, *args))
        with_closure = drive(
            lambda cpu, cost, fn, *args: cpu.execute(cost, lambda: fn(*args))
        )
        assert with_args == with_closure
        assert [entry[0] for entry in with_args[1]] == [
            "a", "b", "c", "plain event", "d",
        ]

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Cpu(Simulator()).execute(-0.1, lambda: None)
        with pytest.raises(ValueError):
            Cpu(Simulator()).execute_last(-0.1, lambda: None)

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            Cpu(Simulator(), speed=0.0)


class TestExecuteLast:
    """``execute_last`` is ``execute`` for a caller in tail position."""

    def test_free_work_on_an_idle_cpu_with_nothing_due_runs_in_place(self):
        sim = Simulator()
        cpu = Cpu(sim)
        sim.at(2.0, lambda: None)  # later: not in the way
        sim.run(until=1.0)
        done = []
        pending = sim.pending_events
        assert cpu.execute_last(0.0, done.append, "ran") == 1.0
        assert done == ["ran"]
        assert sim.pending_events == pending
        # ... and is still one job and one event
        assert (cpu.jobs_executed, cpu.free_at, cpu.busy_seconds) == (1, 1.0, 0.0)
        assert sim.events_processed == 1

    def test_costed_work_with_nothing_due_completes_in_place(self):
        """The clock moves to the completion and the callback runs there,
        with exactly the accounting ``execute`` does."""

        def drive(submit_name):
            sim = Simulator()
            cpu = Cpu(sim, speed=4.0)
            sim.at(2.0, lambda: None)  # later than the completion
            sim.run(until=1.0)
            done = []
            finish = getattr(cpu, submit_name)(0.5, lambda: done.append(sim.now))
            in_place = (list(done), sim.pending_events, sim.now)
            sim.run()
            return finish, in_place, done, cpu.jobs_executed, cpu.free_at, cpu.busy_seconds

        scheduled, in_place = drive("execute"), drive("execute_last")
        assert scheduled[1] == ([], 2, 1.0)
        assert in_place[1] == ([1.125], 1, 1.125)
        assert in_place[0] == scheduled[0] == 1.125
        assert in_place[2:] == scheduled[2:] == ([1.125], 1, 1.125, 0.125)

    @pytest.mark.parametrize("why", ["costs time", "cpu busy", "something due"])
    def test_anything_else_is_execute(self, why):
        """Something is due by the time the job would complete: costed
        work with an entry queued before it finishes, free work queued
        behind a job finishing at its own entry, free work with an entry
        at this very instant."""

        def drive(submit_name):
            sim = Simulator()
            cpu = Cpu(sim)
            fired = []
            if why == "costs time":
                sim.at(0.1, fired.append, "due before the finish")
            if why == "cpu busy":
                cpu.execute(0.5, fired.append, "earlier job")
            if why == "something due":
                sim.at(0.0, fired.append, "already due")
            cost = 0.25 if why == "costs time" else 0.0
            finish = getattr(cpu, submit_name)(cost, fired.append, "the job")
            queued = (list(fired), sim.pending_events)
            sim.run()
            return finish, queued, fired, cpu.jobs_executed, cpu.free_at, sim.now

        assert drive("execute_last") == drive("execute")
        assert "the job" not in drive("execute_last")[1][0]


class TestAccounting:
    def test_busy_seconds_accumulate(self):
        sim = Simulator()
        cpu = Cpu(sim)
        cpu.execute(0.5, lambda: None)
        cpu.execute(0.25, lambda: None)
        sim.run()
        assert cpu.busy_seconds == pytest.approx(0.75)
        assert cpu.jobs_executed == 2

    def test_backlog(self):
        sim = Simulator()
        cpu = Cpu(sim)
        cpu.execute(3.0, lambda: None)
        assert cpu.backlog == pytest.approx(3.0)
        sim.run(until=1.0)
        assert cpu.backlog == pytest.approx(2.0)
        sim.run()
        sim.run_for(1.0)
        assert cpu.backlog == 0.0

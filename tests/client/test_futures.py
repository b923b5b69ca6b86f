"""Tests for the Reply future."""

import pytest

from repro.client import DeadlineExceeded, Reply, RequestError, RequestTimeout


class TestReply:
    def test_unresolved_value_raises(self):
        reply = Reply()
        assert not reply.done
        with pytest.raises(RuntimeError):
            reply.value

    def test_value_or_default(self):
        reply = Reply()
        assert reply.value_or("fallback") == "fallback"
        reply.resolve(42)
        assert reply.value_or("fallback") == 42

    def test_resolve_delivers(self):
        reply = Reply()
        reply.resolve("result")
        assert reply.done
        assert reply.value == "result"

    def test_resolution_is_single_assignment(self):
        """Duplicate datagrams must not overwrite the first answer."""
        reply = Reply()
        reply.resolve("first")
        reply.resolve("second")
        assert reply.value == "first"

    def test_callbacks_run_on_resolution(self):
        reply = Reply()
        seen = []
        reply.then(seen.append)
        reply.then(seen.append)
        reply.resolve("x")
        assert seen == ["x", "x"]

    def test_late_callback_runs_immediately(self):
        reply = Reply()
        reply.resolve("x")
        seen = []
        reply.then(seen.append)
        assert seen == ["x"]

    def test_callbacks_fire_once(self):
        reply = Reply()
        seen = []
        reply.then(seen.append)
        reply.resolve(1)
        reply.resolve(2)
        assert seen == [1]

    def test_then_chains(self):
        reply = Reply()
        assert reply.then(lambda v: None) is reply


class TestReplyFailure:
    def test_fail_settles_without_success(self):
        reply = Reply()
        error = RequestTimeout("gone")
        reply.fail(error)
        assert reply.failed
        assert reply.settled
        assert not reply.done
        assert reply.error is error

    def test_value_raises_the_stored_error(self):
        reply = Reply()
        reply.fail(DeadlineExceeded("too late"))
        with pytest.raises(DeadlineExceeded):
            reply.value

    def test_value_or_default_when_failed(self):
        reply = Reply()
        reply.fail(RequestTimeout("gone"))
        assert reply.value_or("fallback") == "fallback"

    def test_on_error_fires_exactly_once(self):
        reply = Reply()
        seen = []
        reply.on_error(seen.append)
        reply.fail(RequestTimeout("first"))
        reply.fail(RequestTimeout("second"))
        assert len(seen) == 1
        assert str(seen[0]) == "first"

    def test_on_error_after_failure_fires_immediately(self):
        reply = Reply()
        reply.fail(RequestTimeout("gone"))
        seen = []
        reply.on_error(seen.append)
        assert len(seen) == 1

    def test_late_duplicate_response_after_failure_is_ignored(self):
        """A response straggling in after the client gave up must not
        reanimate the request."""
        reply = Reply()
        successes = []
        reply.then(successes.append)
        reply.fail(RequestTimeout("gone"))
        reply.resolve("stale answer")
        assert not reply.done
        assert reply.failed
        assert successes == []
        with pytest.raises(RequestError):
            reply.value

    def test_fail_after_resolution_is_ignored(self):
        reply = Reply()
        errors = []
        reply.on_error(errors.append)
        reply.resolve("answer")
        reply.fail(RequestTimeout("straggler timeout"))
        assert reply.done
        assert not reply.failed
        assert reply.value == "answer"
        assert errors == []

    def test_then_after_failure_never_fires(self):
        reply = Reply()
        reply.fail(RequestTimeout("gone"))
        seen = []
        reply.then(seen.append)
        reply.resolve("x")
        assert seen == []

    def test_deadline_defaults_to_none(self):
        assert Reply().deadline is None


class TestSettledReplyHoldsNoCallbacks:
    """A settled reply drops its callback lists: a domain keeps one
    settled ``attached`` reply per client and per service."""

    @staticmethod
    def _settle(reply, how):
        if how == "resolve":
            reply.resolve("x")
        else:
            reply.fail(RequestTimeout("gone"))

    @pytest.mark.parametrize("how", ["resolve", "fail"])
    def test_settling_drops_both_lists(self, how):
        reply = Reply()
        reply.then(lambda value: None)
        reply.on_error(lambda error: None)
        self._settle(reply, how)
        assert reply._callbacks is None
        assert reply._error_callbacks is None

    @pytest.mark.parametrize("how", ["resolve", "fail"])
    def test_then_and_on_error_still_behave_once_settled(self, how):
        reply = Reply()
        self._settle(reply, how)
        values, errors = [], []
        assert reply.then(values.append) is reply
        assert reply.on_error(errors.append) is reply
        if how == "resolve":
            assert values == ["x"] and errors == []
        else:
            assert values == [] and isinstance(errors[0], RequestTimeout)
        # Settling again is still a no-op, with no lists to run.
        reply.resolve("y")
        reply.fail(RequestTimeout("again"))
        assert len(values) + len(errors) == 1

    def test_a_callback_registered_by_a_callback_runs_at_once(self):
        reply = Reply()
        seen = []
        reply.then(lambda value: reply.then(lambda again: seen.append(again)))
        reply.resolve(7)
        assert seen == [7]

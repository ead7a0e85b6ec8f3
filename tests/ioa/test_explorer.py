"""Tests for the bounded state-space explorer."""

from __future__ import annotations

from repro.ioa import explore, reachable_states
from .toys import Counter, Echo, Nondet, ping


class TestExplore:
    def test_counter_reaches_all_values(self):
        counter = Counter(5)
        states = reachable_states(counter)
        assert states == set(range(6))

    def test_invariant_violation_found_with_trace(self):
        counter = Counter(5)
        result = explore(counter, invariant=lambda s: s != 2)
        assert not result.ok
        state, trace = result.violation
        assert state == 2
        assert len(trace) == 3  # three ticks from 5 to 2

    def test_invariant_checked_at_start(self):
        counter = Counter(0)
        result = explore(counter, invariant=lambda s: s != 0)
        assert not result.ok
        assert result.violation[1] == ()

    def test_environment_inputs_explored(self):
        echo = Echo()
        states = reachable_states(
            echo,
            environment=lambda s: [ping(len(s))] if len(s) < 3 else [],
        )
        # Queues of payloads (0, 1, 2 ...) up to depth 3, plus drained
        # variants.
        assert () in states
        assert (0,) in states
        assert (0, 1, 2) in states

    def test_nondeterminism_explored_exhaustively(self):
        states = reachable_states(Nondet())
        assert states == {"start", "heads", "tails"}

    def test_truncation_flag(self):
        counter = Counter(100)
        result = explore(counter, max_states=10)
        assert result.truncated
        assert len(result.states) <= 11


class TestDeprecationShims:
    """The shims must blame the *caller*, not themselves.

    ``stacklevel=2`` is only correct while the ``warnings.warn`` call
    sits directly inside the public entry point; these tests pin the
    reported filename to the calling file so an added intermediate
    frame cannot silently re-point the warning at library internals.
    ``workers=`` is a deprecated no-op, so the result must also equal
    the serial one.
    """

    @staticmethod
    def deprecations(call):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = call()
        return result, [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_explore_workers_warning_names_caller_file(self):
        counter = Counter(3)
        result, reports = self.deprecations(
            lambda: explore(counter, invariant=lambda s: s != 1, workers=2)
        )
        assert len(reports) == 1
        assert reports[0].filename == __file__
        serial = explore(counter, invariant=lambda s: s != 1)
        assert result.states == serial.states
        assert result.truncated == serial.truncated
        assert result.violation == serial.violation

    def test_reachable_states_workers_warning_names_caller_file(self):
        states, reports = self.deprecations(
            lambda: reachable_states(Counter(3), workers=2)
        )
        assert len(reports) == 1
        assert reports[0].filename == __file__
        assert states == reachable_states(Counter(3))

    def test_verify_delivery_order_workers_warning_names_caller_file(self):
        from repro.analysis import verify_delivery_order
        from repro.protocols import eager_protocol

        result, reports = self.deprecations(
            lambda: verify_delivery_order(
                eager_protocol(), messages=2, capacity=2, workers=2
            )
        )
        assert len(reports) == 1
        assert reports[0].filename == __file__
        assert result == verify_delivery_order(
            eager_protocol(), messages=2, capacity=2
        )

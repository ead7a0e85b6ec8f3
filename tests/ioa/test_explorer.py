"""Tests for the bounded state-space explorer."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.ioa import explore, reachable_states
from repro.ioa.engine.accel import LazyStateSet, accel_backend_id
from repro.ioa.engine.core import explore_engine
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


def _closed_abp(messages=2, capacity=2, reorder_depth=1):
    from repro.analysis.model_check import build_closed_system
    from repro.protocols import alternating_bit_protocol

    composition, invariant, _ = build_closed_system(
        alternating_bit_protocol(),
        messages=messages,
        capacity=capacity,
        reorder_depth=reorder_depth,
    )
    return composition, invariant


def _traced(call):
    from repro.obs import MemorySink, tracing

    with tracing(MemorySink()) as tracer:
        result = call()
    return result, tracer.snapshot_counters()


@pytest.fixture
def accel_calls(monkeypatch):
    """Record every ``explore_accel`` call the dispatcher makes."""
    from repro.ioa.engine import accel

    calls = []
    inner = accel.explore_accel

    def spy(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(accel, "explore_accel", spy)
    return calls


needs_accel = pytest.mark.skipif(
    accel_backend_id() is None, reason="no C compiler for the compiled core"
)


class TestEngineDispatch:
    """``engine="auto"`` runs the compiled core on every eligible call."""

    @needs_accel
    @pytest.mark.parametrize("engine", ["auto", "accel"])
    def test_eligible_call_runs_accel(self, accel_calls, engine):
        composition, invariant = _closed_abp()
        result, counters = _traced(
            lambda: explore(composition, invariant=invariant, engine=engine)
        )
        assert accel_calls == [composition]
        assert isinstance(result.states, LazyStateSet)
        assert "explore.accel_fallback" not in counters
        assert counters["explore.states"] == len(result.states)

    @pytest.mark.parametrize("case", ["environment", "validate", "hidden"])
    @pytest.mark.parametrize("require", [False, True])
    def test_ineligible_call_takes_python_engine(
        self, accel_calls, monkeypatch, case, require
    ):
        from repro.ioa.hiding import Hidden

        if require:
            monkeypatch.setenv("REPRO_ACCEL_REQUIRE", "1")
        else:
            monkeypatch.delenv("REPRO_ACCEL_REQUIRE", raising=False)
        composition, invariant = _closed_abp()
        kwargs = {"invariant": invariant}
        automaton = composition
        if case == "environment":
            kwargs["environment"] = lambda state: ()
        elif case == "validate":
            kwargs["validate"] = True
        else:
            automaton = Hidden(composition, ())
        result, counters = _traced(lambda: explore(automaton, **kwargs))
        assert accel_calls == []
        assert counters.get("explore.accel_fallback", 0) == 0
        reference = explore(composition, invariant=invariant,
                            engine="reference")
        assert result.states == reference.states
        assert result.truncated == reference.truncated

    @pytest.fixture
    def tiny_packing(self, monkeypatch):
        # Two bits per key: every slot overflows its one-bit budget as
        # soon as a third slice value appears, mid-search.
        from repro.ioa.engine import encoding

        monkeypatch.setattr(encoding, "PACK_BITS", 2)

    @needs_accel
    def test_encoding_overflow_is_counted_and_falls_back(
        self, monkeypatch, tiny_packing
    ):
        monkeypatch.delenv("REPRO_ACCEL_REQUIRE", raising=False)
        composition, invariant = _closed_abp(reorder_depth=2)
        result, counters = _traced(
            lambda: explore(composition, invariant=invariant)
        )
        reference = explore(composition, invariant=invariant,
                            engine="reference")
        assert counters["explore.accel_fallback"] == 1
        assert not isinstance(result.states, LazyStateSet)
        assert result.states == reference.states
        assert result.violation == reference.violation

    @needs_accel
    def test_encoding_overflow_raises_when_accel_required(
        self, monkeypatch, tiny_packing
    ):
        from repro.ioa.engine.encoding import EncodingOverflow

        monkeypatch.setenv("REPRO_ACCEL_REQUIRE", "1")
        composition, invariant = _closed_abp()
        with pytest.raises(EncodingOverflow):
            explore(composition, invariant=invariant)

    def test_unavailable_core_is_counted_and_falls_back(self, monkeypatch):
        from repro.ioa.engine import accel

        def unavailable():
            raise accel.AccelUnavailable("no compiler")

        monkeypatch.delenv("REPRO_ACCEL_REQUIRE", raising=False)
        monkeypatch.setattr(accel, "_load_module", unavailable)
        composition, invariant = _closed_abp()
        result, counters = _traced(
            lambda: explore(composition, invariant=invariant)
        )
        assert counters["explore.accel_fallback"] == 1
        assert result.states == explore_engine(
            composition, invariant=invariant
        ).states
        monkeypatch.setenv("REPRO_ACCEL_REQUIRE", "1")
        with pytest.raises(accel.AccelUnavailable):
            explore(composition, invariant=invariant)


@needs_accel
def test_zero_state_budget_keeps_the_start_state():
    # The core drops only the entry that burst the budget, as the
    # engines do, even when the budget is below the start state.
    composition, invariant = _closed_abp()
    result = explore(
        composition, invariant=invariant, max_states=0, engine="accel"
    )
    reference = explore(
        composition, invariant=invariant, max_states=0, engine="reference"
    )
    assert result.truncated and reference.truncated
    assert result.states == reference.states == {composition.initial_state()}


@pytest.mark.parametrize("engine", ["accel", "disk"])
class TestLazyStateSetsActLikeSets:
    """The lazy ``states`` views stand in for a plain ``set``."""

    @pytest.fixture
    def result(self, engine):
        if engine == "accel" and accel_backend_id() is None:
            pytest.skip("no C compiler for the compiled core")
        composition, invariant = _closed_abp()
        result = explore(composition, invariant=invariant, engine=engine)
        assert not isinstance(result.states, (set, frozenset))
        return result

    def test_set_algebra_returns_plain_sets(self, result):
        states = result.states
        real = set(states)
        start = next(iter(real))
        other = {start, "not a state"}
        assert states - set() == real
        assert type(states - set()) is set
        assert states | other == real | other
        assert states & other == {start}
        assert states ^ other == real ^ other

    def test_pickle_round_trips_to_a_plain_set(self, result):
        clone = pickle.loads(pickle.dumps(result))
        assert type(clone.states) is set
        assert clone.states == set(result.states)
        assert clone.truncated == result.truncated

    def test_deepcopy_gives_a_plain_set(self, result):
        clone = copy.deepcopy(result)
        assert type(clone.states) is set
        assert clone.states == set(result.states)

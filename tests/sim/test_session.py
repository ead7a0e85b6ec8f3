"""Tests for the :class:`~repro.sim.session.Session` façade and the
redesigned :meth:`ScenarioResult.report` signature."""

from __future__ import annotations

import warnings

import pytest

from repro.protocols import alternating_bit_protocol
from repro.sim import (
    FaultPlan,
    Session,
    fifo_system,
    generate_script,
    run_scenario,
)


def _session(seed=3, messages=4):
    system = fifo_system(alternating_bit_protocol())
    script = generate_script(system, FaultPlan(messages=messages, seed=seed))
    return Session(system=system, script=tuple(script.actions), seed=seed)


class TestSessionFacade:
    def test_run_quiesces_and_delivers(self):
        result = _session().run()
        assert result.quiescent
        assert result.steps > 0

    def test_run_is_rerunnable_bit_identically(self):
        session = _session()
        first = session.run()
        second = session.run()
        assert first.behavior == second.behavior
        assert first.steps == second.steps

    def test_from_spec_builds_from_master_seed(self):
        session = Session.from_spec("alternating_bit", "fifo", 42)
        result = session.run()
        assert result.quiescent

    def test_from_spec_deterministic_in_seed(self):
        a = Session.from_spec("alternating_bit", "fifo", 42).run()
        b = Session.from_spec("alternating_bit", "fifo", 42).run()
        assert a.behavior == b.behavior
        assert Session.from_spec(
            "alternating_bit", "fifo", 42
        ).script == Session.from_spec("alternating_bit", "fifo", 42).script

    def test_from_spec_distinct_seeds_diverge(self):
        a = Session.from_spec("alternating_bit", "nonfifo", 1).run()
        b = Session.from_spec("alternating_bit", "nonfifo", 2).run()
        assert a.behavior != b.behavior

    def test_run_scenario_is_a_thin_wrapper(self):
        system = fifo_system(alternating_bit_protocol())
        script = generate_script(system, FaultPlan(messages=4, seed=3))
        via_wrapper = run_scenario(system, script.actions, seed=3)
        via_facade = _session().run()
        assert via_wrapper.behavior == via_facade.behavior
        assert via_wrapper.steps == via_facade.steps
        assert via_wrapper.quiescent == via_facade.quiescent


class TestScenarioReportSignature:
    def test_stations_keyword(self):
        result = _session().run()
        report = result.report(0.5, stations=("t", "r"))
        assert report.command == "simulate"
        assert report.duration_s == 0.5
        assert report.counters["sim.steps"] == result.steps

    def test_modern_form_does_not_warn(self):
        result = _session().run()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result.report(0.5, stations=("t", "r"))
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_unknown_keyword_rejected(self):
        result = _session().run()
        with pytest.raises(TypeError):
            result.report(0.5, station="t")

    def test_legacy_keyword_form_rejected(self):
        # The retired t=/r= keywords fail loudly instead of being ignored.
        result = _session().run()
        with pytest.raises(TypeError):
            result.report(0.5, t="t", r="r")

    def test_legacy_positional_form_rejected(self):
        # stations is keyword-only: positional station names are an error.
        result = _session().run()
        with pytest.raises(TypeError):
            result.report(0.5, "t", "r")


#: sha256 of the normalized event stream (``at`` and span durations
#: dropped) of :func:`_traced_events`, recorded before the step span's
#: action label became lazy; the label must not change under tracing.
TRACED_EVENTS_SHA256 = (
    "8cdba1b737bb3c3490846f54e09eef5d0b245eebeb22c7b5993b742a0108f959"
)


def _crash_session():
    system = fifo_system(alternating_bit_protocol())
    plan = FaultPlan(
        messages=3, seed=0, crash_probability=0.5, fail_probability=0.3
    )
    script = generate_script(system, plan)
    return Session(system=system, script=tuple(script.actions), seed=0)


def _traced_events():
    import json

    from repro.obs import MemorySink, tracing

    sink = MemorySink()
    with tracing(sink):
        _crash_session().run()
    lines = []
    for event in sink.events:
        record = event.to_dict()
        record.pop("at")
        if event.kind == "span_end":
            record.pop("value", None)
        lines.append(json.dumps(record, sort_keys=True))
    return lines


class TestStepSpanLabel:
    def test_traced_spans_match_recorded_stream(self):
        import hashlib
        import json

        lines = _traced_events()
        assert len(lines) == 40
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == TRACED_EVENTS_SHA256
        starts = [json.loads(line) for line in lines]
        assert {
            "fields": {"action": "crash^{r,t}"},
            "kind": "span_start",
            "name": "sim.step",
            "parent": 0,
            "span": 6,
        } in starts

    def test_tracing_off_formats_no_action(self, monkeypatch):
        from repro.ioa.actions import Action
        from repro.obs import MemorySink, tracing

        session = _crash_session()
        calls = []
        original = Action.__str__

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Action, "__str__", counting)
        result = session.run()
        assert result.steps > 0
        assert calls == []
        with tracing(MemorySink()):
            session.run()
        assert len(calls) == len(session.script)


class TestOneMetricsPass:
    """A session's metrics are computed once and shared by every reader."""

    @pytest.fixture
    def metric_calls(self, monkeypatch):
        from repro.sim import metrics

        calls = []
        for name in ("delivery_stats", "channel_stats"):
            real = getattr(metrics, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(metrics, name, counting)
        return calls

    def test_traced_load_session(self, metric_calls):
        import random

        from repro.conformance.harness import SubSeeds
        from repro.obs import MemorySink, tracing
        from repro.sim.load import LoadConfig, run_session

        sink = MemorySink()
        with tracing(sink):
            outcome = run_session(
                "alternating_bit",
                "nonfifo",
                0,
                SubSeeds.derive(random.Random(3)),
                LoadConfig(loss_rate=0.5),
            )
        assert outcome.error is None
        assert metric_calls == ["delivery_stats"]
        counted = {
            event.name: event.value
            for event in sink.events
            if event.kind == "counter"
        }
        assert counted["sim.packets_dropped"] == outcome.dropped > 0
        assert counted["sim.messages_delivered"] == outcome.delivered

    def test_report_reuses_the_metrics(self, metric_calls):
        result = _session().run()
        first = result.report().counters
        assert result.report().counters == first
        assert metric_calls == ["delivery_stats"]
        assert result.metrics(("r", "t")) is not result.metrics()

    @pytest.mark.parametrize("channel", ["fifo", "nonfifo", "bounded_nonfifo"])
    @pytest.mark.parametrize("seed", range(6))
    def test_dropped_packets_match_the_channel_census(self, channel, seed):
        from repro.conformance.harness import FuzzConfig
        from repro.sim.metrics import channel_stats

        config = FuzzConfig(loss_rate=0.4, crash_probability=0.2)
        result = Session.from_spec("stenning", channel, seed, config).run()
        census = [
            channel_stats(result.fragment, src, dst)
            for src, dst in (("t", "r"), ("r", "t"))
        ]
        assert result.metrics().packets_dropped == sum(
            max(0, stats.packets_sent - stats.packets_received)
            for stats in census
        )

"""Tracing-off must stay a no-op on the exploration hot path.

The engines instrument at layer granularity behind ``tracer.enabled``
checks, so a run with the disabled default tracer should do no event
work at all.  These tests assert it structurally and deterministically:
nothing is recorded, no memo-counting shim is installed, and a
``sys.setprofile`` hook sees the tracing-off run call into
:mod:`repro.obs` only through the disabled tracer's no-ops -- a bounded
number of times per BFS layer, never per state.  A traced run does
strictly more work than that, so the tracing-off run cannot be slower
for a reason the program controls.
"""

from __future__ import annotations

import sys

from repro.obs import MemorySink, current_tracer, tracing
from repro.obs.tracer import Tracer


def build():
    from repro.analysis.model_check import build_closed_system
    from repro.protocols import alternating_bit_protocol

    composition, invariant, _ = build_closed_system(
        alternating_bit_protocol(), messages=2, capacity=2
    )
    return composition, invariant


def disabled_noops():
    """Code objects of the calls the tracing-off path may make."""
    noop_span = type(Tracer(enabled=False).span("probe"))
    return {
        current_tracer.__code__,
        Tracer.span.__code__,
        Tracer.count.__code__,
        Tracer.gauge.__code__,
        noop_span.__enter__.__code__,
        noop_span.__exit__.__code__,
    }


def obs_calls(run):
    """Code objects of every Python-level call into repro.obs during run."""
    import repro.obs

    prefix = repro.obs.__path__[0]
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


class TestNoOpOverhead:
    def test_disabled_run_records_nothing(self):
        from repro.ioa import explore

        composition, invariant = build()
        tracer = current_tracer()
        assert not tracer.enabled
        before = dict(tracer.counters)
        explore(composition, invariant=invariant)
        assert tracer.counters == before

    def test_disabled_run_installs_no_memo_shim(self):
        from repro.analysis.model_check import build_closed_system
        from repro.ioa.engine.core import _CompositionSearch
        from repro.protocols import alternating_bit_protocol

        composition, invariant, _ = build_closed_system(
            alternating_bit_protocol(), messages=1, capacity=1
        )
        search = _CompositionSearch(composition)
        search.run(None, invariant, 50_000, 10_000)
        assert not hasattr(search, "_step_queries")

    def test_tracing_off_not_slower_than_traced(self):
        from repro.ioa import explore

        composition, invariant = build()
        sink = MemorySink()
        with tracing(sink):
            traced = obs_calls(
                lambda: explore(composition, invariant=invariant)
            )
        layers = sum(
            1
            for event in sink.events
            if event.kind == "span_start" and event.name == "explore.layer"
        )
        assert layers > 1
        off = obs_calls(lambda: explore(composition, invariant=invariant))
        allowed = disabled_noops()
        assert set(off) <= allowed, (
            "the tracing-off explore called into repro.obs beyond the "
            "disabled-tracer no-ops: "
            f"{sorted({code.co_name for code in set(off) - allowed})}"
        )
        # One no-op span (call, enter, exit) per layer plus the tracer
        # lookup: the per-state loop makes no obs calls at all.
        assert off.count(Tracer.span.__code__) == layers
        assert len(off) <= 3 * layers + 2
        # The hook does see real tracing work, so the check is not vacuous.
        assert set(traced) - allowed

"""The traced run: self time and counts per layer of the program.

One traced run drives a workload serially in-process, three times over
the same rounds:

(a) with tracing off, as the baseline wall time;
(b) with the benchmark's wrappers installed at the call sites of each
    layer (see :mod:`spans`), which gives self time per layer;
(c) under ``repro.obs.tracing(MemorySink())``, which gives the
    program's own counters and the cost of the program's tracer.

(a) runs once more at the end, and the overhead ratios divide by the
mean of its two wall times, so that a drift in machine speed during the
run does not fall on one side of them.

Counts come from results the program already returns and are
cross-checked against the program's counters from (c).  A boundary
that should fire on the workload but never does is an error.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Dict, List, Tuple

from spans import Patches, Recorder
from workloads import RoundResult, Workload, run_window

# Span names (one per layer boundary).
MODEL_CHECK_BUILD = "analysis.model_check.build_closed_system"
EXPLORE = "ioa.engine.explore"
SUCCESSORS = "ioa.engine.encoder.successor_sids"
ENCODE = "ioa.engine.encoder.encode"
DECODE = "ioa.engine.encoder.decode"
TRANSITIONS = "ioa.components.transitions"
ENABLED = "ioa.components.enabled_local_actions"
ACCEL_EXPLORE = "ioa.engine.accel.explore"
ACCEL_CORE = "ioa.engine.accel.explore_accel"
CAMPAIGN = "conformance.fuzzer.fuzz_campaign"
BUILD_SYSTEM = "conformance.harness.build_system"
BUILD_SCRIPT = "conformance.harness.build_script"
EXECUTE = "conformance.harness.execute_script"
CHECK = "conformance.oracles.check_execution"
COVERAGE = "conformance.coverage"
SHRINK = "conformance.shrink.shrink_script"
RUN_LOAD = "sim.load.run_load"
FROM_SPEC = "sim.session.from_spec"
SESSION_RUN = "sim.session.run"
METRICS = "sim.metrics"

_COMPONENTS = (TRANSITIONS, ENABLED)
_FUZZ = (CAMPAIGN, BUILD_SYSTEM, BUILD_SCRIPT, EXECUTE, SESSION_RUN,
         CHECK, COVERAGE) + _COMPONENTS

#: Boundaries that must fire in phase (b) of each workload.
EXPECTED = {
    "explore": (MODEL_CHECK_BUILD, EXPLORE, SUCCESSORS, ENCODE, DECODE)
    + _COMPONENTS,
    "fuzz-coverage": _FUZZ,
    "fuzz-shrink": _FUZZ + (SHRINK,),
    "load": (RUN_LOAD, FROM_SPEC, BUILD_SYSTEM, BUILD_SCRIPT, SESSION_RUN,
             METRICS) + _COMPONENTS,
}


class Tally:
    """Counts read from the results the program returns."""

    def __init__(self) -> None:
        self.steps = 0
        self.shrink_attempts = 0
        self.shrink_original = 0
        self.shrink_final = 0
        self.accel_fallbacks = 0

    def session_result(self, result) -> None:
        self.steps += result.steps

    def shrink_result(self, result) -> None:
        self.shrink_attempts += result.attempts
        self.shrink_original += result.original_length
        self.shrink_final += len(result.actions)


def _instrument(workload: Workload, patches: Patches, tally: Tally) -> None:
    for cls in workload.component_classes():
        patches.method(cls, "transitions", TRANSITIONS, record=False)
        patches.method(cls, "enabled_local_actions", ENABLED, record=False)
    if workload.name == "explore":
        from repro.ioa.engine.encoding import StateEncoder

        patches.function(workload.model_check, "build_closed_system",
                         MODEL_CHECK_BUILD)
        patches.function(workload.explorer, "explore", EXPLORE)
        patches.method(StateEncoder, "successor_sids", SUCCESSORS,
                       record=False)
        patches.method(StateEncoder, "encode", ENCODE, record=False)
        patches.method(StateEncoder, "decode", DECODE, record=False)
        return

    from repro.conformance import harness, pool, shrink
    from repro.sim import runner
    from repro.sim.session import Session

    patches.method(Session, "run", SESSION_RUN,
                   on_result=tally.session_result)
    if workload.name == "load":
        from repro.sim import metrics

        patches.function(workload.load, "run_load", RUN_LOAD)
        patches.method(Session, "from_spec", FROM_SPEC)
        # Session.from_spec imports these from the harness module.
        patches.function(harness, "build_system", BUILD_SYSTEM)
        patches.function(harness, "build_script", BUILD_SCRIPT)
        patches.function(metrics, "delivery_stats", METRICS)
        patches.function(metrics, "channel_stats", METRICS)
        return

    fuzzer = workload.fuzzer
    patches.function(fuzzer, "fuzz_campaign", CAMPAIGN)
    patches.function(fuzzer, "shrink_script", SHRINK,
                     on_result=tally.shrink_result)
    for module in (pool, shrink):
        patches.function(module, "execute_script", EXECUTE)
        patches.function(module, "check_execution", CHECK)
    patches.function(pool, "build_system", BUILD_SYSTEM)
    patches.function(pool, "build_script", BUILD_SCRIPT)
    # Coverage: fingerprinting a run's distinct states, then interning
    # them into the campaign table.  ``_distinct_states`` is the pool's
    # call site of ``distinct_states``; it is wrapped only while it exists.
    if hasattr(pool, "_distinct_states"):
        patches.function(pool, "_distinct_states", COVERAGE)
    patches.method(runner.ScenarioResult, "distinct_states", COVERAGE)
    table = fuzzer.InternTable

    class CampaignInternTable(table):
        __slots__ = ()

    patches.method(CampaignInternTable, "intern", COVERAGE, record=False)
    patches.replace(fuzzer, "InternTable", CampaignInternTable)


def _instrument_accel(workload: Workload, patches: Patches,
                      tally: Tally) -> None:
    from repro.ioa.engine import accel
    from repro.ioa.engine.encoding import EncodingOverflow

    def fallback(exc: BaseException) -> None:
        if isinstance(exc, (accel.AccelUnavailable, EncodingOverflow)):
            tally.accel_fallbacks += 1

    patches.function(workload.explorer, "explore", ACCEL_EXPLORE)
    patches.function(accel, "explore_accel", ACCEL_CORE, on_error=fallback)


def _cold_accel_build_s(scratch: str) -> float:
    """Build the compiled core into a throwaway cache directory."""
    from repro.ioa.engine import accel

    cache = tempfile.mkdtemp(prefix="accel-cold-", dir=scratch)
    previous = os.environ.get("REPRO_ACCEL_CACHE")
    os.environ["REPRO_ACCEL_CACHE"] = cache
    started = time.perf_counter()
    try:
        accel.ensure_built()
    except accel.AccelUnavailable:
        pass  # counted as fallbacks by the accel explores
    finally:
        elapsed = time.perf_counter() - started
        if previous is None:
            del os.environ["REPRO_ACCEL_CACHE"]
        else:
            os.environ["REPRO_ACCEL_CACHE"] = previous
        shutil.rmtree(cache, ignore_errors=True)
    return elapsed


def _program_counters(run) -> Tuple[Dict[str, float], float]:
    """Run ``run()`` under the program's tracer; its counters and wall."""
    from repro.obs import MemorySink, tracing

    with tracing(MemorySink()) as tracer:
        started = time.perf_counter()
        run()
        wall = time.perf_counter() - started
        counters = tracer.snapshot_counters()
    return counters, wall


def traced_run(workload: Workload, seconds: float, scratch: str,
               trace_path: str, names: List[str]) -> Tuple[dict, List[str]]:
    """Phases (a)-(c) plus the workload's extras; the per-layer metrics
    ``names``, 0 for a layer that does not run on this workload."""
    name = workload.name
    workload.workers = 1
    lines: List[str] = []

    # (a) tracing off; (b) and (c) repeat the same rounds.
    started = time.perf_counter()
    baseline, rounds = run_window(workload, seconds / 4)
    wall_a = time.perf_counter() - started

    recorder = Recorder()
    tally = Tally()
    patches = Patches(recorder)
    _instrument(workload, patches, tally)
    coverage_before = _coverage_totals(workload)
    recorder.start()
    try:
        traced, _ = run_window(workload, 0, rounds)
    finally:
        recorder.stop()
        patches.restore()
    coverage_b = tuple(after - before for before, after in zip(
        coverage_before, _coverage_totals(workload)))

    totals = [baseline, traced]
    counters, wall_c = _program_counters(
        lambda: totals.append(run_window(workload, 0, rounds)[0]))
    started = time.perf_counter()
    baseline_again, _ = run_window(workload, 0, rounds)
    wall_a = (wall_a + time.perf_counter() - started) / 2
    totals.append(baseline_again)

    for boundary in EXPECTED[name]:
        workload.check(recorder.calls(boundary) > 0,
                       f"traced {name}: boundary {boundary} never fired")

    metrics = dict.fromkeys(names, 0)
    metrics["trace.wall_s"] = recorder.wall_s
    metrics["trace.uncovered_s"] = recorder.uncovered_s
    metrics["obs.bench_trace_overhead_ratio"] = recorder.wall_s / wall_a
    metrics["obs.tracer_overhead_ratio"] = wall_c / wall_a
    metrics["ioa.components.transitions_calls"] = (
        recorder.calls(TRANSITIONS) + recorder.calls(ENABLED))
    metrics["ioa.components.transitions_s"] = (
        recorder.inclusive(TRANSITIONS) + recorder.inclusive(ENABLED))
    recorders = {"": recorder}

    if name == "explore":
        calls = recorder.calls(SUCCESSORS)
        hits = recorder.totals[SUCCESSORS].leaf_calls if calls else 0
        metrics.update({
            "analysis.model_check.build_s":
                recorder.inclusive(MODEL_CHECK_BUILD),
            "ioa.engine.explore.self_s": recorder.self_time(EXPLORE),
            "ioa.engine.encoder.successor_calls": calls,
            "ioa.engine.encoder.memo_hit_ratio": hits / calls if calls else 0,
            "ioa.engine.encoder.encode_s": recorder.inclusive(ENCODE),
            "ioa.engine.encoder.decode_s": recorder.inclusive(DECODE),
        })
        _cross_check(workload, lines, "explore.memo_queries", counters,
                     calls, "encoder successor_sids calls")
        _cross_check(workload, lines, "explore.memo_hits", counters,
                     hits, "successor_sids calls that stepped no component")

        accel_recorder = Recorder()
        accel_patches = Patches(accel_recorder)
        _instrument_accel(workload, accel_patches, tally)
        accel_recorder.start()
        try:
            totals.append(workload.accel_round())
        finally:
            accel_recorder.stop()
            accel_patches.restore()
        workload.check(accel_recorder.calls(ACCEL_CORE) > 0,
                       f"traced {name}: boundary {ACCEL_CORE} never fired")
        accel_counters, _ = _program_counters(workload.accel_round)
        _cross_check(workload, lines, "explore.accel_fallback",
                     accel_counters, tally.accel_fallbacks,
                     "explore_accel calls that raised a fallback signal")
        metrics["ioa.engine.accel.explore_s"] = accel_recorder.inclusive(
            ACCEL_EXPLORE)
        metrics["ioa.engine.accel.fallbacks"] = tally.accel_fallbacks
        metrics["ioa.engine.accel.build_s"] = _cold_accel_build_s(scratch)
        recorders["accel"] = accel_recorder
    else:
        metrics.update({
            "conformance.harness.build_system_s":
                recorder.inclusive(BUILD_SYSTEM),
            "conformance.harness.build_script_s":
                recorder.inclusive(BUILD_SCRIPT),
            "conformance.harness.execute_script_s":
                recorder.inclusive(EXECUTE),
            "sim.session.steps": tally.steps,
            "conformance.oracles.check_s": recorder.inclusive(CHECK),
            "sim.session.run_s": recorder.inclusive(SESSION_RUN),
        })
        _cross_check(workload, lines, "sim.steps", counters, tally.steps,
                     "steps of the ScenarioResults Session.run returned")

    if name.startswith("fuzz"):
        metrics["conformance.fuzzer.self_s"] = recorder.self_time(CAMPAIGN)
        metrics["conformance.coverage_s"] = recorder.inclusive(COVERAGE)
        interned, run_steps = coverage_b
        metrics["conformance.coverage.new_state_ratio"] = (
            interned / run_steps if run_steps else 0)
        metrics["conformance.shrink.self_s"] = recorder.self_time(SHRINK)
        metrics["conformance.shrink.reexecutions"] = tally.shrink_attempts
        metrics["conformance.shrink.reduction_ratio"] = (
            tally.shrink_final / tally.shrink_original
            if tally.shrink_original else 0)
        _cross_check(workload, lines, "fuzz.shrink_executions", counters,
                     tally.shrink_attempts,
                     "ShrinkResult.attempts of the shrink_script calls")

    if name == "fuzz-shrink":
        workload.pool_log.clear()
        pooled = RoundResult()
        for index in range(rounds):
            pooled.add(workload.round(index, workers=workload.pool_workers))
        totals.append(pooled)
        serial_s = (baseline.wall_s + baseline_again.wall_s) / 2
        metrics["conformance.pool.efficiency"] = serial_s / (
            workload.pool_workers * pooled.wall_s)
        metrics["conformance.pool.batches"] = sum(
            info.get("batches", 0) for info in workload.pool_log)
        metrics["conformance.pool.fallbacks"] = sum(
            1 for info in workload.pool_log
            if info.get("mode") != "fork")

    if name == "load":
        metrics["sim.load.self_s"] = recorder.self_time(RUN_LOAD)
        metrics["sim.session.build_s"] = recorder.inclusive(FROM_SPEC)
        metrics["sim.metrics_s"] = recorder.inclusive(METRICS)

    unknown = set(metrics) - set(names)
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: "
                       f"{sorted(unknown)}")
    lines.extend(_layer_table(recorders))
    for phase, rec in recorders.items():
        path = trace_path if not phase else trace_path.replace(
            ".jsonl", f"-{phase}.jsonl")
        rec.write(path, {"workload": name, "seed": workload.seed,
                         "phase": phase or "main", "rounds": rounds})
    lines.append(f"spans written to {os.path.relpath(trace_path)}")
    attempted = sum(total.attempted for total in totals)
    failed = sum(total.failed for total in totals)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "rounds": rounds}, lines


def _coverage_totals(workload: Workload) -> Tuple[int, int]:
    """(states interned, run steps) summed over the campaigns so far."""
    return (getattr(workload, "interned", 0),
            getattr(workload, "run_steps", 0))


def _cross_check(workload: Workload, lines: List[str], counter: str,
                 counters: Dict[str, float], measured: int,
                 what: str) -> None:
    program = counters.get(counter, 0)
    agree = program == measured
    lines.append(f"cross-check {counter}: program {program}, benchmark "
                 f"{measured} ({what}) {'agree' if agree else 'DIFFER'}")
    workload.check(agree, f"traced {workload.name}: program counter "
                   f"{counter}={program} but the benchmark counted {measured}")


def _layer_table(recorders: Dict[str, Recorder]) -> List[str]:
    lines = []
    for phase, rec in recorders.items():
        title = phase or "main"
        lines.append(f"self time per layer ({title} phase, wall "
                     f"{rec.wall_s:.3f} s):")
        for span, totals in sorted(rec.totals.items(),
                                   key=lambda item: -item[1].self_s):
            share = totals.self_s / rec.wall_s if rec.wall_s else 0.0
            lines.append(
                f"  {span:<44} self {totals.self_s:9.4f} s {share:6.1%}  "
                f"incl {totals.inclusive_s:9.4f} s  calls {totals.calls}")
        share = rec.uncovered_s / rec.wall_s if rec.wall_s else 0.0
        lines.append(f"  {'(uncovered by any span)':<44} self "
                     f"{rec.uncovered_s:9.4f} s {share:6.1%}")
    return lines

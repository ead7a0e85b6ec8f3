"""States/sec benchmark emitter for the exploration engine.

Times the exploration-engine backend against the reference naive BFS on
the exhaustive-verification closed systems of the protocol zoo and
writes the results to ``bench/BENCH_explore.json`` so the perf
trajectory is tracked from PR to PR.  Run via::

    python benchmarks/run_experiments.py --bench-explore

or programmatically through :func:`write_bench_json`.

Analysis-layer imports happen inside the functions: this module lives
under :mod:`repro.ioa` and must not import :mod:`repro.analysis` at
module load (the analysis layer imports the ioa layer).
"""

from __future__ import annotations

import json
import os
import time
from statistics import median
from typing import Dict, Iterable, Tuple

DEFAULT_PATH = os.path.join("bench", "BENCH_explore.json")
TRACE_PATH = os.path.join("bench", "BENCH_explore_trace.jsonl")

#: (protocol key, factory-name, messages, capacity, reorder_depth,
#: expected_ok).  ``expected_ok=False`` marks a case whose invariant
#: violation is the *point* of the case -- abp-reorder-2 exists because
#: the alternating-bit protocol is provably broken under depth-2
#: reordering (the Section 8 contrast), and the benchmark doubles as a
#: regression test that the engine still finds that counterexample.
#:
#: The headline cases run at (messages=3, capacity=3): a few thousand
#: states each, enough for states/sec to measure steady-state stepping
#: throughput rather than the per-run fixed cost (building the closed
#: system and warming the encoder's stepping memos, which every backend
#: pays once per exploration).  ``abp-small`` keeps the old tiny
#: configuration so the fixed-cost regime stays visible in the report.
DEFAULT_CASES: Tuple[Tuple[str, str, int, int, int, bool], ...] = (
    ("abp", "alternating_bit_protocol", 3, 3, 1, True),
    ("sliding-window-2", "sliding_window_protocol:2", 2, 2, 1, True),
    ("stenning", "stenning_protocol", 3, 3, 1, True),
    ("fragmenting", "fragmenting_protocol:1,2", 3, 3, 1, True),
    ("abp-small", "alternating_bit_protocol", 2, 2, 1, True),
    ("abp-reorder-2", "alternating_bit_protocol", 2, 3, 2, False),
)


def _protocol_factory(spec: str):
    """Resolve a ``name`` / ``name:args`` spec to a protocol factory."""
    from repro import protocols as zoo

    if ":" not in spec:
        return getattr(zoo, spec)
    name, raw_args = spec.split(":", 1)
    args = tuple(int(piece) for piece in raw_args.split(","))
    factory = getattr(zoo, name)
    return lambda: factory(*args)


def _time_explore(explore_fn, build_system, repeats: int):
    """Median wall-clock over ``repeats`` runs; returns (seconds, result).

    ``build_system`` returns a fresh (composition, invariant) pair per
    repeat, matching the real workload (``verify_delivery_order``
    constructs a fresh closed system per call), so neither explorer is
    flattered by caches warmed on a previous repeat.
    """
    timings = []
    result = None
    for _ in range(repeats):
        composition, invariant = build_system()
        started = time.perf_counter()
        result = explore_fn(
            composition, invariant=invariant, max_depth=10_000_000
        )
        timings.append(time.perf_counter() - started)
    return median(timings), result


def run_bench(
    cases: Iterable[Tuple[str, str, int, int, int, bool]] = DEFAULT_CASES,
    repeats: int = 3,
) -> Dict:
    """Benchmark engine vs. reference BFS on each closed system.

    Every case is cross-checked while it is timed: the engine, the
    reference, and (when the compiled backend is available) the
    accelerated backend must agree on the reachable-state set and the
    ``truncated`` flag, so a benchmark run is also a three-way
    differential test.
    """
    from repro.analysis.model_check import build_closed_system
    from repro.ioa.engine.accel import accel_backend_id
    from repro.ioa.explorer import explore

    backend = accel_backend_id()
    if hasattr(os, "sched_getaffinity"):
        effective_cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without affinity masks
        effective_cpus = os.cpu_count() or 1
    report: Dict = {
        "generated_by": "repro.ioa.engine.bench",
        "repeats": repeats,
        "accel_backend": backend,
        # Absolute states/sec is host-dependent; regression gates
        # should annotate or skip when the affinity mask is starved
        # (mirrors the fuzz bench's oversubscription annotation).
        "effective_cpus": effective_cpus,
        "protocols": {},
    }
    speedups = []
    accel_speedups = []
    for key, spec, messages, capacity, reorder_depth, expected_ok in cases:

        def build_system(spec=spec):
            composition, invariant, _ = build_closed_system(
                _protocol_factory(spec)(),
                messages=messages,
                capacity=capacity,
                reorder_depth=reorder_depth,
            )
            return composition, invariant

        def engine_fn(composition, invariant, max_depth):
            return explore(
                composition, invariant=invariant, max_depth=max_depth
            )

        def reference_fn(composition, invariant, max_depth):
            return explore(
                composition,
                invariant=invariant,
                max_depth=max_depth,
                engine="reference",
            )

        def accel_fn(composition, invariant, max_depth):
            return explore(
                composition,
                invariant=invariant,
                max_depth=max_depth,
                engine="accel",
            )

        engine_seconds, engine_result = _time_explore(
            engine_fn, build_system, repeats
        )
        reference_seconds, reference_result = _time_explore(
            reference_fn, build_system, repeats
        )
        if backend is not None:
            accel_seconds, accel_result = _time_explore(
                accel_fn, build_system, repeats
            )
        else:
            # No compiler: explore(engine="accel") would silently fall
            # back and time the engine twice, which is not a
            # measurement.  The columns stay null instead.
            accel_seconds, accel_result = None, None
        if engine_result.states != reference_result.states:
            raise AssertionError(
                f"{key}: engine and reference disagree on the "
                "reachable-state set"
            )
        if engine_result.truncated != reference_result.truncated:
            raise AssertionError(
                f"{key}: engine and reference disagree on truncation"
            )
        if accel_result is not None:
            if set(accel_result.states) != engine_result.states:
                raise AssertionError(
                    f"{key}: accel and engine disagree on the "
                    "reachable-state set"
                )
            if accel_result.truncated != engine_result.truncated:
                raise AssertionError(
                    f"{key}: accel and engine disagree on truncation"
                )
            if accel_result.ok != engine_result.ok:
                raise AssertionError(
                    f"{key}: accel and engine disagree on the verdict"
                )
        if engine_result.ok != expected_ok:
            raise AssertionError(
                f"{key}: verdict ok={engine_result.ok} does not match "
                f"expected_ok={expected_ok}"
            )
        states = len(engine_result.states)
        speedup = reference_seconds / engine_seconds
        speedups.append(speedup)
        note = (
            None
            if expected_ok
            else "expected failure: this protocol provably violates the "
            "invariant in this configuration (abp-reorder-2: the "
            "alternating-bit protocol breaks under depth-2 reordering)"
        )
        row = {
            "messages": messages,
            "capacity": capacity,
            "reorder_depth": reorder_depth,
            "states": states,
            "ok": engine_result.ok,
            "expected_ok": expected_ok,
            "note": note,
            "engine_seconds": round(engine_seconds, 6),
            "engine_states_per_sec": round(states / engine_seconds, 1),
            "reference_seconds": round(reference_seconds, 6),
            "reference_states_per_sec": round(
                states / reference_seconds, 1
            ),
            "speedup": round(speedup, 2),
            "accel_seconds": None,
            "accel_states_per_sec": None,
            "accel_speedup": None,
        }
        if accel_seconds is not None:
            accel_speedup = engine_seconds / accel_seconds
            accel_speedups.append(accel_speedup)
            row["accel_seconds"] = round(accel_seconds, 6)
            row["accel_states_per_sec"] = round(
                states / accel_seconds, 1
            )
            row["accel_speedup"] = round(accel_speedup, 2)
        report["protocols"][key] = row
    report["median_speedup"] = round(median(speedups), 2)
    report["median_accel_speedup"] = (
        round(median(accel_speedups), 2) if accel_speedups else None
    )
    return report


def write_bench_trace(
    path: str = TRACE_PATH,
    case: Tuple[str, str, int, int, int, bool] = DEFAULT_CASES[0],
) -> Dict:
    """Run one benchmark exploration under full tracing.

    Writes the exploration's structured event stream (layer spans,
    intern/memo counters, frontier gauges) plus the closing run
    manifest to ``path`` as JSONL — the artifact CI uploads so a perf
    regression can be diagnosed from the trace, not just the number.
    """
    from repro.analysis.model_check import build_closed_system
    from repro.ioa.explorer import explore
    from repro.obs import trace_run

    key, spec, messages, capacity, reorder_depth, _expected_ok = case
    composition, invariant, _ = build_closed_system(
        _protocol_factory(spec)(),
        messages=messages,
        capacity=capacity,
        reorder_depth=reorder_depth,
    )
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with trace_run(
        path,
        command="bench-explore",
        protocol=key,
        config={
            "messages": messages,
            "capacity": capacity,
            "reorder_depth": reorder_depth,
        },
    ) as tracer:
        result = explore(
            composition, invariant=invariant, max_depth=10_000_000
        )
    return {
        "path": path,
        "protocol": key,
        "states": len(result.states),
        "counters": tracer.snapshot_counters(),
    }


def write_bench_json(
    path: str = DEFAULT_PATH,
    cases: Iterable[Tuple[str, str, int, int, int, bool]] = DEFAULT_CASES,
    repeats: int = 3,
) -> Dict:
    """Run the benchmark and write the JSON report to ``path``."""
    report = run_bench(cases=cases, repeats=repeats)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return report

"""Multi-session load generator: thousands of sessions, one report.

This is the ROADMAP's "millions of users" workload: instead of one
sender/receiver pair per process (:mod:`repro.sim.runner`), a load run
schedules ``N`` concurrent protocol **sessions** -- each a (protocol,
channel family, SubSeed-derived per-session seed) triple with its own
generated script and fault schedule -- and multiplexes them through
the batched warm-worker pool (:func:`repro.conformance.pool.run_partitioned`,
the PR-6 engine the fuzzer runs on).

Determinism contract, inherited from the pool: the per-session
:class:`~repro.conformance.harness.SubSeeds` schedule is derived
serially up front from one master seed (session id = schedule index),
sessions are sharded across workers in contiguous batches **by session
id**, and the master's merge loop consumes shard streams strictly in
session-index order -- so every aggregate (throughput counters,
latency and delivery-ratio percentiles, per-shard summaries, the
``--trace`` event stream) is byte-identical whatever ``--workers`` or
``--batch-size`` says.  Sessions share no state (each is its own
composed system over its own seeded channel adversaries), which is
what makes the multiplexing trivial to reason about: any interleaving
of independent sessions yields the same per-session outcomes, so the
shard driver runs each session to quiescence and the "event loop" is
the lazy batch merge.

While merging, the master emits live dashboard telemetry through the
obs layer: ``load.sessions_done`` / ``load.sessions_active`` gauges,
``load.sessions`` / ``load.shard.sessions`` counters (the latter
tagged with its shard id), and per-session spans absorbed from the
workers' captured event chunks.

The CLI entry point is ``repro load --sessions N --steps S``; the
result is the unified :class:`~repro.obs.RunReport` envelope with
p50/p95/p99 latency (steps from ``send_msg`` to ``receive_msg``) and
per-session delivery-ratio percentiles.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import (
    STATUS_ERROR,
    STATUS_OK,
    RunReport,
    current_tracer,
)
from .metrics import percentile_summary
from .session import Session

#: Fraction digits kept for ratio/mean fields in the report details --
#: fixed so serial and pooled JSON renderings are byte-identical.
_ROUND = 6


@dataclass(frozen=True)
class LoadConfig:
    """Knobs for one load run.

    ``sessions`` is the number of concurrent conversations;
    ``messages`` (the CLI's ``--steps``) how many fresh messages each
    session's script offers.  The channel and fault knobs mirror
    :class:`~repro.conformance.harness.FuzzConfig`, so a load session
    is constructed exactly like a fuzz run -- apply a named fault mix
    with :func:`with_load_mix`.
    """

    sessions: int = 100
    messages: int = 4
    mix: str = "default"
    loss_rate: float = 0.2
    reorder_window: int = 4
    horizon: int = 1024
    max_interleave: int = 8
    max_steps: int = 60_000
    fail_probability: float = 0.05
    receiver_fail_probability: float = 0.05
    crash_probability: float = 0.0


def with_load_mix(config: LoadConfig, mix: str) -> LoadConfig:
    """``config`` with the named fuzz fault mix's overrides applied.

    The mixes are shared with ``repro fuzz`` (one vocabulary:
    ``default``, ``clean``, ``drop-flood``, ``reorder-flood``,
    ``crash-storm``); the chosen name is recorded on the config for
    the report.
    """
    from ..conformance.harness import FAULT_MIXES

    if mix not in FAULT_MIXES:
        raise KeyError(
            f"unknown fault mix {mix!r}; available: "
            + ", ".join(sorted(FAULT_MIXES))
        )
    return replace(config, mix=mix, **FAULT_MIXES[mix])


def _fuzz_config(config: LoadConfig):
    """The harness-facing view of a load config (script/channel knobs)."""
    from ..conformance.harness import FuzzConfig

    return FuzzConfig(
        messages=config.messages,
        loss_rate=config.loss_rate,
        reorder_window=config.reorder_window,
        horizon=config.horizon,
        max_interleave=config.max_interleave,
        max_steps=config.max_steps,
        fail_probability=config.fail_probability,
        receiver_fail_probability=config.receiver_fail_probability,
        crash_probability=config.crash_probability,
        shrink=False,
    )


@dataclass
class SessionOutcome:
    """Everything one session ships back to the load master.

    Compact by construction: per-message latencies (step counts) and
    the delivery tallies, never the execution fragment -- a
    thousand-session run must not pickle a thousand executions.
    ``events`` is the session's captured obs chunk (empty unless the
    master is tracing), absorbed into the master stream at merge time.
    ``duration_s`` is wall-clock telemetry and excluded from the
    cross-worker identity contract.
    """

    index: int
    subseeds: object = None
    steps: int = 0
    quiescent: bool = False
    sent: int = 0
    delivered: int = 0
    duplicates: int = 0
    dropped: int = 0
    latencies: Tuple[int, ...] = ()
    events: Tuple = ()
    error: Optional[str] = None
    timed_out: bool = False
    duration_s: float = 0.0

    @property
    def delivery_ratio(self) -> float:
        """Delivered / sent, degenerate cases pinned like
        :class:`~repro.sim.metrics.DeliveryStats`."""
        if self.sent:
            return self.delivered / self.sent
        return 0.0 if self.delivered else 1.0


@dataclass
class SessionBatch:
    """One shard's worth of session outcomes, in session-index order."""

    start: int
    outcomes: Tuple[SessionOutcome, ...]


def run_session(
    protocol: str,
    channel: str,
    index: int,
    subseeds,
    config: LoadConfig,
    capture: bool = False,
    run_timeout: Optional[float] = None,
    resolved=None,
) -> SessionOutcome:
    """One complete session: build, run to quiescence, summarize.

    Pure in ``(protocol, channel, subseeds, config)`` modulo the
    wall-clock fields, which is what lets shards execute anywhere and
    merge deterministically.  Every exception is contained into a
    failed-session outcome, mirroring the fuzz pool's hardening.
    """
    from ..conformance.pool import RunTimeout, _alarm, _capturing

    started = time.perf_counter()
    try:
        with _alarm(run_timeout):
            with _capturing(capture) as events:
                session = Session.from_spec(
                    protocol,
                    channel,
                    subseeds,
                    _fuzz_config(config),
                    resolved=resolved,
                )
                result = session.run()
                metrics = result.metrics()
    except RunTimeout as exc:
        return SessionOutcome(
            index=index,
            subseeds=subseeds,
            error=str(exc),
            timed_out=True,
            duration_s=time.perf_counter() - started,
        )
    except Exception as exc:  # containment: one session, not the run
        return SessionOutcome(
            index=index,
            subseeds=subseeds,
            error=f"{type(exc).__name__}: {exc}",
            duration_s=time.perf_counter() - started,
        )
    return SessionOutcome(
        index=index,
        subseeds=subseeds,
        steps=result.steps,
        quiescent=result.quiescent,
        sent=metrics.delivery.sent,
        delivered=metrics.delivery.delivered,
        duplicates=metrics.delivery.duplicates,
        dropped=metrics.packets_dropped,
        latencies=metrics.delivery.latencies,
        events=tuple(events),
        duration_s=time.perf_counter() - started,
    )


def run_session_batch(
    protocol: str,
    channel: str,
    start: int,
    batch: Sequence,
    config: LoadConfig,
    capture: bool = False,
    run_timeout: Optional[float] = None,
    resolved=None,
    clock: Callable[[], float] = time.perf_counter,
) -> SessionBatch:
    """Execute one shard of consecutive sessions inside a single worker.

    Applies the same per-batch wall-clock budget accounting as the
    fuzz pool: a shard of N sessions gets ``N * run_timeout`` seconds
    total, each session is individually bounded, and a shard that
    exhausts its budget records its remaining sessions as timed out
    instead of overrunning.  ``clock`` exists so tests can drive the
    accounting deterministically.
    """
    budget = run_timeout * len(batch) if run_timeout else None
    batch_started = clock()
    outcomes: List[SessionOutcome] = []
    for offset, subseeds in enumerate(batch):
        index = start + offset
        allowance = run_timeout
        if budget is not None:
            remaining = budget - (clock() - batch_started)
            if remaining <= 0:
                outcomes.append(
                    SessionOutcome(
                        index=index,
                        subseeds=subseeds,
                        error=(
                            f"shard exhausted its {budget}s wall-clock "
                            f"budget before session {index}"
                        ),
                        timed_out=True,
                    )
                )
                continue
            allowance = min(run_timeout, remaining)
        outcomes.append(
            run_session(
                protocol,
                channel,
                index,
                subseeds,
                config,
                capture=capture,
                run_timeout=allowance,
                resolved=resolved,
            )
        )
    return SessionBatch(start=start, outcomes=tuple(outcomes))


# Worker-side globals, installed by the fork initializer (the load
# counterpart of the fuzz pool's ``_WORKER``).
_LOAD_WORKER: dict = {}


def _init_load_worker(
    protocol: str,
    channel: str,
    config: LoadConfig,
    capture: bool,
    run_timeout: Optional[float],
) -> None:
    from ..conformance.harness import resolve_pair
    from ..obs import set_tracer

    # Detach the tracer inherited across fork (it may hold the
    # master's open JSONL sink); workers capture into per-session
    # MemorySinks and the master replays the chunks.
    set_tracer(None)
    _LOAD_WORKER.update(
        protocol=protocol,
        channel=channel,
        config=config,
        capture=capture,
        run_timeout=run_timeout,
        resolved=resolve_pair(protocol, channel),
    )


def _load_pool_batch(task: Tuple[int, Tuple]) -> SessionBatch:
    start, batch = task
    return run_session_batch(
        _LOAD_WORKER["protocol"],
        _LOAD_WORKER["channel"],
        start,
        batch,
        _LOAD_WORKER["config"],
        capture=_LOAD_WORKER["capture"],
        run_timeout=_LOAD_WORKER["run_timeout"],
        resolved=_LOAD_WORKER["resolved"],
    )


@dataclass
class LoadResult:
    """Everything one load run produced, in session-index order."""

    protocol: str
    channel: str
    seed: int
    config: LoadConfig
    sessions: List[SessionOutcome]
    pool: Dict[str, object] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def failed_sessions(self) -> int:
        return sum(1 for s in self.sessions if s.error is not None)

    @property
    def timeouts(self) -> int:
        return sum(1 for s in self.sessions if s.timed_out)

    @property
    def completed(self) -> List[SessionOutcome]:
        return [s for s in self.sessions if s.error is None]

    @property
    def latencies(self) -> Tuple[int, ...]:
        """All per-message latencies, pooled across sessions."""
        pooled: List[int] = []
        for outcome in self.completed:
            pooled.extend(outcome.latencies)
        return tuple(pooled)

    def shard_summaries(self) -> List[Dict[str, int]]:
        """Per-shard aggregates (sessions, failures, steps, deliveries).

        Shards are the pool's contiguous session-id batches, so the
        summary is a pure function of the outcomes and the batch size
        -- identical whichever worker executed each shard.
        """
        size = int(self.pool.get("batch_size") or 1) or 1
        shards: List[Dict[str, int]] = []
        for start in range(0, len(self.sessions), size):
            chunk = self.sessions[start : start + size]
            shards.append(
                {
                    "start": start,
                    "sessions": len(chunk),
                    "failed": sum(
                        1 for s in chunk if s.error is not None
                    ),
                    "steps": sum(s.steps for s in chunk),
                    "delivered": sum(s.delivered for s in chunk),
                }
            )
        return shards

    def report(self) -> RunReport:
        """The unified envelope: aggregate throughput and percentiles.

        Identity contract: everything here is a pure function of
        ``(protocol, channel, seed, config)`` **except**
        ``duration_s``, ``details.throughput`` (wall-clock derived)
        and ``details.pool`` (execution telemetry) -- normalize those
        three away and ``--workers N`` is byte-identical to serial.
        """
        completed = self.completed
        latencies = self.latencies
        ratios = [s.delivery_ratio for s in completed]
        latency: Dict[str, object] = {"unit": "steps", "count": len(latencies)}
        latency.update(percentile_summary(latencies))
        latency["mean"] = round(
            sum(latencies) / len(latencies), _ROUND
        ) if latencies else 0.0
        latency["max"] = max(latencies) if latencies else 0
        ratio_summary = {
            name: round(value, _ROUND)
            for name, value in percentile_summary(ratios).items()
        }
        ratio_summary["min"] = round(min(ratios), _ROUND) if ratios else 0.0
        ratio_summary["mean"] = (
            round(sum(ratios) / len(ratios), _ROUND) if ratios else 0.0
        )
        wall = self.duration_s or 0.0
        throughput = {
            "sessions_per_sec": round(len(self.sessions) / wall, 1)
            if wall
            else None,
            "steps_per_sec": round(
                sum(s.steps for s in self.sessions) / wall, 1
            )
            if wall
            else None,
            "deliveries_per_sec": round(
                sum(s.delivered for s in self.sessions) / wall, 1
            )
            if wall
            else None,
        }
        counters = {
            "load.sessions": len(self.sessions),
            "load.failed_sessions": self.failed_sessions,
            "load.timeouts": self.timeouts,
            "load.nonquiescent_sessions": sum(
                1 for s in completed if not s.quiescent
            ),
            "load.steps": sum(s.steps for s in self.sessions),
            "load.messages_sent": sum(s.sent for s in self.sessions),
            "load.messages_delivered": sum(
                s.delivered for s in self.sessions
            ),
            "load.duplicate_deliveries": sum(
                s.duplicates for s in self.sessions
            ),
            "load.packets_dropped": sum(
                s.dropped for s in self.sessions
            ),
        }
        status = STATUS_OK
        if self.sessions and not completed:
            status = STATUS_ERROR
        return RunReport(
            command="load",
            status=status,
            counters=counters,
            duration_s=self.duration_s,
            details={
                "protocol": self.protocol,
                "channel": self.channel,
                "seed": self.seed,
                "sessions": len(self.sessions),
                "messages_per_session": self.config.messages,
                "mix": self.config.mix,
                "latency": latency,
                "delivery_ratio": ratio_summary,
                "throughput": throughput,
                # Shard layout follows the pool's batch size, so it is
                # execution telemetry, normalized away with the rest.
                "pool": {**self.pool, "shards": self.shard_summaries()},
            },
        )


def run_load(
    protocol: str,
    channel: str,
    seed: int,
    config: Optional[LoadConfig] = None,
    workers: int = 1,
    run_timeout: Optional[float] = None,
    batch_size: Optional[int] = None,
) -> LoadResult:
    """Run one multi-session load campaign.

    Derives ``config.sessions`` per-session SubSeeds bundles from the
    master ``seed`` (session id = derivation index), shards them
    across ``workers`` persistent forked workers in ``batch_size``
    chunks of consecutive session ids, and merges the shard streams in
    session-index order, emitting the live obs gauges as sessions
    complete.  ``run_timeout`` bounds each session's wall-clock
    seconds (shards are additionally held to a ``len(batch) *
    run_timeout`` total); a session that exceeds it, raises, or loses
    its worker is recorded as a failed :class:`SessionOutcome` instead
    of aborting the run.
    """
    from ..conformance.harness import SubSeeds
    from ..conformance.pool import run_partitioned
    from ..conformance.registry import (
        resolve_fuzz_channel,
        resolve_fuzz_protocol,
    )

    # Configuration errors are not contained failures: validate the
    # registry names (and the derived harness config) eagerly.
    resolve_fuzz_protocol(protocol)
    resolve_fuzz_channel(channel)

    config = config or LoadConfig()
    tracer = current_tracer()
    started = time.perf_counter()
    master = random.Random(seed)
    schedule = [SubSeeds.derive(master) for _ in range(config.sessions)]

    def _serial_batch(start, items):
        return run_session_batch(
            protocol,
            channel,
            start,
            items,
            config,
            capture=tracer.enabled,
            run_timeout=run_timeout,
        ).outcomes

    def _failed(index, subseeds, message):
        return SessionOutcome(
            index=index, subseeds=subseeds, error=message
        )

    sessions: List[SessionOutcome] = []
    with tracer.span("load.run", sessions=len(schedule), seed=seed):
        outcomes, pool_info = run_partitioned(
            schedule,
            serial_batch=_serial_batch,
            pool_task=_load_pool_batch,
            initializer=_init_load_worker,
            initargs=(
                protocol,
                channel,
                config,
                tracer.enabled,
                run_timeout,
            ),
            failed_outcome=_failed,
            workers=workers,
            batch_size=batch_size,
        )
        if tracer.enabled:
            tracer.count("load.sessions_scheduled", len(schedule))
        for outcome in outcomes:
            with tracer.span("load.session", index=outcome.index):
                tracer.absorb(outcome.events)
                outcome.events = ()  # absorbed; free the chunk
                sessions.append(outcome)
                if tracer.enabled:
                    shard = outcome.index // pool_info.batch_size
                    tracer.count("load.sessions")
                    tracer.count("load.shard.sessions", 1, shard=shard)
                    if outcome.error is not None:
                        tracer.count("load.failed_sessions")
                    tracer.gauge("load.sessions_done", len(sessions))
                    tracer.gauge(
                        "load.sessions_active",
                        len(schedule) - len(sessions),
                    )

    return LoadResult(
        protocol=protocol,
        channel=channel,
        seed=seed,
        config=config,
        sessions=sessions,
        pool={
            "mode": pool_info.mode,
            "workers": max(1, int(workers)),
            "batch_size": pool_info.batch_size,
            "batches": pool_info.batches,
            "run_timeout": run_timeout,
            **(
                {"fallback_reason": pool_info.fallback_reason}
                if pool_info.fallback_reason
                else {}
            ),
        },
        duration_s=time.perf_counter() - started,
    )


def normalized_report(report_dict: Dict) -> Dict:
    """A load RunReport dict with the wall-clock keys normalized away.

    This is the identity the ``--workers N`` contract is stated over:
    ``normalized_report(serial) == normalized_report(pooled)``.
    """
    import copy

    normalized = copy.deepcopy(report_dict)
    normalized["duration_s"] = None
    normalized.get("details", {}).pop("pool", None)
    normalized.get("details", {}).pop("throughput", None)
    return normalized

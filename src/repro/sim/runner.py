"""High-level simulation runner (legacy surface over the Session façade).

The scenario-driving loop -- script inputs interleaved with a random
(seeded) number of fair steps, then a drain to quiescence -- lives in
:class:`repro.sim.session.Session`.  This module keeps the historical
entry points: :class:`ScenarioResult` (what a run returns),
:func:`run_scenario` (a thin deprecation shim with its original
signature, so existing callers keep working) and :func:`run_batch`.
New code should construct a ``Session`` and call ``run()``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..ioa.actions import Action
from ..ioa.execution import ExecutionFragment
from ..obs import STATUS_OK, RunReport


@dataclass
class ScenarioResult:
    """Outcome of one simulated scenario."""

    fragment: ExecutionFragment
    behavior: Tuple[Action, ...]
    quiescent: bool

    @property
    def steps(self) -> int:
        return len(self.fragment)

    def distinct_states(self) -> list:
        """The run's distinct visited states, first-occurrence order.

        Deduplicated by value.  Consecutive states of an execution share
        almost all their slice objects, and every slice type hashes once
        per instance (:func:`~repro.ioa.hashing.hash_once`), so each
        probe re-hashes only the slices the step rebuilt -- these are
        the coverage values the fuzz pool ships.
        """
        return list(dict.fromkeys(self.fragment.states))

    def report(
        self,
        duration_s: float = 0.0,
        *,
        stations: Tuple[str, str] = ("t", "r"),
    ) -> RunReport:
        """This scenario as the unified :class:`~repro.obs.RunReport`.

        ``stations`` names the (transmitter, receiver) pair the
        delivery and channel statistics are computed over.

        The status is ``ok`` -- a scenario that ran to completion is a
        successful run whatever the protocol did; correctness verdicts
        come from the trace auditors, which the CLI folds in on top.
        """
        from .metrics import channel_stats, delivery_stats

        t, r = stations
        stats = delivery_stats(self.fragment, t, r)
        counters = {
            "sim.steps": self.steps,
            "sim.messages_sent": stats.sent,
            "sim.messages_delivered": stats.delivered,
            "sim.duplicate_deliveries": stats.duplicates,
            "sim.packets_dropped": _dropped(
                channel_stats(self.fragment, t, r)
            )
            + _dropped(channel_stats(self.fragment, r, t)),
        }
        return RunReport(
            command="simulate",
            status=STATUS_OK,
            counters=counters,
            duration_s=duration_s,
            details={
                "steps": self.steps,
                "quiescent": self.quiescent,
                "sent": stats.sent,
                "delivered": stats.delivered,
                "duplicates": stats.duplicates,
                "delivery_ratio": stats.delivery_ratio,
            },
        )


def _dropped(stats) -> int:
    """Packets that left a channel's send side and never arrived."""
    return max(0, stats.packets_sent - stats.packets_received)


def run_scenario(
    system,
    script: Iterable[Action],
    seed: int = 0,
    max_interleave: int = 8,
    max_steps: int = 200_000,
    rng: Optional[random.Random] = None,
) -> ScenarioResult:
    """Run a script with seeded interleaving, then drain to quiescence.

    Deprecation shim kept with its original signature: it now simply
    wraps :class:`repro.sim.session.Session`, which is where the
    semantics (and their documentation) live.  Prefer
    ``Session(system, tuple(script), seed=seed).run()`` in new code.
    """
    from .session import Session

    return Session(
        system=system,
        script=tuple(script),
        seed=seed,
        max_interleave=max_interleave,
        max_steps=max_steps,
        rng=rng,
    ).run()


def run_batch(
    build_system,
    build_script,
    seeds: Iterable[int],
    **scenario_kwargs,
) -> Tuple[ScenarioResult, ...]:
    """Run one scenario per seed with fresh systems.

    ``build_system(seed)`` returns a :class:`DataLinkSystem`;
    ``build_script(system, seed)`` returns the input script.
    """
    results = []
    for seed in seeds:
        system = build_system(seed)
        script = build_script(system, seed)
        results.append(
            run_scenario(system, script, seed=seed, **scenario_kwargs)
        )
    return tuple(results)

"""Bounded state-space exploration for I/O automata.

Small utilities used by tests and examples to exhaustively explore the
reachable states of an automaton (or composition) under a bounded input
environment.  This provides lightweight model checking of safety
invariants -- e.g. "the alternating-bit protocol never delivers out of
order over any FIFO-channel adversary with at most N in-flight packets".

:func:`explore` is the public entry point; it delegates to
:mod:`repro.ioa.engine`, which keeps trace-free parent-pointer
frontiers and steps compositions over encoded states through the
:class:`~repro.ioa.engine.encoding.StateEncoder` per-slice memo.  The
original naive breadth-first search is preserved verbatim behind
``explore(engine="reference")``: it is the differential-testing oracle
the engine is validated against, and the ground truth for the result
contract.

Budget contract (both explorers): when the ``max_states`` budget is
reached the search stops immediately -- no further successors of the
current state or layer are expanded.  States that were queued but never
expanded still had the invariant checked when they were first reached,
so every state in ``ExplorationResult.states`` is certified even on a
truncated run.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Iterable, List, Optional, Set

from ..obs import current_tracer
from .actions import Action
from .automaton import Automaton, State
from .engine.core import (
    ExplorationResult,
    InputEnablednessError,
    explore_engine,
)

__all__ = [
    "ExplorationResult",
    "InputEnablednessError",
    "explore",
    "reachable_states",
]


def explore(
    automaton: Automaton,
    environment: Optional[Callable[[State], Iterable[Action]]] = None,
    invariant: Optional[Callable[[State], bool]] = None,
    max_states: int = 50_000,
    max_depth: int = 10_000,
    workers: Optional[int] = None,
    validate: bool = False,
    engine: str = "auto",
    initial_state: Optional[State] = None,
) -> ExplorationResult:
    """Breadth-first exploration of reachable states.

    ``initial_state`` overrides the automaton's own initial state --
    the self-stabilization workloads start the search from a corrupted
    composed state instead of the clean one.  The override must be a
    structurally valid state for the automaton; no reachability from
    the clean start is assumed (that is the point).

    At each state, the successors are all enabled locally-controlled
    actions plus whatever input actions the ``environment`` callback
    offers for that state.  ``invariant`` (if given) is checked at every
    reachable state; the first violating state and its action trace are
    reported (the trace is layer-minimal: BFS finds a shortest
    counterexample by action count).

    Nondeterministic transitions are followed exhaustively.

    ``workers`` is deprecated and ignored: exploration always runs
    serially (the compiled ``engine="accel"`` core is the fast path).
    Passing it emits a :class:`DeprecationWarning`.

    ``validate=True`` is a debug mode that checks input-enabledness at
    every expanded state: if the environment offers an input action with
    no transition, :class:`InputEnablednessError` is raised (this is
    ``Automaton.check_input_enabled`` wired into the engine).

    ``engine`` selects the backend: ``"auto"`` (the default) is the
    high-throughput engine; ``"accel"`` opts into the compiled
    packed-key core (built on demand from ``engine/_accel.c``; falls
    back to the engine -- counted as ``explore.accel_fallback`` --
    when no C compiler is available, the automaton is not a
    composition, an ``environment``/``validate`` is requested, or the
    state space outgrows the 64-bit packing; set
    ``REPRO_ACCEL_REQUIRE=1`` to make the fallback a hard error);
    ``"disk"`` spills the visited set and frontier to a self-cleaning
    scratch directory so exploration is bounded by disk rather than
    RAM (compositions only; RAM budget from ``$REPRO_DISK_RAM_CAP``,
    see :func:`repro.ioa.engine.diskstore.explore_disk`);
    ``"reference"`` is the original naive BFS kept verbatim as the
    differential-testing oracle (``validate`` is not supported with
    it).
    """
    if workers is not None:
        warnings.warn(
            "explore(workers=...) is deprecated and ignored; exploration "
            "runs serially (engine='accel' is the fast path)",
            DeprecationWarning,
            stacklevel=2,
        )
    if engine == "accel":
        from .engine.accel import AccelUnavailable, explore_accel
        from .engine.encoding import EncodingOverflow

        try:
            return explore_accel(
                automaton,
                environment=environment,
                invariant=invariant,
                max_states=max_states,
                max_depth=max_depth,
                validate=validate,
                initial_state=initial_state,
            )
        except (AccelUnavailable, EncodingOverflow) as exc:
            if os.environ.get("REPRO_ACCEL_REQUIRE"):
                raise
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count(
                    "explore.accel_fallback", 1, reason=str(exc)[:200]
                )
            engine = "auto"
    if engine == "disk":
        from .engine.diskstore import explore_disk

        return explore_disk(
            automaton,
            environment=environment,
            invariant=invariant,
            max_states=max_states,
            max_depth=max_depth,
            validate=validate,
            initial_state=initial_state,
        )
    if engine == "reference":
        if validate:
            raise ValueError(
                "validate=True is not supported by the reference "
                "explorer; use the default engine"
            )
        result = _reference_bfs(
            automaton,
            environment=environment or (lambda _: ()),
            invariant=invariant,
            max_states=max_states,
            max_depth=max_depth,
            initial_state=initial_state,
        )
        # The oracle body stays uninstrumented (it is the verbatim
        # baseline); the dispatcher reports its one headline figure.
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("explore.states", len(result.states))
        return result
    if engine != "auto":
        raise ValueError(
            f"unknown engine {engine!r}; expected 'auto', 'accel', "
            "'disk' or 'reference'"
        )
    return explore_engine(
        automaton,
        environment=environment,
        invariant=invariant,
        max_states=max_states,
        max_depth=max_depth,
        validate=validate,
        initial_state=initial_state,
    )


def _reference_bfs(
    automaton: Automaton,
    environment: Callable[[State], Iterable[Action]] = lambda _: (),
    invariant: Optional[Callable[[State], bool]] = None,
    max_states: int = 50_000,
    max_depth: int = 10_000,
    initial_state: Optional[State] = None,
) -> ExplorationResult:
    """The original naive BFS, kept as the differential-testing oracle.

    Carries the full action trace in every frontier entry (O(depth)
    memory per state) and re-derives every component step; the engine
    behind :func:`explore` must return exactly this reachable-state
    set, ``truncated`` flag, and an equally short counterexample.
    """
    from collections import deque

    start = (
        initial_state
        if initial_state is not None
        else automaton.initial_state()
    )
    if invariant is not None and not invariant(start):
        return ExplorationResult({start}, False, (start, ()))

    seen: Set[State] = {start}
    frontier = deque([(start, (), 0)])
    truncated = False
    while frontier:
        state, trace, depth = frontier.popleft()
        if depth >= max_depth:
            truncated = True
            continue
        actions: List[Action] = list(automaton.enabled_local_actions(state))
        actions.extend(environment(state))
        for action in actions:
            for successor in automaton.transitions(state, action):
                if successor in seen:
                    continue
                new_trace = trace + (action,)
                if invariant is not None and not invariant(successor):
                    seen.add(successor)
                    return ExplorationResult(
                        seen, truncated, (successor, new_trace)
                    )
                if len(seen) >= max_states:
                    # Budget spent: stop at once instead of grinding
                    # through the remaining successors and frontier
                    # (every queued state was already invariant-checked
                    # when it was enqueued).
                    return ExplorationResult(seen, True)
                seen.add(successor)
                frontier.append((successor, new_trace, depth + 1))
    return ExplorationResult(seen, truncated)


def reachable_states(
    automaton: Automaton,
    environment: Optional[Callable[[State], Iterable[Action]]] = None,
    max_states: int = 50_000,
    workers: Optional[int] = None,
) -> Set[State]:
    """The set of states reachable under the given environment.

    ``workers`` is deprecated and ignored, as on :func:`explore`.
    """
    if workers is not None:
        warnings.warn(
            "reachable_states(workers=...) is deprecated and ignored; "
            "exploration runs serially",
            DeprecationWarning,
            stacklevel=2,
        )
    return explore(
        automaton, environment=environment, max_states=max_states
    ).states

"""Refinement mappings: proving ``solves`` structurally (paper, Section 2.4).

The paper's ``A solves H`` is an inclusion of behavior sets.  The
classical way to *prove* such inclusions in the I/O-automaton tradition
is a simulation; this module implements its simplest form, a
**refinement mapping**: a function ``f`` from implementation states to
specification states such that

* ``f(start_impl)`` is the specification's start state,
* for every reachable implementation step ``(s, a, s')``:

  - if ``a`` is an action of the specification, then
    ``(f(s), a, f(s'))`` is a specification step;
  - otherwise the step *stutters*: ``f(s') = f(s)``.

Every behavior of the implementation (projected onto specification
actions) is then a behavior of the specification.  The check is run
exhaustively over the implementation's reachable states (under an
optional input environment), so at bounded scope it is a proof, with a
concrete failing step reported otherwise.

Used by the tests to prove, e.g., that the alternating-bit protocol
composed with arbitrary bounded lossy FIFO channels refines a
one-queue reliable-delivery specification automaton -- the structural
counterpart of the harness' sampled ``DL`` conformance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from .actions import Action
from .automaton import Automaton, State
from .composition import Composition
from .engine.core import _CompositionSearch, _reconstruct


@dataclass
class RefinementResult:
    """Outcome of an exhaustive refinement check."""

    holds: bool
    states_checked: int
    exhaustive: bool
    failure: Optional[str] = None
    failing_trace: Tuple[Action, ...] = ()

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


def _stepper(
    implementation: Automaton,
    environment: Callable[[State], Iterable[Action]],
) -> Tuple[
    Callable[[State], Hashable],
    Callable[[Hashable], State],
    Callable[[Hashable, State], Iterator[Tuple[Action, Hashable]]],
]:
    """How the walk keys, recovers and steps implementation states.

    Returns ``(encode, decode, successors)``: the walk keys its parent
    map on ``encode(state)``, recovers a state with ``decode`` only to
    apply the mapping and the environment, and ``successors(key,
    state)`` yields ``(action, successor key)`` in the explorer's order
    (enabled local actions, then the environment's inputs).  A
    :class:`Composition` is walked over encoded states, each slice
    stepped through the :class:`~repro.ioa.engine.encoding.StateEncoder`
    per-slice memo; any other automaton steps through ``transitions``.
    """
    if isinstance(implementation, Composition):
        search = _CompositionSearch(implementation)
        encoder = search.encoder
        action_of_token = encoder.action_of_token

        def composed(key, state):
            for token, successor in search.expand(key, environment(state)):
                yield action_of_token[token], successor

        return encoder.encode, encoder.decode, composed

    def plain(state, _):
        actions = list(implementation.enabled_local_actions(state))
        actions.extend(environment(state))
        for action in actions:
            for successor in implementation.transitions(state, action):
                yield action, successor

    return _identity, _identity, plain


def _identity(state):
    return state


def check_refinement(
    implementation: Automaton,
    specification: Automaton,
    mapping: Callable[[State], State],
    environment: Callable[[State], Iterable[Action]] = lambda _: (),
    max_states: int = 200_000,
) -> RefinementResult:
    """Exhaustively check that ``mapping`` is a refinement mapping.

    Explores the implementation's reachable states (locally-controlled
    actions plus whatever inputs ``environment`` offers) and validates
    the two refinement conditions at every step.  Specification actions
    are those in ``specification.signature``; all other implementation
    actions must stutter.

    The walk is trace-free: instead of carrying an O(depth) action
    trace per frontier entry, a parent-pointer map records one
    (predecessor, action) pair per state and the failing trace is
    reconstructed only when a condition is actually violated.  A
    composed implementation is walked over encoded states, so each
    component slice is stepped once per action however many composed
    states contain it.
    """
    start = implementation.initial_state()
    if mapping(start) != specification.initial_state():
        return RefinementResult(
            False,
            0,
            True,
            failure=(
                f"start state maps to {mapping(start)!r}, not the "
                f"specification start {specification.initial_state()!r}"
            ),
        )
    encode, decode, successors = _stepper(implementation, environment)
    is_spec_action = specification.signature.contains
    start_key = encode(start)
    # parents doubles as the seen set: key -> (predecessor key, action),
    # None for the start state.
    parents: Dict[Hashable, Optional[Tuple[Hashable, Action]]] = {
        start_key: None
    }
    frontier: List[Hashable] = [start_key]
    truncated = False

    def failing_trace(key: Hashable, action: Action) -> Tuple[Action, ...]:
        return _reconstruct(parents, key) + (action,)

    while frontier:
        next_frontier: List[Hashable] = []
        for key in frontier:
            state = decode(key)
            abstract = mapping(state)
            for action, successor in successors(key, state):
                new_abstract = mapping(decode(successor))
                if is_spec_action(action):
                    if new_abstract not in specification.transitions(
                        abstract, action
                    ):
                        return RefinementResult(
                            False,
                            len(parents),
                            not truncated,
                            failure=(
                                f"step {action} maps {abstract!r} to "
                                f"{new_abstract!r}, which is not a "
                                "specification step"
                            ),
                            failing_trace=failing_trace(key, action),
                        )
                elif new_abstract != abstract:
                    return RefinementResult(
                        False,
                        len(parents),
                        not truncated,
                        failure=(
                            f"non-specification step {action} failed "
                            f"to stutter: {abstract!r} became "
                            f"{new_abstract!r}"
                        ),
                        failing_trace=failing_trace(key, action),
                    )
                if successor in parents:
                    continue
                if len(parents) >= max_states:
                    truncated = True
                    continue
                parents[successor] = (key, action)
                next_frontier.append(successor)
        frontier = next_frontier
    return RefinementResult(True, len(parents), not truncated)

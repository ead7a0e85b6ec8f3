"""High-throughput bounded BFS over I/O automata.

This is the serial heart of the exploration engine behind
:func:`repro.ioa.explorer.explore`.  It returns exactly what the naive
breadth-first explorer returns -- the same reachable-state set, the
same ``truncated`` flag, and a shortest (layer-minimal) counterexample
-- but restructures the search around three ideas:

* **Trace-free frontiers.**  The naive explorer carries the full
  ``(action, ...)`` trace tuple in every frontier entry, an O(depth)
  copy per enqueued state that dominates allocation on deep runs.  The
  engine instead records a parent-pointer map ``state -> (predecessor,
  action)`` (one dict slot per state) and reconstructs the
  counterexample by walking the pointers only when a violation is
  actually found.

* **State interning.**  For compositions, every component slice is
  assigned a dense integer id (:class:`.interning.InternTable`) and the
  search runs over *encoded* states -- tuples of ints -- so ``seen``
  probes hash machine integers instead of nested dataclasses.  The
  decode tables double as the canonical-state store: decoded tuples
  share slice objects, giving identity fast paths to any later
  equality check.

* **Memoized stepping.**  Per-slot caches map (slice id, action token)
  to successor slice ids and slice id to the slice's enabled local
  actions, so the cross-product step never re-asks a component about a
  slice value it has already answered for.  Most steps touch 1-2 of
  the components; every other slice's answers come from the caches.

Budget semantics (documented contract): when the ``max_states`` budget
is hit the search stops *immediately* -- it breaks out of both the
successor and the frontier loops -- rather than grinding through the
remaining successors of the current layer.  Every state counted in
``states`` was invariant-checked when it was first reached, including
the queued-but-unexpanded frontier tail, so a truncated ``ok`` result
still certifies every reported state.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSetBase
from dataclasses import dataclass
from itertools import product
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...obs import RunReport

from ...obs import current_tracer
from ..actions import Action
from ..automaton import Automaton, State
from ..composition import Composition
from .encoding import MemoCounter, StateEncoder

Environment = Optional[Callable[[State], Iterable[Action]]]
Invariant = Optional[Callable[[State], bool]]


class InputEnablednessError(RuntimeError):
    """An environment-offered input action was not enabled (Section 2.2).

    Raised only in ``validate=True`` debug runs: input-enabledness demands
    that every input action be enabled in every state, so an exploration
    that offers an input with no transition has found a broken automaton
    (this is :meth:`~repro.ioa.automaton.Automaton.check_input_enabled`
    wired into the engine's expansion loop).
    """

    def __init__(self, automaton: Automaton, state: State, action: Action):
        super().__init__(
            f"{automaton.name}: input action {action} is not enabled in "
            f"reachable state {state!r} (automaton is not input-enabled)"
        )
        self.automaton = automaton
        self.state = state
        self.action = action


class StateSetView(AbstractSetBase):
    """Base of the lazy ``ExplorationResult.states`` views.

    A view stands in for a plain ``set`` of states: set algebra
    (``|``, ``&``, ``-``, ``^``) returns a plain ``set``, and pickling
    or deep-copying a view yields the plain set of its decoded states
    (the backing search or store is process-local and never travels).
    """

    __slots__ = ()

    @classmethod
    def _from_iterable(cls, iterable: Iterable[State]) -> Set[State]:
        return set(iterable)

    def __reduce__(self):
        return (set, (list(self),))


@dataclass
class ExplorationResult:
    """Outcome of a bounded exploration.

    ``states`` is the set of distinct reachable states visited -- a
    plain ``set`` from the Python backends, or a lazy set view
    (:class:`~repro.ioa.engine.accel.LazyStateSet`,
    :class:`~repro.ioa.engine.diskstore.DiskStateSet`) from backends
    whose states would be expensive to decode eagerly; every view
    supports ``len``/``in``/iteration/equality like a real set.
    ``truncated`` is True when the state or depth budget was exhausted
    before the frontier emptied; ``violation`` carries the first
    invariant violation found, as a (state, trace) pair.
    """

    states: AbstractSet[State]
    truncated: bool
    violation: Optional[Tuple[State, Tuple[Action, ...]]] = None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def report(self, duration_s: float = 0.0) -> "RunReport":
        """This result as the unified :class:`~repro.obs.RunReport`."""
        from ...obs import STATUS_OK, STATUS_VIOLATION, RunReport

        details: Dict[str, object] = {"truncated": self.truncated}
        if self.violation is not None:
            _, trace = self.violation
            details["counterexample"] = [str(action) for action in trace]
        return RunReport(
            command="explore",
            status=STATUS_OK if self.ok else STATUS_VIOLATION,
            counters={"explore.states": len(self.states)},
            duration_s=duration_s,
            details=details,
        )


def explore_engine(
    automaton: Automaton,
    environment: Environment = None,
    invariant: Invariant = None,
    max_states: int = 50_000,
    max_depth: int = 10_000,
    validate: bool = False,
    initial_state: Optional[State] = None,
) -> ExplorationResult:
    """Serial engine entry point (see module docstring).

    Compositions take the interned fast path; any other automaton gets
    the generic trace-free BFS.  ``validate=True`` additionally checks,
    at every expanded state, that each environment-offered input action
    is enabled, raising :class:`InputEnablednessError` otherwise.
    ``initial_state`` starts the search from the given (possibly
    unreachable) state instead of the automaton's own initial state.
    """
    if isinstance(automaton, Composition):
        return _CompositionSearch(automaton).run(
            environment,
            invariant,
            max_states,
            max_depth,
            validate,
            initial_state,
        )
    return _explore_generic(
        automaton,
        environment,
        invariant,
        max_states,
        max_depth,
        validate,
        initial_state,
    )


def emit_totals(
    tracer, encoder: StateEncoder, memo: Optional[MemoCounter]
) -> None:
    """Counters/gauges summarizing the interning and memo caches.

    Shared by the composition engines (pure-Python and compiled), so a
    trace reads the same whichever one ran.
    """
    if not tracer.enabled:
        return
    tracer.count("explore.slices_interned", encoder.slices_interned())
    tracer.count("explore.actions_interned", len(encoder.action_of_token))
    if memo is not None:
        memo.emit(tracer)


# ----------------------------------------------------------------------
# Generic trace-free BFS (any automaton)
# ----------------------------------------------------------------------


def _reconstruct(parents: Dict, state) -> Tuple[Action, ...]:
    """Walk parent pointers back to the start, returning the action trace."""
    actions: List[Action] = []
    cursor = state
    while True:
        entry = parents[cursor]
        if entry is None:
            break
        cursor, action = entry
        actions.append(action)
    actions.reverse()
    return tuple(actions)


def _explore_generic(
    automaton: Automaton,
    environment: Environment,
    invariant: Invariant,
    max_states: int,
    max_depth: int,
    validate: bool = False,
    initial_state: Optional[State] = None,
) -> ExplorationResult:
    start = (
        initial_state
        if initial_state is not None
        else automaton.initial_state()
    )
    signature = automaton.signature if validate else None
    if invariant is not None and not invariant(start):
        return ExplorationResult({start}, False, (start, ()))
    # parents doubles as the seen set: state -> (predecessor, action),
    # None for the start state.
    parents: Dict[State, Optional[Tuple[State, Action]]] = {start: None}
    layer: List[State] = [start]
    depth = 0
    truncated = False
    transitions = automaton.transitions
    enabled = automaton.enabled_local_actions
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count("explore.states", 1)  # the start state
    while layer:
        if depth >= max_depth:
            truncated = True
            break
        # Instrumentation is per-layer, never per-state: one span plus
        # three aggregate emissions per BFS layer (no-ops when tracing
        # is off), so the hot successor loop stays untouched.
        with tracer.span("explore.layer", depth=depth, width=len(layer)):
            next_layer: List[State] = []
            fired = 0
            for state in layer:
                actions: List[Action] = list(enabled(state))
                if environment is not None:
                    offered = list(environment(state))
                    if signature is not None:
                        for action in offered:
                            if signature.is_input(
                                action
                            ) and not transitions(state, action):
                                raise InputEnablednessError(
                                    automaton, state, action
                                )
                    actions.extend(offered)
                for action in actions:
                    for successor in transitions(state, action):
                        fired += 1
                        if successor in parents:
                            continue
                        parents[successor] = (state, action)
                        if invariant is not None and not invariant(
                            successor
                        ):
                            return ExplorationResult(
                                set(parents),
                                truncated,
                                (
                                    successor,
                                    _reconstruct(parents, successor),
                                ),
                            )
                        if len(parents) > max_states:
                            # Budget spent: stop the whole search at once
                            # (see module docstring for the contract).
                            del parents[successor]
                            truncated = True
                            break
                        next_layer.append(successor)
                    if truncated:
                        break
                if truncated:
                    break
            if tracer.enabled:
                tracer.count("explore.transitions", fired)
                tracer.count("explore.states", len(next_layer))
                tracer.gauge("explore.frontier", len(next_layer))
        if truncated:
            break
        layer = next_layer
        depth += 1
    return ExplorationResult(set(parents), truncated)


# ----------------------------------------------------------------------
# Interned fast path for compositions
# ----------------------------------------------------------------------


class _CompositionSearch:
    """BFS over interned (encoded) states of a :class:`Composition`.

    Encoded states are tuples of per-slot slice ids.  The mapping and
    the stepping caches live in the search's :class:`StateEncoder`,
    mapping ``sid`` to the slice's enabled (token, owners) pairs and
    ``(sid, token)`` to the successor slice ids, so a slice value is
    only ever stepped once per action no matter how many composed
    states contain it.  The disk backend and the refinement checker
    walk the same :meth:`expand`.
    """

    def __init__(self, composition: Composition):
        self.composition = composition
        self.n = len(composition.components)
        self.encoder = StateEncoder(composition)
        # Swapped for a MemoCounter while tracing (see run()).
        self._successor_sids: Callable[
            [int, int, int], Tuple[int, ...]
        ] = self.encoder.successor_sids

    # -- expansion ------------------------------------------------------

    def expand(
        self, encoded: Tuple[int, ...], extra_actions: Iterable[Action]
    ) -> Iterable[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(action token, successor encoded state)`` in the same
        deterministic order the naive explorer visits successors."""
        encoder = self.encoder
        pairs: List[Tuple[int, Tuple[int, ...]]] = []
        for slot in range(self.n):
            pairs.extend(encoder.enabled_pairs(slot, encoded[slot]))
        for action in extra_actions:
            token = encoder.token(action)
            pairs.append((token, encoder.owners_of_token[token]))
        for token, owners in pairs:
            if not owners:
                continue
            if len(owners) == 1:
                slot = owners[0]
                for sid in self._successor_sids(slot, encoded[slot], token):
                    yield token, encoded[:slot] + (sid,) + encoded[slot + 1 :]
                continue
            per_owner: List[Tuple[int, ...]] = []
            enabled_everywhere = True
            for slot in owners:
                successors = self._successor_sids(
                    slot, encoded[slot], token
                )
                if not successors:
                    enabled_everywhere = False
                    break
                per_owner.append(successors)
            if not enabled_everywhere:
                continue
            for combo in product(*per_owner):
                successor = list(encoded)
                for position, slot in enumerate(owners):
                    successor[slot] = combo[position]
                yield token, tuple(successor)

    # -- search ---------------------------------------------------------

    def run(
        self,
        environment: Environment,
        invariant: Invariant,
        max_states: int,
        max_depth: int,
        validate: bool = False,
        initial_state: Optional[State] = None,
    ) -> ExplorationResult:
        signature = self.composition.signature if validate else None
        start = (
            initial_state
            if initial_state is not None
            else self.composition.initial_state()
        )
        if invariant is not None and not invariant(start):
            return ExplorationResult({start}, False, (start, ()))
        tracer = current_tracer()
        memo: Optional[MemoCounter] = None
        if tracer.enabled:
            memo = MemoCounter(self.encoder)
            self._successor_sids = memo
            tracer.count("explore.states", 1)  # the start state
        start_enc = self.encoder.encode(start)
        # Encoded parent pointers: enc -> (predecessor enc, action token).
        parents: Dict[Tuple[int, ...], Optional[Tuple]] = {start_enc: None}
        layer: List[Tuple[int, ...]] = [start_enc]
        depth = 0
        truncated = False
        decode = self.encoder.decode
        expand = self.expand
        while layer:
            if depth >= max_depth:
                truncated = True
                break
            # One span + aggregate counters per layer (no-op when
            # tracing is off); the per-state expansion loop is untouched.
            with tracer.span(
                "explore.layer", depth=depth, width=len(layer)
            ):
                next_layer: List[Tuple[int, ...]] = []
                fired = 0
                extra: Iterable[Action]
                for encoded in layer:
                    if environment is not None:
                        current = decode(encoded)
                        extra = list(environment(current))
                        if signature is not None:
                            for action in extra:
                                if signature.is_input(
                                    action
                                ) and not self.composition.transitions(
                                    current, action
                                ):
                                    raise InputEnablednessError(
                                        self.composition, current, action
                                    )
                    else:
                        extra = ()
                    for token, succ_enc in expand(encoded, extra):
                        fired += 1
                        if succ_enc in parents:
                            continue
                        parents[succ_enc] = (encoded, token)
                        if invariant is not None:
                            real = decode(succ_enc)
                            if not invariant(real):
                                emit_totals(tracer, self.encoder, memo)
                                return ExplorationResult(
                                    self._decode_all(parents),
                                    truncated,
                                    (real, self._trace(parents, succ_enc)),
                                )
                        if len(parents) > max_states:
                            # Budget spent: break out of every loop at once
                            # (module docstring documents the contract).
                            del parents[succ_enc]
                            truncated = True
                            break
                        next_layer.append(succ_enc)
                    if truncated:
                        break
                if tracer.enabled:
                    tracer.count("explore.transitions", fired)
                    tracer.count("explore.states", len(next_layer))
                    tracer.gauge("explore.frontier", len(next_layer))
            if truncated:
                break
            layer = next_layer
            depth += 1
        emit_totals(tracer, self.encoder, memo)
        return ExplorationResult(self._decode_all(parents), truncated)

    def _trace(
        self, parents: Dict, encoded: Tuple[int, ...]
    ) -> Tuple[Action, ...]:
        actions: List[Action] = []
        cursor = encoded
        while True:
            entry = parents[cursor]
            if entry is None:
                break
            cursor, token = entry
            actions.append(self.encoder.action_of_token[token])
        actions.reverse()
        return tuple(actions)

    def _decode_all(self, parents: Dict) -> Set[State]:
        decode = self.encoder.decode
        return {decode(encoded) for encoded in parents}

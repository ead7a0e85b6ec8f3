"""Flat-encoded state representation for composed automata.

The exploration engine's hot loop must never touch nested dataclass
states: a composed state is encoded as a flat tuple of per-slot slice
ids (dense ints assigned by per-slot :class:`.interning.InternTable`\\ s)
or, when every slot fits its bit budget, packed into a *single* machine
integer.  :class:`StateEncoder` owns that mapping plus the per-slice
successor memo tables keyed by ``(slice id, action token)``, so every
backend of :func:`repro.ioa.explorer.explore` -- the pure-Python
engine, the disk-backed frontier and the compiled accelerated core --
and the refinement checker share one encoding and one set of stepping
caches.

What the encoding preserves (and what it does not): encoding is a
bijection between the composed states seen so far and their flat
codes -- ``decode(encode(s)) == s`` and equal states always receive
equal codes, so reachable-state sets, invariant verdicts and
counterexample traces are invariant under the representation.  It does
*not* preserve any ordering of states (ids are first-come dense) and it
is process-local: codes must never cross process boundaries or runs
(the same state can receive different ids in a different exploration
order).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..actions import Action
from ..automaton import State
from ..composition import Composition
from .interning import InternTable

__all__ = [
    "EncodingOverflow",
    "MemoCounter",
    "StateEncoder",
]

#: Total bit budget of a packed state.  64 keeps the key a single
#: machine word in the compiled backend's tables.
PACK_BITS = 64


class EncodingOverflow(RuntimeError):
    """A slot outgrew its packed bit budget.

    Raised by :meth:`StateEncoder.pack` when some slice table holds
    more distinct values than the slot's bit width can address.  The
    tuple encoding is unaffected (it has no width limit); callers on
    the packed fast path catch this and fall back to the pure-Python
    engine.
    """


class StateEncoder:
    """Encoder between composed states and flat int codes.

    One encoder per exploration: it owns the per-slot slice
    :class:`InternTable`\\ s, the action-token table and the stepping
    memos, so any number of backends can share the same ids.

    Flat forms:

    * ``encode(state)`` -> tuple of per-slot slice ids (unbounded);
    * ``pack(encoded)`` -> one int, ``bits_per_slot`` bits per slot
      (raises :class:`EncodingOverflow` past the budget).
    """

    __slots__ = (
        "composition",
        "components",
        "n",
        "family_owners",
        "slice_tables",
        "enabled_by_sid",
        "steps_by_sid",
        "token_of_action",
        "action_of_token",
        "owners_of_token",
        "bits_per_slot",
        "shifts",
        "slot_capacity",
    )

    def __init__(
        self, composition: Composition, pack_bits: Optional[int] = None
    ):
        if pack_bits is None:
            pack_bits = PACK_BITS
        self.composition = composition
        self.components = composition.components
        self.n = len(self.components)
        self.family_owners = composition.family_owners
        self.slice_tables: List[InternTable] = [
            InternTable() for _ in range(self.n)
        ]
        # sid -> tuple[(token, owners)] of enabled local actions (lazy).
        self.enabled_by_sid: List[
            List[Optional[Tuple[Tuple[int, Tuple[int, ...]], ...]]]
        ] = [[] for _ in range(self.n)]
        # sid -> {token: tuple[successor sid, ...]} (lazy per token).
        self.steps_by_sid: List[List[Dict[int, Tuple[int, ...]]]] = [
            [] for _ in range(self.n)
        ]
        # Action interning: token ids are dense.
        self.token_of_action: Dict[Action, int] = {}
        self.action_of_token: List[Action] = []
        self.owners_of_token: List[Tuple[int, ...]] = []
        # Packed form: an equal split of the bit budget across slots.
        self.bits_per_slot = max(1, pack_bits // max(1, self.n))
        self.shifts: Tuple[int, ...] = tuple(
            slot * self.bits_per_slot for slot in range(self.n)
        )
        self.slot_capacity = 1 << self.bits_per_slot

    # -- slice and action interning -------------------------------------

    def intern_slice(self, slot: int, slice_state: State) -> int:
        """The dense id of one component slice, growing the side tables."""
        sid = self.slice_tables[slot].intern(slice_state)
        if sid == len(self.enabled_by_sid[slot]):
            self.enabled_by_sid[slot].append(None)
            self.steps_by_sid[slot].append({})
        return sid

    def token(self, action: Action) -> int:
        """The dense token id of an action (owners resolved on first sight)."""
        token = self.token_of_action.get(action)
        if token is None:
            token = len(self.action_of_token)
            self.token_of_action[action] = token
            self.action_of_token.append(action)
            self.owners_of_token.append(
                tuple(self.family_owners.get(action.key, ()))
            )
        return token

    # -- encoding -------------------------------------------------------

    def encode(self, state: State) -> Tuple[int, ...]:
        """The flat tuple code of a composed state."""
        return tuple(
            self.intern_slice(slot, slice_state)
            for slot, slice_state in enumerate(state)
        )

    def decode(self, encoded: Sequence[int]) -> State:
        """The composed state behind a flat tuple code.

        Decoded tuples share their slice objects with the intern
        tables, so equality checks between decoded states hit
        CPython's per-element identity fast path.
        """
        # A list comprehension builds the tuple faster than a generator.
        return tuple([
            table.values[sid]
            for table, sid in zip(self.slice_tables, encoded)
        ])

    def pack(self, encoded: Sequence[int]) -> int:
        """The single-int code of a flat tuple (packed mixed-radix).

        Raises :class:`EncodingOverflow` when any slice id exceeds its
        slot's bit budget -- the signal for packed-path callers to fall
        back to the tuple representation.
        """
        key = 0
        capacity = self.slot_capacity
        for shift, sid in zip(self.shifts, encoded):
            if sid >= capacity:
                raise EncodingOverflow(
                    f"slice id {sid} does not fit the "
                    f"{self.bits_per_slot}-bit slot budget "
                    f"({self.n} slots in {self.bits_per_slot * self.n} bits)"
                )
            key |= sid << shift
        return key

    def unpack(self, key: int) -> Tuple[int, ...]:
        """The flat tuple behind a packed single-int code."""
        mask = self.slot_capacity - 1
        return tuple([(key >> shift) & mask for shift in self.shifts])

    def encode_packed(self, state: State) -> int:
        """``pack(encode(state))``."""
        return self.pack(self.encode(state))

    def decode_packed(self, key: int) -> State:
        """``decode(unpack(key))``."""
        return self.decode(self.unpack(key))

    # -- memoized component stepping ------------------------------------

    def enabled_pairs(
        self, slot: int, sid: int
    ) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """``(token, owners)`` pairs of the slice's enabled local actions."""
        pairs = self.enabled_by_sid[slot][sid]
        if pairs is None:
            slice_state = self.slice_tables[slot].values[sid]
            fresh: List[Tuple[int, Tuple[int, ...]]] = []
            for action in self.components[slot].enabled_local_actions(
                slice_state
            ):
                token = self.token(action)
                fresh.append((token, self.owners_of_token[token]))
            pairs = tuple(fresh)
            self.enabled_by_sid[slot][sid] = pairs
        return pairs

    def successor_sids(
        self, slot: int, sid: int, token: int
    ) -> Tuple[int, ...]:
        """Successor slice ids of ``(slot, sid)`` under action ``token``.

        This is the per-slice successor memo: a slice value is stepped
        at most once per action token no matter how many composed
        states contain it or how many backends ask.
        """
        steps = self.steps_by_sid[slot][sid]
        successors = steps.get(token)
        if successors is None:
            table = self.slice_tables[slot]
            values = table.values
            ids = table._ids
            raw = self.components[slot].transitions(
                values[sid], self.action_of_token[token]
            )
            # Inlined intern_slice: this is the warmup hot path (one
            # call per distinct (slice, action) pair, straight off the
            # compiled backend's cache-miss callback).
            fresh = []
            enabled_side = self.enabled_by_sid[slot]
            steps_side = self.steps_by_sid[slot]
            for post in raw:
                post_sid = ids.get(post)
                if post_sid is None:
                    post_sid = len(values)
                    ids[post] = post_sid
                    values.append(post)
                    enabled_side.append(None)
                    steps_side.append({})
                fresh.append(post_sid)
            successors = tuple(fresh)
            steps[token] = successors
        return successors

    # -- statistics -----------------------------------------------------

    def slices_interned(self) -> int:
        """Total distinct slice values across all slots."""
        return sum(len(table) for table in self.slice_tables)


class MemoCounter:
    """Counting shim around :meth:`StateEncoder.successor_sids`.

    Tracing-only: an engine installs one in place of the bound method
    when the tracer is enabled, so the tracing-off hot path carries no
    extra branches or increments.  A query is a hit when the encoder's
    memo already held the answer (no component was stepped).
    """

    __slots__ = ("queries", "hits", "_inner", "_steps_by_sid")

    def __init__(self, encoder: StateEncoder):
        self.queries = 0
        self.hits = 0
        self._inner = encoder.successor_sids
        self._steps_by_sid = encoder.steps_by_sid

    def __call__(self, slot: int, sid: int, token: int) -> Tuple[int, ...]:
        self.queries += 1
        if token in self._steps_by_sid[slot][sid]:
            self.hits += 1
        return self._inner(slot, sid, token)

    def emit(self, tracer) -> None:
        """The ``explore.memo_*`` counters and hit-rate gauge."""
        if not self.queries:
            return
        tracer.gauge("explore.memo_hit_rate", self.hits / self.queries)
        tracer.count("explore.memo_queries", self.queries)
        if self.hits:
            tracer.count("explore.memo_hits", self.hits)
        else:
            # The compiled core keeps its own step table and asks the
            # encoder only on its misses, so every query misses here.
            # ``count`` drops zero increments; record the zero total so
            # both engines' runs report the same memo counters.
            tracer.counters.setdefault("explore.memo_hits", 0)

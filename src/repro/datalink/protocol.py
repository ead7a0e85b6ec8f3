"""Data link protocols as pairs of I/O automata (paper, Section 5.1).

A data link protocol is a pair ``(A^t, A^r)`` of a *transmitting
automaton* and a *receiving automaton* with the external signatures of
Section 5.1.  This module provides:

* :class:`TransmitterLogic` / :class:`ReceiverLogic` -- the interface a
  concrete protocol implements.  Logic objects are pure: they map
  immutable *core* states to core states.  Messages must be treated as
  opaque tokens (never inspected), which is what makes every protocol
  expressed in this interface message-independent in the paper's sense;
  the checker in :mod:`repro.datalink.message_independence` validates
  this empirically.
* :class:`TransmitterAutomaton` / :class:`ReceiverAutomaton` -- wrappers
  turning logic objects into full input-enabled I/O automata, handling
  the paper's bookkeeping uniformly:

  - **crash steps** apply :meth:`ProtocolLogic.on_crash`, whose default
    returns the initial core -- exactly the paper's *crashing* property
    (Section 5.3.2).  Protocols with non-volatile storage override it.
  - **packet uid stamping**: each ``send_pkt`` output carries a fresh
    ghost uid realizing the paper's (PL2) unique-labels convention.  The
    uid counter is a proof device, *not* protocol memory: it is excluded
    from the crash reset (the paper's labels "do not correspond to any
    bits sent on the transmission medium") and packets are stripped of
    uids before the logic sees them, so no protocol can branch on them.

* :class:`DataLinkProtocol` -- the pair, with factories so that multiple
  independent instances (for replays from the initial state) can be
  built.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Hashable, Iterable, Optional, Tuple

from ..alphabets import Message, Packet
from ..ioa.actions import Action, action_family
from ..ioa.automaton import Automaton
from ..ioa.hashing import hash_once
from ..ioa.signature import ActionSignature
from ..channels.actions import (
    CRASH,
    FAIL,
    RECEIVE_PKT,
    SEND_PKT,
    WAKE,
    send_pkt,
)
from .actions import RECEIVE_MSG, SEND_MSG, receive_msg

Core = Any


@hash_once
@dataclass(frozen=True)
class HostState:
    """State of a protocol automaton: protocol core + ghost uid counter."""

    core: Core
    uid_counter: int = 0

    def with_core(self, core: Core) -> "HostState":
        return HostState(core, self.uid_counter)


class ProtocolLogic(ABC):
    """Behavior shared by transmitter and receiver logic.

    All methods are pure functions of immutable core states.  Core states
    must be hashable values built from primitives, tuples, frozensets and
    frozen dataclasses, with messages appearing only as opaque
    :class:`~repro.alphabets.Message` tokens (this enables the generic
    renaming machinery used by the impossibility engines).
    """

    @abstractmethod
    def initial_core(self) -> Core:
        """The core component of the unique start state."""

    # -- channel status notifications (default: ignored) ---------------

    def on_wake(self, core: Core) -> Core:
        return core

    def on_fail(self, core: Core) -> Core:
        return core

    def on_crash(self, core: Core) -> Core:
        """Effect of a host crash on the core.

        The default loses all state (the *crashing* property of Section
        5.3.2).  A protocol with access to non-volatile storage overrides
        this to preserve the non-volatile part.
        """
        return self.initial_core()

    # -- packet I/O -----------------------------------------------------

    @abstractmethod
    def on_packet(self, core: Core, packet: Packet) -> Core:
        """Handle a packet received from the peer (uid already stripped)."""

    @abstractmethod
    def enabled_sends(self, core: Core) -> Iterable[Packet]:
        """Packets (uid-less) whose ``send_pkt`` precondition holds."""

    @abstractmethod
    def after_send(self, core: Core, packet: Packet) -> Core:
        """Effect of sending ``packet`` (uid-less)."""

    # -- metadata ---------------------------------------------------------

    def header_space(self) -> Optional[FrozenSet[Any]]:
        """The set of packet headers this logic may ever use.

        Return a finite frozenset for bounded-header protocols, or
        ``None`` when the header space is unbounded (e.g. Stenning's
        protocol).  Used to compute the paper's ``headers(A, ==)``.
        """
        return None


class TransmitterLogic(ProtocolLogic):
    """Protocol logic for the transmitting station."""

    @abstractmethod
    def on_send_msg(self, core: Core, message: Message) -> Core:
        """Handle a ``send_msg`` request from the environment."""


class ReceiverLogic(ProtocolLogic):
    """Protocol logic for the receiving station."""

    @abstractmethod
    def enabled_deliveries(self, core: Core) -> Iterable[Message]:
        """Messages whose ``receive_msg`` precondition holds."""

    @abstractmethod
    def after_delivery(self, core: Core, message: Message) -> Core:
        """Effect of delivering ``message`` to the environment."""


class _HostAutomaton(Automaton):
    """Common machinery of the transmitter and receiver automata.

    ``ghost_uids=False`` disables the (PL2) uniqueness labels: packets
    are sent with ``uid=None`` and the counter stays at zero.  The
    labels are a proof device for the impossibility constructions; the
    bounded model checker disables them to keep state spaces finite.
    """

    def __init__(
        self,
        t: str,
        r: str,
        logic: ProtocolLogic,
        name: str,
        ghost_uids: bool = True,
    ):
        self.t = t
        self.r = r
        self.logic = logic
        self.name = name
        self.ghost_uids = ghost_uids

    # subclasses set these in __init__:
    _signature: ActionSignature
    _status_direction: Tuple[str, str]  # direction of wake/fail/crash inputs
    _pkt_out_direction: Tuple[str, str]

    @property
    def signature(self) -> ActionSignature:
        return self._signature

    def initial_state(self) -> HostState:
        return HostState(self.logic.initial_core(), 0)

    # -- shared transition pieces ---------------------------------------

    def _status_step(self, state: HostState, action: Action) -> Optional[HostState]:
        if action.direction != self._status_direction:
            return None
        if action.name == WAKE:
            return state.with_core(self.logic.on_wake(state.core))
        if action.name == FAIL:
            return state.with_core(self.logic.on_fail(state.core))
        if action.name == CRASH:
            return state.with_core(self.logic.on_crash(state.core))
        return None

    def _send_pkt_step(self, state: HostState, action: Action) -> Optional[HostState]:
        if action.key != (SEND_PKT, self._pkt_out_direction):
            return None
        packet: Packet = action.payload
        expected_uid = state.uid_counter + 1 if self.ghost_uids else None
        if packet.uid != expected_uid:
            return None
        bare = packet.strip_uid()
        if bare not in set(self.logic.enabled_sends(state.core)):
            return None
        return HostState(
            self.logic.after_send(state.core, bare),
            state.uid_counter + (1 if self.ghost_uids else 0),
        )

    def _enabled_pkt_sends(self, state: HostState) -> Iterable[Action]:
        src, dst = self._pkt_out_direction
        uid = state.uid_counter + 1 if self.ghost_uids else None
        for packet in self.logic.enabled_sends(state.core):
            yield send_pkt(src, dst, packet.with_uid(uid))


class TransmitterAutomaton(_HostAutomaton):
    """A transmitting automaton for ``(t, r)`` (paper, Section 5.1)."""

    def __init__(
        self,
        t: str,
        r: str,
        logic: TransmitterLogic,
        name: Optional[str] = None,
        ghost_uids: bool = True,
    ):
        super().__init__(
            t, r, logic, name or f"transmitter[{t}->{r}]", ghost_uids
        )
        self._status_direction = (t, r)
        self._pkt_out_direction = (t, r)
        self._signature = ActionSignature.make(
            inputs=[
                action_family(SEND_MSG, t, r),
                action_family(RECEIVE_PKT, r, t),
                action_family(WAKE, t, r),
                action_family(FAIL, t, r),
                action_family(CRASH, t, r),
            ],
            outputs=[action_family(SEND_PKT, t, r)],
        )

    def transitions(self, state: HostState, action: Action) -> Tuple[HostState, ...]:
        if action.key == (SEND_MSG, (self.t, self.r)):
            return (
                state.with_core(
                    self.logic.on_send_msg(state.core, action.payload)
                ),
            )
        if action.key == (RECEIVE_PKT, (self.r, self.t)):
            return (
                state.with_core(
                    self.logic.on_packet(
                        state.core, action.payload.strip_uid()
                    )
                ),
            )
        status = self._status_step(state, action)
        if status is not None:
            return (status,)
        sent = self._send_pkt_step(state, action)
        if sent is not None:
            return (sent,)
        return ()

    def enabled_local_actions(self, state: HostState) -> Iterable[Action]:
        return self._enabled_pkt_sends(state)

    def task_of(self, action: Action) -> Hashable:
        return (self.name, "transmit")

    def tasks(self) -> Iterable[Hashable]:
        return [(self.name, "transmit")]


class ReceiverAutomaton(_HostAutomaton):
    """A receiving automaton for ``(t, r)`` (paper, Section 5.1)."""

    def __init__(
        self,
        t: str,
        r: str,
        logic: ReceiverLogic,
        name: Optional[str] = None,
        ghost_uids: bool = True,
    ):
        super().__init__(
            t, r, logic, name or f"receiver[{t}->{r}]", ghost_uids
        )
        self._status_direction = (r, t)
        self._pkt_out_direction = (r, t)
        self._signature = ActionSignature.make(
            inputs=[
                action_family(RECEIVE_PKT, t, r),
                action_family(WAKE, r, t),
                action_family(FAIL, r, t),
                action_family(CRASH, r, t),
            ],
            outputs=[
                action_family(SEND_PKT, r, t),
                action_family(RECEIVE_MSG, t, r),
            ],
        )

    def transitions(self, state: HostState, action: Action) -> Tuple[HostState, ...]:
        if action.key == (RECEIVE_PKT, (self.t, self.r)):
            return (
                state.with_core(
                    self.logic.on_packet(
                        state.core, action.payload.strip_uid()
                    )
                ),
            )
        if action.key == (RECEIVE_MSG, (self.t, self.r)):
            logic: ReceiverLogic = self.logic
            if action.payload not in set(
                logic.enabled_deliveries(state.core)
            ):
                return ()
            return (
                state.with_core(
                    logic.after_delivery(state.core, action.payload)
                ),
            )
        status = self._status_step(state, action)
        if status is not None:
            return (status,)
        sent = self._send_pkt_step(state, action)
        if sent is not None:
            return (sent,)
        return ()

    def enabled_local_actions(self, state: HostState) -> Iterable[Action]:
        yield from self._enabled_pkt_sends(state)
        logic: ReceiverLogic = self.logic
        for message in logic.enabled_deliveries(state.core):
            yield receive_msg(self.t, self.r, message)

    def task_of(self, action: Action) -> Hashable:
        if action.name == RECEIVE_MSG:
            return (self.name, "deliver")
        return (self.name, "transmit")

    def tasks(self) -> Iterable[Hashable]:
        return [(self.name, "deliver"), (self.name, "transmit")]


@dataclass
class DataLinkProtocol:
    """A data link protocol ``A = (A^t, A^r)`` plus metadata.

    ``transmitter_factory``/``receiver_factory`` build fresh logic
    objects, so independent automaton instances can be created for
    replays.  ``crash_resilient`` declares that the protocol's
    ``on_crash`` does *not* reset all state (i.e. the protocol is **not**
    crashing in the paper's sense); the checker in
    :mod:`repro.datalink.crashing` verifies the declaration.

    ``claims`` is an optional plain dict of paper-taxonomy properties
    the author asserts about the protocol (keys such as
    ``message_independent``, ``bounded_headers``, ``crashing``,
    ``k_bounded``, ``weakly_correct_over``, ``tolerates_crashes``).
    It is deliberately untyped here -- :mod:`repro.lint.claims` parses
    and validates it, and the REP304 contradiction gate checks it
    against inferred properties and recorded fuzz evidence.
    """

    name: str
    transmitter_factory: Callable[[], TransmitterLogic]
    receiver_factory: Callable[[], ReceiverLogic]
    crash_resilient: bool = False
    description: str = ""
    claims: Optional[dict] = None

    def build(
        self, t: str = "t", r: str = "r", ghost_uids: bool = True
    ) -> Tuple[TransmitterAutomaton, ReceiverAutomaton]:
        """Fresh transmitter and receiver automata for endpoints (t, r).

        ``ghost_uids=False`` disables (PL2) uniqueness labels (used by
        the bounded model checker to keep state spaces finite).
        """
        return (
            TransmitterAutomaton(
                t, r, self.transmitter_factory(), ghost_uids=ghost_uids
            ),
            ReceiverAutomaton(
                t, r, self.receiver_factory(), ghost_uids=ghost_uids
            ),
        )

    def header_space(self) -> Optional[FrozenSet[Any]]:
        """The union of both stations' header spaces (None if unbounded)."""
        spaces = [
            self.transmitter_factory().header_space(),
            self.receiver_factory().header_space(),
        ]
        if any(space is None for space in spaces):
            return None
        return frozenset().union(*spaces)

    def has_bounded_headers(self) -> bool:
        """True iff ``headers(A, ==)`` is finite (Section 5.3.1)."""
        return self.header_space() is not None

"""Delivery sets (paper, Section 6.1) and the ``del`` surgery (Section 6.3).

A *delivery set* is a set ``S`` of pairs ``(i, j)`` of positive integers
such that

* for each positive integer ``j`` there is a *unique* pair ``(i, j)`` in
  ``S`` (every receive slot is assigned a send index), and
* for each positive integer ``i`` there is *at most one* pair ``(i, j)``
  (no send index is delivered twice).

``(i, j) in S`` correlates the ``j``-th ``receive_pkt`` event with the
``i``-th ``send_pkt`` event.  A send index appearing in no pair is a
*lost* packet.  A *monotone* delivery set (no ``(i1,j1),(i2,j2)`` with
``i1 < i2`` and ``j1 >= j2``) yields FIFO behavior.

Delivery sets are infinite objects; we represent them with an explicit
finite prefix plus an eventually-FIFO tail:

* ``prefix[j-1]`` gives the send index for receive slot ``j`` for
  ``j = 1 .. len(prefix)``;
* for ``j > len(prefix)`` the send index is ``j + tail_offset``.

Every construction in the paper's lemmas (6.3 clean states, 6.5-6.7
waiting sequences, 6.6 subsequence losses) performs finite surgery on the
prefix and re-normalizes the tail, which this representation expresses
exactly.

The seeded generators at the bottom (:func:`random_lossy_fifo`,
:func:`random_reordering`) draw the prefix *on demand*.  Only the receive
slots a run consumes can matter -- the lemmas' surgeries rest on exactly
that -- so :meth:`DeliverySet.source_of` draws from the set's private
``random.Random(seed)`` one block at a time, in the order an eager draw
would, and checks each block as it is drawn.  Anything that needs the
whole set -- reading ``prefix`` or ``tail_offset``, ``==``, ``hash``,
``repr``, pickle, copies, ``dataclasses.replace`` -- draws the rest
first, so a drawn set is indistinguishable from the eager one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from ..ioa.hashing import hash_once


class DeliverySetError(ValueError):
    """Raised when constructing an ill-formed delivery set."""


class _DrawnField:
    """A field a set built on demand stores only once it is fully drawn.

    A non-data descriptor: a stored field in the instance ``__dict__``
    shadows it, so sets built from their fields never reach it.  On a
    set still being drawn, reading the field draws the rest and stores
    both fields.  The values were fixed by the seed at construction, so
    storing them late changes no field value and no structural hash.
    """

    def __init__(self, default):
        self.default = default

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self.default
        instance._draw_rest()
        return instance.__dict__[self.name]


@hash_once
@dataclass(frozen=True)
class DeliverySet:
    """A delivery set with finite prefix and FIFO tail (see module docs)."""

    prefix: Tuple[int, ...] = _DrawnField(())
    tail_offset: int = _DrawnField(0)

    #: The undrawn rest of a set built by a seeded generator; None once
    #: the set is fully drawn, and for every set built from its fields.
    _draw = None

    def __post_init__(self) -> None:
        if any(i < 1 for i in self.prefix):
            raise DeliverySetError("send indices must be positive")
        if len(set(self.prefix)) != len(self.prefix):
            raise DeliverySetError(
                "a send index may be delivered at most once"
            )
        first_tail = len(self.prefix) + 1 + self.tail_offset
        if first_tail < 1:
            raise DeliverySetError(
                "tail would assign non-positive send indices"
            )
        if self.prefix and max(self.prefix) >= first_tail:
            raise DeliverySetError(
                "tail send indices must not collide with the prefix "
                f"(prefix max {max(self.prefix)}, first tail {first_tail})"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def fifo() -> "DeliverySet":
        """The identity delivery set ``{(j, j)}``: FIFO, no losses."""
        return DeliverySet((), 0)

    @staticmethod
    def from_pairs(
        pairs: Iterable[Tuple[int, int]], tail_offset: Optional[int] = None
    ) -> "DeliverySet":
        """Build from explicit ``(i, j)`` pairs covering ``j = 1..n``.

        The pairs must cover each receive slot ``1..n`` exactly once.  If
        ``tail_offset`` is omitted, the smallest collision-free FIFO tail
        is chosen.
        """
        by_j = {}
        for i, j in pairs:
            if j in by_j:
                raise DeliverySetError(f"duplicate receive slot {j}")
            by_j[j] = i
        if sorted(by_j) != list(range(1, len(by_j) + 1)):
            raise DeliverySetError(
                "pairs must cover receive slots 1..n contiguously"
            )
        prefix = tuple(by_j[j] for j in range(1, len(by_j) + 1))
        if tail_offset is None:
            tail_offset = (max(prefix) if prefix else 0) - len(prefix)
        return DeliverySet(prefix, tail_offset)

    @classmethod
    def _on_demand(
        cls, blocks: Iterator, horizon: int, increasing: bool
    ) -> "DeliverySet":
        """A set whose prefix ``blocks`` draws as slots are looked up."""
        drawn = object.__new__(cls)
        drawn.__dict__["_draw"] = _Draw(blocks, horizon, increasing)
        return drawn

    def _draw_rest(self) -> None:
        """Draw the rest of an on-demand set and store its fields."""
        attrs = self.__dict__
        prefix = attrs["_draw"].rest()
        attrs["prefix"] = prefix
        attrs["tail_offset"] = attrs.pop("_draw").horizon - len(prefix)

    # ------------------------------------------------------------------
    # Membership and lookup
    # ------------------------------------------------------------------

    def source_of(self, j: int) -> int:
        """The unique send index ``i`` with ``(i, j)`` in the set."""
        if j < 1:
            raise DeliverySetError("receive slots are positive")
        draw = self._draw
        if draw is not None and draw.reach(j):
            return draw.drawn[j - 1]
        if j <= len(self.prefix):
            return self.prefix[j - 1]
        return j + self.tail_offset

    def slot_of(self, i: int) -> Optional[int]:
        """The receive slot of send index ``i``, or None if ``i`` is lost."""
        if i < 1:
            raise DeliverySetError("send indices are positive")
        for j, source in enumerate(self.prefix, start=1):
            if source == i:
                return j
        j = i - self.tail_offset
        if j > len(self.prefix):
            return j
        return None

    def contains(self, i: int, j: int) -> bool:
        return self.source_of(j) == i

    def is_lost(self, i: int) -> bool:
        """True iff send index ``i`` is assigned to no receive slot."""
        return self.slot_of(i) is None

    def lost_indices(self, up_to: int) -> Tuple[int, ...]:
        """All lost send indices in ``1..up_to``."""
        return tuple(i for i in range(1, up_to + 1) if self.is_lost(i))

    def pairs(self, up_to_slot: int) -> Iterator[Tuple[int, int]]:
        """Iterate ``(i, j)`` pairs for slots ``1..up_to_slot``."""
        for j in range(1, up_to_slot + 1):
            yield (self.source_of(j), j)

    # ------------------------------------------------------------------
    # Monotonicity (Section 6.2)
    # ------------------------------------------------------------------

    def is_monotone(self) -> bool:
        """True iff the set is monotone (yields FIFO delivery)."""
        draw = self._draw
        if draw is not None and draw.increasing:
            # Each block is checked increasing and below the tail as it
            # is drawn, so no drawn prefix can break monotonicity.
            return True
        last = 0
        for i in self.prefix:
            if i <= last:
                return False
            last = i
        return last < len(self.prefix) + 1 + self.tail_offset

    # ------------------------------------------------------------------
    # The ``del`` surgery (Section 6.3)
    # ------------------------------------------------------------------

    def delete_slot(self, j: int) -> "DeliverySet":
        """``del(S, (i, j))``: drop the pair at slot ``j``, shifting later slots.

        Per the paper: pairs at slots below ``j`` are unchanged; the pair
        at ``j`` is removed (its send index becomes lost); each pair at a
        slot ``j' > j`` moves down to slot ``j' - 1``.  Monotone sets stay
        monotone.
        """
        if j < 1:
            raise DeliverySetError("receive slots are positive")
        if j <= len(self.prefix):
            prefix = self.prefix[: j - 1] + self.prefix[j:]
            return DeliverySet(prefix, self.tail_offset + 1)
        # The deleted slot lies in the tail: materialize the tail entries
        # between the prefix and j, then shift.
        extra = tuple(
            jj + self.tail_offset for jj in range(len(self.prefix) + 1, j)
        )
        return DeliverySet(self.prefix + extra, self.tail_offset + 1)

    def delete_slots(self, slots: Iterable[int]) -> "DeliverySet":
        """Delete several slots (expressed in the *original* numbering)."""
        result = self
        for offset, j in enumerate(sorted(set(slots))):
            result = result.delete_slot(j - offset)
        return result

    def delete_pair(self, i: int, j: int) -> "DeliverySet":
        """``del(S, (i, j))`` with the pair given explicitly."""
        if self.source_of(j) != i:
            raise DeliverySetError(f"({i}, {j}) is not in the delivery set")
        return self.delete_slot(j)


# ----------------------------------------------------------------------
# Scripted generators used by the simulation harness
# ----------------------------------------------------------------------

#: Send indices drawn per block (whole reordering windows per block).
_BLOCK = 32


class _Draw:
    """The undrawn rest of an on-demand delivery set.

    ``blocks`` yields ``(lo, hi, indices)``: the surviving send indices
    of ``lo..hi-1`` in delivery order.  Each block is checked as it is
    drawn -- indices in range (so positive and below the tail at
    ``horizon + 1``), distinct, and increasing when ``increasing`` --
    so every index a reader can ever see has passed the checks the
    eager constructor makes.
    """

    __slots__ = ("blocks", "drawn", "horizon", "increasing")

    def __init__(self, blocks: Iterator, horizon: int, increasing: bool):
        self.blocks: Optional[Iterator] = blocks
        self.drawn: List[int] = []
        self.horizon = horizon
        self.increasing = increasing

    def reach(self, j: int) -> bool:
        """Draw through slot ``j``; False if the horizon ends first."""
        drawn = self.drawn
        while len(drawn) < j:
            if not self._next_block():
                return False
        return True

    def rest(self) -> Tuple[int, ...]:
        """Draw every remaining block; the whole prefix."""
        while self._next_block():
            pass
        return tuple(self.drawn)

    def _next_block(self) -> bool:
        step = next(self.blocks, None) if self.blocks is not None else None
        if step is None:
            self.blocks = None
            return False
        lo, hi, block = step
        if block and not (lo <= min(block) and max(block) < hi):
            raise DeliverySetError(
                f"drawn send indices must lie in {lo}..{hi - 1}"
            )
        if len(set(block)) != len(block):
            raise DeliverySetError(
                "a send index may be delivered at most once"
            )
        if self.increasing and block != sorted(block):
            raise DeliverySetError("a lossy FIFO draw must be increasing")
        self.drawn.extend(block)
        if hi > self.horizon:
            # The horizon is drawn: let go of the generator and its RNG.
            self.blocks = None
        return True


def _check_draw_arguments(loss_rate: float, horizon: int) -> None:
    if not 0.0 <= loss_rate < 1.0:
        raise DeliverySetError("loss_rate must be in [0, 1)")
    if horizon < 0:
        raise DeliverySetError("tail would assign non-positive send indices")


def _lossy_fifo_blocks(
    rng: random.Random, loss_rate: float, horizon: int
) -> Iterator[Tuple[int, int, List[int]]]:
    for lo in range(1, horizon + 1, _BLOCK):
        hi = min(lo + _BLOCK, horizon + 1)
        yield lo, hi, [i for i in range(lo, hi) if rng.random() >= loss_rate]


def _reordering_blocks(
    rng: random.Random, loss_rate: float, window: int, horizon: int
) -> Iterator[Tuple[int, int, List[int]]]:
    span = max(window, _BLOCK - _BLOCK % window)
    for lo in range(1, horizon + 1, span):
        hi = min(lo + span, horizon + 1)
        order: List[int] = []
        for start in range(lo, hi, window):
            block = list(range(start, min(start + window, hi)))
            rng.shuffle(block)
            order.extend(i for i in block if rng.random() >= loss_rate)
        yield lo, hi, order


def random_lossy_fifo(
    seed: int, loss_rate: float, horizon: int
) -> DeliverySet:
    """A monotone delivery set losing each send independently w.p. ``loss_rate``.

    The loss pattern covers send indices ``1..horizon``; beyond the
    horizon the set is FIFO with no losses.  Deterministic in ``seed``:
    one ``random()`` per send index, in index order, drawn on demand.
    """
    _check_draw_arguments(loss_rate, horizon)
    blocks = _lossy_fifo_blocks(random.Random(seed), loss_rate, horizon)
    return DeliverySet._on_demand(blocks, horizon, increasing=True)


def random_reordering(
    seed: int, loss_rate: float, window: int, horizon: int
) -> DeliverySet:
    """A (generally non-monotone) delivery set with bounded reordering.

    Send indices ``1..horizon`` are shuffled within blocks of size
    ``window`` and each is lost independently with probability
    ``loss_rate``; beyond the horizon the set is FIFO.  Deterministic in
    ``seed``: per window, one ``shuffle`` and then one ``random()`` per
    index, drawn on demand.
    """
    if window < 1:
        raise DeliverySetError("window must be positive")
    _check_draw_arguments(loss_rate, horizon)
    blocks = _reordering_blocks(
        random.Random(seed), loss_rate, window, horizon
    )
    return DeliverySet._on_demand(blocks, horizon, increasing=False)

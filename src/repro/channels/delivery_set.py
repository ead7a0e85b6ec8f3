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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from ..ioa.hashing import hash_once


class DeliverySetError(ValueError):
    """Raised when constructing an ill-formed delivery set."""


@hash_once
@dataclass(frozen=True)
class DeliverySet:
    """A delivery set with finite prefix and FIFO tail (see module docs)."""

    prefix: Tuple[int, ...] = ()
    tail_offset: int = 0

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

    # ------------------------------------------------------------------
    # Membership and lookup
    # ------------------------------------------------------------------

    def source_of(self, j: int) -> int:
        """The unique send index ``i`` with ``(i, j)`` in the set."""
        if j < 1:
            raise DeliverySetError("receive slots are positive")
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


def random_lossy_fifo(
    seed: int, loss_rate: float, horizon: int
) -> DeliverySet:
    """A monotone delivery set losing each send independently w.p. ``loss_rate``.

    The loss pattern covers send indices ``1..horizon``; beyond the
    horizon the set is FIFO with no losses.  Deterministic in ``seed``.
    """
    if not 0.0 <= loss_rate < 1.0:
        raise DeliverySetError("loss_rate must be in [0, 1)")
    rng = random.Random(seed)
    surviving = [
        i for i in range(1, horizon + 1) if rng.random() >= loss_rate
    ]
    prefix = tuple(surviving)
    return DeliverySet(prefix, horizon - len(prefix))


def random_reordering(
    seed: int, loss_rate: float, window: int, horizon: int
) -> DeliverySet:
    """A (generally non-monotone) delivery set with bounded reordering.

    Send indices ``1..horizon`` are shuffled within blocks of size
    ``window`` and each is lost independently with probability
    ``loss_rate``; beyond the horizon the set is FIFO.  Deterministic in
    ``seed``.
    """
    if window < 1:
        raise DeliverySetError("window must be positive")
    rng = random.Random(seed)
    order: List[int] = []
    for start in range(1, horizon + 1, window):
        block = list(range(start, min(start + window, horizon + 1)))
        rng.shuffle(block)
        order.extend(i for i in block if rng.random() >= loss_rate)
    prefix = tuple(order)
    return DeliverySet(prefix, horizon - len(prefix))

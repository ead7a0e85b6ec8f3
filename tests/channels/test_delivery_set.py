"""Tests for delivery sets and the ``del`` surgery (paper 6.1, 6.3)."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.delivery_set import (
    _BLOCK,
    DeliverySet,
    DeliverySetError,
    random_lossy_fifo,
    random_reordering,
)

from ..hash_contract import assert_hash_contract, has_stored_hash


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def delivery_sets(draw, max_len: int = 12):
    """Arbitrary legal delivery sets with a short explicit prefix."""
    length = draw(st.integers(0, max_len))
    pool = draw(
        st.permutations(list(range(1, max_len * 2 + 1)))
    )
    prefix = tuple(pool[:length])
    floor = max(prefix) if prefix else 0
    tail_offset = draw(st.integers(0, 5)) + max(0, floor - length)
    return DeliverySet(prefix, tail_offset)


@st.composite
def monotone_delivery_sets(draw, max_len: int = 12):
    length = draw(st.integers(0, max_len))
    indices = draw(
        st.lists(
            st.integers(1, max_len * 3),
            min_size=length,
            max_size=length,
            unique=True,
        )
    )
    prefix = tuple(sorted(indices))
    floor = max(prefix) if prefix else 0
    tail_offset = draw(st.integers(0, 5)) + max(0, floor - length)
    return DeliverySet(prefix, tail_offset)


# ----------------------------------------------------------------------
# Construction and invariants
# ----------------------------------------------------------------------


class TestConstruction:
    def test_fifo_is_identity(self):
        fifo = DeliverySet.fifo()
        assert [fifo.source_of(j) for j in range(1, 6)] == [1, 2, 3, 4, 5]
        assert fifo.is_monotone()

    def test_duplicate_send_index_rejected(self):
        with pytest.raises(DeliverySetError):
            DeliverySet((1, 1), 1)

    def test_nonpositive_index_rejected(self):
        with pytest.raises(DeliverySetError):
            DeliverySet((0,), 1)

    def test_tail_collision_rejected(self):
        # prefix uses 5; first tail slot would be 2 + offset.
        with pytest.raises(DeliverySetError):
            DeliverySet((5,), 2)  # first tail index = 2+2 = 4 < 5

    def test_negative_tail_rejected(self):
        with pytest.raises(DeliverySetError):
            DeliverySet((), -1)

    def test_from_pairs(self):
        ds = DeliverySet.from_pairs([(2, 1), (1, 2), (3, 3)])
        assert ds.source_of(1) == 2
        assert ds.source_of(2) == 1
        assert ds.source_of(3) == 3

    def test_from_pairs_gap_rejected(self):
        with pytest.raises(DeliverySetError):
            DeliverySet.from_pairs([(1, 1), (3, 3)])

    def test_from_pairs_duplicate_slot_rejected(self):
        with pytest.raises(DeliverySetError):
            DeliverySet.from_pairs([(1, 1), (2, 1)])


class TestLookup:
    def test_slot_of_prefix(self):
        ds = DeliverySet((3, 1), 3)
        assert ds.slot_of(3) == 1
        assert ds.slot_of(1) == 2

    def test_slot_of_tail(self):
        ds = DeliverySet((3, 1), 3)
        # slot 3 -> 3+3 = 6
        assert ds.source_of(3) == 6
        assert ds.slot_of(6) == 3

    def test_lost_index(self):
        ds = DeliverySet((3, 1), 3)
        assert ds.is_lost(2)
        assert ds.lost_indices(6) == (2, 4, 5)

    def test_pairs_iteration(self):
        ds = DeliverySet((2,), 1)
        assert list(ds.pairs(3)) == [(2, 1), (3, 2), (4, 3)]

    def test_invalid_slot_rejected(self):
        with pytest.raises(DeliverySetError):
            DeliverySet.fifo().source_of(0)


class TestDeleteSurgery:
    def test_delete_prefix_slot(self):
        ds = DeliverySet((2, 1, 3), 0)
        deleted = ds.delete_slot(2)  # remove (1, 2)
        assert deleted.source_of(1) == 2
        assert deleted.source_of(2) == 3
        assert deleted.is_lost(1)

    def test_delete_shifts_tail(self):
        ds = DeliverySet((1,), 0)  # slots: 1->1, 2->2, 3->3 ...
        deleted = ds.delete_slot(2)  # remove (2, 2)
        assert deleted.source_of(2) == 3
        assert deleted.is_lost(2)

    def test_delete_tail_slot_materializes_prefix(self):
        ds = DeliverySet.fifo()
        deleted = ds.delete_slot(3)
        assert deleted.source_of(1) == 1
        assert deleted.source_of(2) == 2
        assert deleted.source_of(3) == 4
        assert deleted.is_lost(3)

    def test_delete_pair_validates(self):
        ds = DeliverySet.fifo()
        with pytest.raises(DeliverySetError):
            ds.delete_pair(5, 1)
        assert ds.delete_pair(1, 1).is_lost(1)

    def test_delete_slots_batch(self):
        ds = DeliverySet.fifo()
        deleted = ds.delete_slots([1, 3])
        # Original slots 1 and 3 (sends 1 and 3) are gone.
        assert deleted.is_lost(1)
        assert deleted.is_lost(3)
        assert deleted.source_of(1) == 2
        assert deleted.source_of(2) == 4


# ----------------------------------------------------------------------
# Property-based invariants
# ----------------------------------------------------------------------


class TestProperties:
    @given(delivery_sets())
    def test_slots_unique_per_send_index(self, ds):
        seen = {}
        for j in range(1, 30):
            i = ds.source_of(j)
            assert i not in seen, "send index delivered twice"
            seen[i] = j

    @given(delivery_sets())
    def test_slot_of_inverts_source_of(self, ds):
        for j in range(1, 20):
            assert ds.slot_of(ds.source_of(j)) == j

    @given(monotone_delivery_sets())
    def test_monotone_strategy_is_monotone(self, ds):
        assert ds.is_monotone()

    @given(monotone_delivery_sets(), st.integers(1, 15))
    def test_delete_preserves_monotonicity(self, ds, slot):
        # The paper notes: if S is monotone, so is del(S, X).
        assert ds.delete_slot(slot).is_monotone()

    @given(delivery_sets(), st.integers(1, 15))
    def test_delete_removes_and_shifts(self, ds, slot):
        deleted = ds.delete_slot(slot)
        victim = ds.source_of(slot)
        assert deleted.is_lost(victim)
        for j in range(1, slot):
            assert deleted.source_of(j) == ds.source_of(j)
        for j in range(slot, 20):
            assert deleted.source_of(j) == ds.source_of(j + 1)

    @given(delivery_sets())
    def test_totality(self, ds):
        # Every receive slot has a source: totality of the relation.
        for j in range(1, 50):
            assert ds.source_of(j) >= 1


class TestScriptedGenerators:
    def test_lossy_fifo_is_monotone(self):
        for seed in range(10):
            assert random_lossy_fifo(seed, 0.4, 50).is_monotone()

    def test_lossy_fifo_zero_loss_is_fifo(self):
        ds = random_lossy_fifo(0, 0.0, 50)
        assert [ds.source_of(j) for j in range(1, 51)] == list(
            range(1, 51)
        )

    def test_lossy_fifo_loses_roughly_at_rate(self):
        ds = random_lossy_fifo(42, 0.5, 1000)
        lost = len(ds.lost_indices(1000))
        assert 350 < lost < 650

    def test_lossy_fifo_deterministic(self):
        assert random_lossy_fifo(7, 0.3, 100) == random_lossy_fifo(
            7, 0.3, 100
        )

    def test_lossy_fifo_invalid_rate(self):
        with pytest.raises(DeliverySetError):
            random_lossy_fifo(0, 1.0, 10)

    def test_reordering_valid_delivery_set(self):
        for seed in range(10):
            ds = random_reordering(seed, 0.2, 4, 50)
            # Valid by construction; spot check invertibility.
            for j in range(1, 40):
                assert ds.slot_of(ds.source_of(j)) == j

    def test_reordering_actually_reorders(self):
        reordered = any(
            not random_reordering(seed, 0.0, 8, 64).is_monotone()
            for seed in range(10)
        )
        assert reordered

    def test_reordering_window_one_is_fifo(self):
        assert random_reordering(3, 0.0, 1, 50).is_monotone()

    def test_reordering_invalid_window(self):
        with pytest.raises(DeliverySetError):
            random_reordering(0, 0.0, 0, 10)

    @pytest.mark.parametrize("loss_rate", [1.0, 1.5, -3.0])
    def test_reordering_invalid_rate(self, loss_rate):
        # Rates outside [0, 1) used to lose every send (1.5) or none
        # (-3) without complaint; they are rejected before any draw.
        with pytest.raises(DeliverySetError):
            random_reordering(0, loss_rate, 4, 10)

    def test_negative_horizon_rejected(self):
        with pytest.raises(DeliverySetError):
            random_lossy_fifo(0, 0.2, -1)
        with pytest.raises(DeliverySetError):
            random_reordering(0, 0.2, 4, -1)


# ----------------------------------------------------------------------
# Sets drawn on demand, against the eager generators as the oracle
# ----------------------------------------------------------------------


def eager_lossy_fifo(
    seed: int, loss_rate: float, horizon: int
) -> DeliverySet:
    """The eager generator the on-demand one must reproduce exactly."""
    if not 0.0 <= loss_rate < 1.0:
        raise DeliverySetError("loss_rate must be in [0, 1)")
    rng = random.Random(seed)
    surviving = [
        i for i in range(1, horizon + 1) if rng.random() >= loss_rate
    ]
    prefix = tuple(surviving)
    return DeliverySet(prefix, horizon - len(prefix))


def eager_reordering(
    seed: int, loss_rate: float, window: int, horizon: int
) -> DeliverySet:
    """The eager generator the on-demand one must reproduce exactly."""
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


@st.composite
def draw_specs(draw):
    """(on-demand builder, eager oracle builder, horizon)."""
    seed = draw(st.integers(0, 2**32 - 1))
    loss_rate = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    window = draw(st.integers(1, 17))
    horizon = draw(
        st.sampled_from(
            sorted(
                {0, 1, window - 1, window + 1, _BLOCK - 1, _BLOCK + 1, 1024}
            )
        )
    )
    if draw(st.booleans()):
        return (
            lambda: random_lossy_fifo(seed, loss_rate, horizon),
            lambda: eager_lossy_fifo(seed, loss_rate, horizon),
            horizon,
        )
    return (
        lambda: random_reordering(seed, loss_rate, window, horizon),
        lambda: eager_reordering(seed, loss_rate, window, horizon),
        horizon,
    )


#: Every way to read a whole set, by name; each must draw the rest.
WHOLE_SET_READS = {
    "prefix": lambda ds: ds.prefix,
    "tail_offset": lambda ds: ds.tail_offset,
    "hash": hash,
    "repr": repr,
    "is_monotone": lambda ds: ds.is_monotone(),
    "pickle": lambda ds: pickle.loads(pickle.dumps(ds)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
}


class TestDrawnOnDemand:
    @given(spec=draw_specs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_eager_oracle(self, spec, data):
        build, build_oracle, horizon = spec
        oracle = build_oracle()
        slots = list(range(1, horizon + 2 * _BLOCK))
        for name, read in sorted(WHOLE_SET_READS.items()):
            drawn = build()
            probes = data.draw(
                st.lists(st.sampled_from(slots), max_size=12), label=name
            )
            for j in probes:
                assert drawn.source_of(j) == oracle.source_of(j)
            value = read(drawn)
            assert value == read(oracle), name
            if isinstance(value, DeliverySet):
                assert "_draw" not in vars(value)
                assert not has_stored_hash(value)
            assert drawn == oracle and oracle == drawn
        drawn = build()
        assert oracle == drawn and drawn == oracle
        for j in range(1, horizon + _BLOCK):
            assert build().source_of(j) == oracle.source_of(j)

    @given(spec=draw_specs(), slot=st.integers(1, 80))
    @settings(max_examples=30, deadline=None)
    def test_hash_contract_before_and_after_a_partial_draw(
        self, spec, slot
    ):
        build, _, _ = spec
        assert_hash_contract(build())
        drawn = build()
        drawn.source_of(slot)
        assert not has_stored_hash(drawn)
        assert_hash_contract(drawn)

    def test_a_lookup_draws_one_block(self):
        drawn = random_lossy_fifo(5, 0.2, 1024)
        drawn.source_of(1)
        assert len(vars(drawn)["_draw"].drawn) <= _BLOCK
        assert "prefix" not in vars(drawn)

    def test_fifo_draw_answers_monotone_without_drawing(self):
        drawn = random_lossy_fifo(5, 0.2, 1024)
        assert drawn.is_monotone()
        assert vars(drawn)["_draw"].drawn == []

    def test_the_rng_is_released_once_the_horizon_is_drawn(self):
        drawn = random_reordering(5, 0.2, 4, _BLOCK // 2)
        drawn.source_of(1)  # the first block reaches the horizon
        assert vars(drawn)["_draw"].blocks is None
        drawn.source_of(_BLOCK)  # beyond the drawn prefix: store it
        assert "_draw" not in vars(drawn)

    def test_reading_a_field_stores_both(self):
        drawn = random_reordering(9, 0.5, 3, 100)
        oracle = eager_reordering(9, 0.5, 3, 100)
        assert drawn.tail_offset == oracle.tail_offset
        assert set(vars(drawn)) == {"prefix", "tail_offset"}

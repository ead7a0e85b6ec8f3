"""The channel state types hash once and never carry the hash along."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabets import Message, Packet
from repro.channels.bounded import BoundedChannelState
from repro.channels.delivery_set import DeliverySet
from repro.channels.permissive import PermissiveChannelState
from repro.ioa.hashing import hash_once

from ..hash_contract import (
    COPIES,
    assert_hash_contract,
    build_in_other_process,
    corrupted_start,
    has_stored_hash,
    structural_hash,
)

GHOST = Packet("data", (Message(7, "g"),), uid=3)


def samples():
    return {
        "delivery": DeliverySet((3, 1), 1),
        "permissive": PermissiveChannelState(
            2, 1, (GHOST, Packet("ack", ())), DeliverySet((2, 1), 0)
        ),
        "bounded": BoundedChannelState(
            3, 1, ((2, GHOST), (3, Packet("ack", ()))), 1, 0, (3,)
        ),
    }


@pytest.mark.parametrize("kind", sorted(samples()))
class TestStoredHash:
    def test_construction_does_not_hash(self, kind):
        assert not has_stored_hash(samples()[kind])

    def test_first_hash_is_stored_and_structural(self, kind):
        value = samples()[kind]
        assert hash(value) == structural_hash(value)
        assert has_stored_hash(value)

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_copies_drop_the_stored_hash(self, kind, how):
        value = samples()[kind]
        hash(value)
        duplicate = COPIES[how](value)
        assert not has_stored_hash(duplicate)
        assert duplicate == value
        assert hash(duplicate) == hash(value)

    def test_eq_and_repr_ignore_the_stored_hash(self, kind):
        hashed, fresh = samples()[kind], samples()[kind]
        hash(hashed)
        assert hashed == fresh
        assert repr(hashed) == repr(fresh)
        assert "_hash" not in repr(hashed)


def test_hash_once_needs_a_generated_hash():
    # A mutable dataclass has no hash to cache.
    with pytest.raises(TypeError):
        hash_once(dataclass(type("Mutable", (), {})))


def test_state_pickled_under_another_hash_seed_hashes_locally():
    remote, remote_hash = build_in_other_process(
        """
        from repro.alphabets import Message, Packet
        from repro.channels.delivery_set import DeliverySet
        from repro.channels.permissive import PermissiveChannelState
        """,
        "PermissiveChannelState(1, 0, (Packet('data', (Message(7, 'g'),)),),"
        " DeliverySet((1,), 0))",
    )
    local = PermissiveChannelState(
        1, 0, (Packet("data", (Message(7, "g"),)),), DeliverySet((1,), 0)
    )
    # String hashes differ across hash seeds, so the child's cached
    # hash is wrong here; the unpickled state must not have brought it.
    assert remote_hash != hash(local)
    assert not has_stored_hash(remote)
    assert not has_stored_hash(remote.delivery)
    assert remote == local
    assert hash(remote) == hash(local)
    assert {remote: 1}[local] == 1


class TestProperties:
    @given(
        prefix=st.lists(st.integers(1, 12), unique=True, max_size=6),
        extra=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_delivery_sets(self, prefix, extra):
        offset = max(prefix, default=0) - len(prefix) + extra
        assert_hash_contract(DeliverySet(tuple(prefix), offset))

    @given(
        channel=st.sampled_from(["fifo", "nonfifo", "bounded_nonfifo"]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_corrupted_start_channel_slices(self, channel, seed):
        state = corrupted_start("alternating_bit", channel, seed)
        for slice_state in state[2:]:
            assert isinstance(
                slice_state, (PermissiveChannelState, BoundedChannelState)
            )
            assert_hash_contract(slice_state)
            if isinstance(slice_state, PermissiveChannelState):
                assert_hash_contract(slice_state.delivery)

"""Host states hash once and never carry the hash along."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabets import Message
from repro.datalink.protocol import HostState

from ..hash_contract import (
    COPIES,
    assert_hash_contract,
    build_in_other_process,
    corrupted_start,
    has_stored_hash,
    structural_hash,
)


def sample() -> HostState:
    return HostState(("queue", (Message(1, "g"), Message(2, "g"))), 4)


class TestStoredHash:
    def test_construction_does_not_hash(self):
        assert not has_stored_hash(sample())

    def test_first_hash_is_stored_and_structural(self):
        value = sample()
        assert hash(value) == structural_hash(value)
        assert has_stored_hash(value)

    @pytest.mark.parametrize("how", sorted(COPIES))
    def test_copies_drop_the_stored_hash(self, how):
        value = sample()
        hash(value)
        duplicate = COPIES[how](value)
        assert not has_stored_hash(duplicate)
        assert duplicate == value
        assert hash(duplicate) == hash(value)

    def test_with_core_builds_an_unhashed_state(self):
        value = sample()
        hash(value)
        assert not has_stored_hash(value.with_core(value.core))

    def test_eq_and_repr_ignore_the_stored_hash(self):
        hashed, fresh = sample(), sample()
        hash(hashed)
        assert hashed == fresh
        assert repr(hashed) == repr(fresh)


def test_state_pickled_under_another_hash_seed_hashes_locally():
    remote, remote_hash = build_in_other_process(
        """
        from repro.alphabets import Message
        from repro.datalink.protocol import HostState
        """,
        "HostState(('queue', (Message(1, 'g'), Message(2, 'g'))), 4)",
    )
    local = sample()
    # String hashes differ across hash seeds, so the child's cached
    # hash is wrong here; the unpickled state must not have brought it.
    assert remote_hash != hash(local)
    assert not has_stored_hash(remote)
    assert remote == local
    assert hash(remote) == hash(local)
    assert {remote: 1}[local] == 1


@given(
    protocol=st.sampled_from(
        ["alternating_bit", "stenning", "sliding_window", "naive"]
    ),
    channel=st.sampled_from(["fifo", "nonfifo", "bounded_nonfifo"]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_corrupted_start_host_slices(protocol, channel, seed):
    state = corrupted_start(protocol, channel, seed)
    for slice_state in state[:2]:
        assert isinstance(slice_state, HostState)
        assert_hash_contract(slice_state)

"""Property tests for the state encoder.

The encoder is the engine's load-bearing abstraction: every backend
(pure-Python, compiled, disk-backed) trusts that encoding is
a bijection on the states it has seen.  Hypothesis drives the check
over *arbitrary* composed states -- each slice drawn independently from
its component's locally-reachable pool, so most samples are jointly
unreachable, exactly like the self-stabilization corrupted starts.
"""

from __future__ import annotations

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.arbitrary import component_state_pools
from repro.conformance.harness import FuzzConfig, SubSeeds, build_system
from repro.ioa.engine.encoding import EncodingOverflow, StateEncoder

_SYSTEM = build_system(
    "alternating_bit",
    "nonfifo",
    SubSeeds.derive(random.Random(1011)),
    FuzzConfig(messages=2, capacity=2, horizon=16),
)
_COMPOSITION = _SYSTEM.automaton.inner
_POOLS = component_state_pools(_SYSTEM)

#: A strategy over composed states: one locally-reachable slice per
#: slot, combined freely (the product is generally unreachable).
composed_states = st.tuples(
    *(st.sampled_from(pool) for pool in _POOLS)
)


class TestRoundTrip:
    @given(state=composed_states)
    @settings(max_examples=50, deadline=None)
    def test_decode_inverts_encode(self, state):
        encoder = StateEncoder(_COMPOSITION)
        assert encoder.decode(encoder.encode(state)) == state

    @given(state=composed_states)
    @settings(max_examples=50, deadline=None)
    def test_packed_round_trip(self, state):
        encoder = StateEncoder(_COMPOSITION)
        key = encoder.encode_packed(state)
        assert encoder.unpack(key) == encoder.encode(state)
        assert encoder.decode_packed(key) == state

    @given(state=composed_states)
    @settings(max_examples=50, deadline=None)
    def test_equal_states_encode_equal(self, state):
        # A structurally equal but freshly built state must intern to
        # the same ids -- interning keys on value, not identity.
        encoder = StateEncoder(_COMPOSITION)
        first = encoder.encode(state)
        second = encoder.encode(copy.deepcopy(state))
        assert first == second

    @given(left=composed_states, right=composed_states)
    @settings(max_examples=50, deadline=None)
    def test_distinct_states_encode_distinct(self, left, right):
        encoder = StateEncoder(_COMPOSITION)
        left_code = encoder.encode(left)
        right_code = encoder.encode(right)
        assert (left_code == right_code) == (left == right)

    def test_decoded_slices_are_canonical(self):
        # Decoding shares slice objects with the intern tables, so two
        # decodes of the same code are element-identical (the equality
        # fast path the engine relies on).
        encoder = StateEncoder(_COMPOSITION)
        state = _COMPOSITION.initial_state()
        code = encoder.encode(state)
        first = encoder.decode(code)
        second = encoder.decode(code)
        assert all(a is b for a, b in zip(first, second))


class TestOverflow:
    def test_pack_overflow_is_signalled(self):
        # A 4-bit budget over 4 slots leaves 1 bit per slot: the third
        # distinct slice in any slot cannot be addressed.
        encoder = StateEncoder(_COMPOSITION, pack_bits=4)
        assert encoder.bits_per_slot == 1
        seen = []
        for pool in _POOLS:
            seen.append(pool[: min(3, len(pool))])
        for slice_state in seen[0]:
            encoder.intern_slice(0, slice_state)
        overflowing = (2,) + (0,) * (encoder.n - 1)
        try:
            encoder.pack(overflowing)
        except EncodingOverflow:
            pass
        else:  # pragma: no cover - property failure
            raise AssertionError("pack accepted an id past the budget")

    def test_tuple_encoding_has_no_width_limit(self):
        # The tuple form must keep working where the packed form
        # overflows -- that is the fallback contract.
        encoder = StateEncoder(_COMPOSITION, pack_bits=4)
        for state in (
            tuple(pool[0] for pool in _POOLS),
            tuple(pool[-1] for pool in _POOLS),
        ):
            assert encoder.decode(encoder.encode(state)) == state


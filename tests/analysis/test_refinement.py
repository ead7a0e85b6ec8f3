"""Tests for refinement mappings and the reliable-link proofs."""

from __future__ import annotations

import pytest

from repro.alphabets import Message
from repro.analysis import (
    ReliableLinkSpec,
    abp_mapping,
    verify_abp_refinement,
    verify_refinement,
)
from repro.analysis.refinement_proofs import eager_mapping
from repro.datalink import receive_msg, send_msg
from repro.ioa import check_refinement
from repro.protocols import eager_protocol

M1, M2 = Message(1), Message(2)


class TestReliableLinkSpec:
    def setup_method(self):
        self.spec = ReliableLinkSpec()

    def test_send_appends(self):
        state = self.spec.step((), send_msg("t", "r", M1))
        assert state == (M1,)

    def test_receive_pops_head_only(self):
        state = (M1, M2)
        assert self.spec.transitions(state, receive_msg("t", "r", M1))
        assert not self.spec.transitions(state, receive_msg("t", "r", M2))

    def test_enabled_delivery_is_head(self):
        (action,) = list(self.spec.enabled_local_actions((M1, M2)))
        assert action.payload == M1

    def test_empty_queue_quiescent(self):
        assert self.spec.is_quiescent(())


class TestCheckRefinement:
    def test_identity_refines_itself(self):
        spec = ReliableLinkSpec()

        def environment(state):
            if len(state) < 2:
                return [send_msg("t", "r", Message(len(state) + 10))]
            return []

        result = check_refinement(
            spec, ReliableLinkSpec(), lambda s: s, environment=environment
        )
        assert result.holds and result.exhaustive

    def test_wrong_start_mapping_rejected(self):
        spec = ReliableLinkSpec()
        result = check_refinement(spec, ReliableLinkSpec(), lambda s: (M1,))
        assert not result.holds
        assert "start state" in result.failure


class TestAbpRefinement:
    """The structural proof that ABP solves the reliable link."""

    def test_abp_refines_reliable_link(self):
        result = verify_abp_refinement(messages=2, capacity=2)
        assert result.holds
        assert result.exhaustive
        assert result.states_checked > 500

    def test_abp_refines_at_larger_bounds(self):
        result = verify_abp_refinement(messages=3, capacity=2)
        assert result.holds and result.exhaustive

    def test_mapping_shape(self):
        # Spot-check the mapping on a hand-built composed state.
        from repro.datalink.protocol import HostState
        from repro.protocols.alternating_bit import (
            AbpReceiverCore,
            AbpTransmitterCore,
        )

        tx = HostState(AbpTransmitterCore(bit=0, queue=(M1, M2)))
        # Receiver accepted M1 (expected flipped) but tx not yet acked.
        rx = HostState(AbpReceiverCore(expected=1, inbox=(M1,)))
        state = (tx, rx, (), (), None)
        assert abp_mapping(state) == (M1, M2)

    def test_eager_fails_refinement(self):
        result = verify_refinement(
            eager_protocol(), eager_mapping, messages=1, capacity=2
        )
        assert not result.holds
        assert result.failing_trace
        assert "not a specification step" in result.failure


# Values recorded before the walk moved onto the encoder's per-slice
# memo: the encoded walk must reproduce them exactly.
PINNED_ABP = {(2, 2): 1020, (3, 2): 2742, (3, 3): 5560}
PINNED_EAGER = {(2, 2): 13, (3, 2): 14, (3, 3): 15}
Q0 = "Message(ident=0, label='q', size=0)"
EAGER_FAILURE = (
    f"step receive_msg^{{t,r}}({Q0}) maps ({Q0},) to ({Q0},), which is "
    "not a specification step"
)
EAGER_TRACE = [
    "wake^{t,r}",
    "wake^{r,t}",
    f"send_msg^{{t,r}}({Q0})",
    f"send_pkt^{{t,r}}(Packet(header='DATA', body=({Q0},), uid=None))",
    f"receive_pkt^{{t,r}}(Packet(header='DATA', body=({Q0},), uid=None))",
    f"receive_msg^{{t,r}}({Q0})",
]


class TestPinnedResults:
    @pytest.mark.parametrize("bounds", sorted(PINNED_ABP))
    def test_abp_states_checked(self, bounds):
        messages, capacity = bounds
        result = verify_abp_refinement(messages=messages, capacity=capacity)
        assert result.holds and result.exhaustive
        assert result.states_checked == PINNED_ABP[bounds]
        assert result.failure is None and result.failing_trace == ()

    @pytest.mark.parametrize("bounds", sorted(PINNED_EAGER))
    def test_eager_failure(self, bounds):
        messages, capacity = bounds
        result = verify_refinement(
            eager_protocol(), eager_mapping, messages, capacity
        )
        assert not result.holds and result.exhaustive
        assert result.states_checked == PINNED_EAGER[bounds]
        assert result.failure == EAGER_FAILURE
        assert [str(action) for action in result.failing_trace] == EAGER_TRACE

    @pytest.mark.parametrize(
        "max_states, exhaustive", [(1, False), (300, False), (1019, False),
                                   (1020, True)]
    )
    def test_budget(self, max_states, exhaustive):
        from repro.protocols import alternating_bit_protocol

        result = verify_refinement(
            alternating_bit_protocol(), abp_mapping, 2, 2,
            max_states=max_states,
        )
        assert result.holds
        assert result.states_checked == max_states
        assert result.exhaustive == exhaustive

    def test_plain_automaton_walk(self):
        # A non-composition implementation steps through transitions.
        def environment(state):
            if len(state) < 2:
                return [send_msg("t", "r", Message(len(state) + 10))]
            return []

        result = check_refinement(
            ReliableLinkSpec(), ReliableLinkSpec(), lambda s: s,
            environment=environment,
        )
        assert (result.holds, result.states_checked, result.exhaustive) == (
            True, 5, True
        )

"""Tests for the simulation runner, fault scripts and metrics."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabets import MessageFactory
from repro.conformance.arbitrary import component_state_pools
from repro.conformance.harness import FuzzConfig, SubSeeds, build_system
from repro.datalink import dl2, dl3, dl_well_formed
from repro.protocols import (
    alternating_bit_protocol,
    stenning_protocol,
)
from repro.sim import (
    FaultPlan,
    channel_stats,
    crash_storm,
    delivery_stats,
    distinct_headers_used,
    fifo_system,
    generate_script,
    run_batch,
    run_scenario,
)
from repro.ioa.execution import ExecutionFragment
from repro.sim.runner import ScenarioResult

from ..conftest import deliver_all

_SYSTEM = build_system(
    "alternating_bit",
    "nonfifo",
    SubSeeds.derive(random.Random(1011)),
    FuzzConfig(messages=2, capacity=2, horizon=16),
)
#: Locally-reachable slices per slot; composed freely below.
_POOLS = component_state_pools(_SYSTEM)


class TestFaultScripts:
    def test_script_starts_with_wakes(self):
        system = fifo_system(alternating_bit_protocol())
        script = generate_script(system, FaultPlan(messages=5, seed=1))
        assert script.actions[0] == system.wake_t()
        assert script.actions[1] == system.wake_r()
        assert len(script.messages) == 5

    def test_plain_script_has_no_faults(self):
        system = fifo_system(alternating_bit_protocol())
        script = generate_script(system, FaultPlan(messages=5, seed=1))
        assert not script.has_faults

    @pytest.mark.parametrize("seed", range(5))
    def test_scripts_satisfy_environment_obligations(self, seed):
        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(
            messages=8,
            fail_probability=0.2,
            crash_probability=0.1,
            seed=seed,
        )
        script = generate_script(system, plan)
        assert dl_well_formed(script.actions, "t", "r").holds
        assert dl2(script.actions, "t", "r").holds
        assert dl3(script.actions, "t", "r").holds

    def test_scripts_deterministic_in_seed(self):
        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(messages=5, fail_probability=0.3, seed=9)
        factory_a = MessageFactory()
        factory_b = MessageFactory()
        a = generate_script(system, plan, factory_a)
        b = generate_script(system, plan, factory_b)
        assert a.actions == b.actions

    @pytest.mark.parametrize("seed", range(3))
    def test_receiver_outages_stay_well_formed(self, seed):
        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(
            messages=6,
            fail_probability=0.15,
            receiver_fail_probability=0.15,
            seed=seed,
        )
        script = generate_script(system, plan)
        assert dl_well_formed(script.actions, "t", "r").holds
        assert dl2(script.actions, "t", "r").holds

    def test_crash_storm_counts(self):
        system = fifo_system(alternating_bit_protocol())
        script = crash_storm(system, crashes=4, messages_between=2)
        assert script.crash_count == 4
        assert len(script.messages) == 10  # initial burst + 4 more
        assert dl_well_formed(script.actions, "t", "r").holds

    @pytest.mark.parametrize("seed", range(5))
    def test_dynamic_link_scripts_stay_well_formed(self, seed):
        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(
            messages=8,
            link_flap_probability=0.3,
            link_partition_probability=0.2,
            seed=seed,
        )
        script = generate_script(system, plan)
        assert dl_well_formed(script.actions, "t", "r").holds
        assert dl2(script.actions, "t", "r").holds
        assert dl3(script.actions, "t", "r").holds

    def test_dynamic_link_events_are_counted_as_faults(self):
        system = fifo_system(alternating_bit_protocol())
        plan = FaultPlan(
            messages=12,
            link_flap_probability=0.4,
            link_partition_probability=0.3,
            seed=3,
        )
        script = generate_script(system, plan)
        assert script.link_flaps > 0
        assert script.link_partitions > 0
        assert script.crash_count == 0
        assert script.has_faults

    def test_zero_link_probabilities_are_byte_compatible(self):
        # The dynamic-link windows sit after the legacy crash/fail
        # windows, so a plan that never exercises them must consume the
        # RNG identically to the pre-dynamic-link generator.
        system = fifo_system(alternating_bit_protocol())
        legacy = generate_script(
            system,
            FaultPlan(messages=10, fail_probability=0.3, seed=123),
            MessageFactory(),
        )
        extended = generate_script(
            system,
            FaultPlan(
                messages=10,
                fail_probability=0.3,
                link_flap_probability=0.0,
                link_partition_probability=0.0,
                seed=123,
            ),
            MessageFactory(),
        )
        assert legacy.actions == extended.actions
        assert extended.link_flaps == extended.link_partitions == 0

    def test_link_mixes_are_registered_fault_mixes(self):
        from repro.conformance import FuzzConfig
        from repro.conformance.harness import FAULT_MIXES, with_mix

        for mix in ("link-flap", "link-partition"):
            assert mix in FAULT_MIXES
        assert with_mix(FuzzConfig(), "link-flap").link_flap_probability > 0
        assert (
            with_mix(FuzzConfig(), "link-partition").link_partition_probability
            > 0
        )


class TestRunner:
    def test_scenario_quiesces(self):
        system = fifo_system(alternating_bit_protocol())
        script = generate_script(system, FaultPlan(messages=5, seed=2))
        result = run_scenario(system, script.actions, seed=2)
        assert result.quiescent
        assert result.steps >= len(script.actions)

    def test_interleaving_differs_across_seeds(self):
        system_a = fifo_system(alternating_bit_protocol())
        system_b = fifo_system(alternating_bit_protocol())
        script = generate_script(system_a, FaultPlan(messages=6, seed=3))
        a = run_scenario(system_a, script.actions, seed=1)
        b = run_scenario(system_b, script.actions, seed=2)
        # Same inputs, different interleavings (almost surely).
        assert a.fragment.actions != b.fragment.actions

    def test_run_batch(self):
        results = run_batch(
            lambda seed: fifo_system(alternating_bit_protocol()),
            lambda system, seed: generate_script(
                system, FaultPlan(messages=3, seed=seed)
            ).actions,
            seeds=range(3),
        )
        assert len(results) == 3
        assert all(r.quiescent for r in results)


class TestDistinctStates:
    @given(
        picks=st.lists(
            st.tuples(
                st.booleans(),
                *(st.integers(0, len(pool) - 1) for pool in _POOLS),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_first_occurrence_order_dedup_by_value(self, picks):
        # A ``clone`` pick is an equal state built from distinct (deep
        # copied, never hashed) objects: dedup must go by value.
        states = []
        for clone, *indices in picks:
            state = tuple(pool[i] for pool, i in zip(_POOLS, indices))
            states.append(copy.deepcopy(state) if clone else state)
        wake = _SYSTEM.wake_t()
        result = ScenarioResult(
            fragment=ExecutionFragment(
                tuple(states), (wake,) * (len(states) - 1)
            ),
            behavior=(),
            quiescent=True,
        )
        expected = []
        for state in states:
            if state not in expected:
                expected.append(state)
        distinct = result.distinct_states()
        assert distinct == expected
        # The first occurrence of each value is the one kept.
        assert all(
            kept is next(s for s in states if s == kept) for kept in distinct
        )


class TestMetrics:
    def test_delivery_stats(self, factory):
        system = fifo_system(alternating_bit_protocol())
        messages = factory.fresh_many(5)
        fragment = deliver_all(system, messages)
        stats = delivery_stats(fragment)
        assert stats.sent == 5
        assert stats.delivered == 5
        assert stats.duplicates == 0
        assert stats.delivery_ratio == 1.0
        assert stats.mean_latency > 0
        assert len(stats.latencies) == 5

    def test_channel_stats(self, factory):
        system = fifo_system(alternating_bit_protocol())
        fragment = deliver_all(system, factory.fresh_many(4))
        tr = channel_stats(fragment, "t", "r")
        rt = channel_stats(fragment, "r", "t")
        assert tr.packets_sent >= 4
        assert tr.packets_received >= 4
        assert tr.loss_ratio == 0.0  # perfect channels
        assert tr.distinct_headers == 2  # (DATA,0) and (DATA,1)
        assert rt.distinct_headers == 2  # (ACK,0) and (ACK,1)

    def test_distinct_headers_stenning_grows(self, factory):
        system = fifo_system(stenning_protocol())
        fragment = deliver_all(system, factory.fresh_many(6))
        assert distinct_headers_used(fragment) == 6

    def test_empty_fragment_stats(self):
        from repro.ioa import ExecutionFragment

        stats = delivery_stats(ExecutionFragment.initial(()))
        assert stats.sent == 0 and stats.delivery_ratio == 1.0
        assert stats.mean_latency == 0.0

    def test_delivery_without_send_is_anomalous_not_perfect(self, factory):
        # A fragment sliced after its sends: deliveries with sent == 0
        # must report ratio 0.0 (never "vacuously perfect") and flag
        # the anomaly on the event stream.
        from repro.datalink.actions import receive_msg
        from repro.ioa import ExecutionFragment
        from repro.obs import MemorySink, tracing

        message = factory.fresh()
        fragment = ExecutionFragment(
            states=((), ()), actions=(receive_msg("t", "r", message),)
        )
        with tracing(MemorySink()) as tracer:
            stats = delivery_stats(fragment)
        assert stats.sent == 0 and stats.delivered == 1
        assert stats.delivery_ratio == 0.0
        totals = tracer.snapshot_counters()
        assert totals["sim.anomaly.unsent_delivery"] == 1

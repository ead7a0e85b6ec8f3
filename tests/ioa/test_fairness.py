"""Tests for fair execution and the executable Lemma 2.1."""

from __future__ import annotations

import pytest

from repro.ioa import (
    Action,
    ActionSignature,
    Automaton,
    ExecutionFragment,
    FairnessTimeout,
    apply_inputs,
    fair_extension,
    is_fair_finite,
    run_to_quiescence,
)
from .toys import Counter, Echo, ping, pong


class Perpetual(Automaton):
    """An output enabled forever: never quiesces."""

    name = "perpetual"

    @property
    def signature(self) -> ActionSignature:
        return ActionSignature.make(outputs=[("spin", None)])

    def initial_state(self):
        return 0

    def transitions(self, state, action):
        if action.name == "spin":
            return (state + 1,)
        return ()

    def enabled_local_actions(self, state):
        yield Action("spin")


class TwoTask(Automaton):
    """Two independent tasks, each needing service to drain."""

    name = "twotask"

    @property
    def signature(self) -> ActionSignature:
        return ActionSignature.make(
            outputs=[("left", None), ("right", None)]
        )

    def initial_state(self):
        return (3, 3)

    def transitions(self, state, action):
        left, right = state
        if action.name == "left" and left > 0:
            return ((left - 1, right),)
        if action.name == "right" and right > 0:
            return ((left, right - 1),)
        return ()

    def enabled_local_actions(self, state):
        left, right = state
        if left > 0:
            yield Action("left")
        if right > 0:
            yield Action("right")

    def task_of(self, action):
        return (self.name, action.name)

    def tasks(self):
        return [(self.name, "left"), (self.name, "right")]


class TestApplyInputs:
    def test_inputs_applied_in_order(self):
        echo = Echo()
        fragment = apply_inputs(echo, (), [ping(1), ping(2)])
        assert fragment.final_state == (1, 2)

    def test_non_input_rejected(self):
        echo = Echo()
        with pytest.raises(ValueError):
            apply_inputs(echo, (), [pong(1)])


class TestRunToQuiescence:
    def test_counter_drains(self):
        counter = Counter(4)
        fragment = run_to_quiescence(counter, counter.initial_state())
        assert fragment.final_state == 0
        assert len(fragment) == 4

    def test_quiescent_start_is_noop(self):
        counter = Counter(0)
        fragment = run_to_quiescence(counter, counter.initial_state())
        assert len(fragment) == 0

    def test_round_robin_serves_both_tasks(self):
        automaton = TwoTask()
        fragment = run_to_quiescence(automaton, automaton.initial_state())
        names = [a.name for a in fragment.actions]
        # Strict alternation: neither task waits more than one turn.
        assert names[:4] in (["left", "right"] * 2, ["right", "left"] * 2)
        assert fragment.final_state == (0, 0)

    def test_timeout_raises_with_fragment(self):
        automaton = Perpetual()
        with pytest.raises(FairnessTimeout) as info:
            run_to_quiescence(automaton, 0, max_steps=10)
        assert len(info.value.fragment) == 10

    def test_stop_when_truncates(self):
        counter = Counter(10)
        fragment = run_to_quiescence(
            counter,
            counter.initial_state(),
            stop_when=lambda a: True,
        )
        assert len(fragment) == 1

    def test_tie_break_override(self):
        automaton = TwoTask()
        fragment = run_to_quiescence(
            automaton,
            automaton.initial_state(),
            tie_break=lambda actions: actions[-1],
        )
        assert fragment.final_state == (0, 0)


class TestFairness:
    def test_quiescent_finite_execution_is_fair(self):
        counter = Counter(2)
        fragment = run_to_quiescence(counter, counter.initial_state())
        assert is_fair_finite(counter, fragment)

    def test_non_quiescent_finite_execution_not_fair(self):
        counter = Counter(2)
        fragment = ExecutionFragment.initial(counter.initial_state())
        assert not is_fair_finite(counter, fragment)


class TestFairExtension:
    """Lemma 2.1: any finite execution extends to a fair one, with any
    further inputs."""

    def test_extends_with_inputs_then_drains(self):
        echo = Echo()
        start = ExecutionFragment.initial(())
        fragment = fair_extension(echo, start, inputs=[ping(1), ping(2)])
        assert is_fair_finite(echo, fragment)
        outputs = [a for a in fragment.actions if a.name == "pong"]
        assert [a.payload for a in outputs] == [1, 2]

    def test_extension_preserves_prefix(self):
        echo = Echo()
        prefix = apply_inputs(echo, (), [ping(9)])
        fragment = fair_extension(echo, prefix)
        assert fragment.actions[: len(prefix)] == prefix.actions


# ----------------------------------------------------------------------
# Pinned schedules: the fair scheduler's tie-break drives every fuzz
# run and load session, so whole campaigns pin its exact order.
# ----------------------------------------------------------------------

#: sha256 digests of :func:`_fuzz_digest` / :func:`_load_digest`,
#: recorded before each task's repr was computed once per run instead
#: of on every step; the tie-break order, and so every output, must
#: not change.
PINNED_FUZZ_NAIVE_NONFIFO = (
    "1f94e24c46b60db5baf76e40a15be61ae1e8558545958bf488117a8c9e19397e"
)
PINNED_FUZZ_ABP_ARBITRARY = (
    "8fa91589b684de2cd7176e0291001051f83a6deee8bb4e463f8831a6d8b498cb"
)
PINNED_LOAD_ABP_NONFIFO = (
    "679623b519271ef151a33774d33747a258036c7f1b973b3039f0b5175f5bb524"
)


def _fuzz_digest(protocol, channel, seed, **knobs):
    import hashlib
    import json

    from repro.conformance.fuzzer import fuzz_campaign
    from repro.conformance.harness import FuzzConfig
    from repro.sim.load import normalized_report

    result = fuzz_campaign(protocol, channel, seed, FuzzConfig(**knobs))
    document = {
        "report": normalized_report(result.report().to_dict()),
        "runs": [
            [
                run.index,
                run.steps,
                run.quiescent,
                run.behavior_length,
                run.new_states,
                run.stabilization_time,
            ]
            for run in result.runs
        ],
        "repros": [violation.repro for violation in result.violations],
    }
    encoded = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(encoded.encode()).hexdigest()


def _load_digest():
    import hashlib
    import json

    from repro.sim.load import LoadConfig, normalized_report, run_load

    result = run_load("alternating_bit", "nonfifo", 0, LoadConfig(sessions=60))
    encoded = json.dumps(
        normalized_report(result.report().to_dict()), sort_keys=True
    )
    return hashlib.sha256(encoded.encode()).hexdigest()


class TestPinnedSchedules:
    def test_fuzz_campaign_with_shrinking(self):
        digest = _fuzz_digest("naive", "nonfifo", 7, runs=6)
        assert digest == PINNED_FUZZ_NAIVE_NONFIFO

    def test_corrupted_start_fuzz_campaign(self):
        digest = _fuzz_digest(
            "alternating_bit",
            "bounded_nonfifo",
            3,
            runs=5,
            messages=4,
            max_steps=4000,
            init_mode="arbitrary",
        )
        assert digest == PINNED_FUZZ_ABP_ARBITRARY

    def test_load_run(self):
        assert _load_digest() == PINNED_LOAD_ABP_NONFIFO

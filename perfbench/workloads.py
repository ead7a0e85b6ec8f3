"""The benchmark's four workloads.

Each workload is a closed loop driven by one process: it sends its next
request only after the previous one returned.  A *round* sends every
case of the workload once; the timed window runs whole rounds until
``--seconds`` have passed.  Every input is derived from ``--seed`` (and
the round number), and every output is checked while it is produced.

The program is reached only through module and class attributes
(``fuzzer.fuzz_campaign``, ``load.run_load`` ...), so the traced run can
wrap those call sites without editing program code.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def sub_seed(*parts) -> int:
    """A 32-bit seed that is a pure function of ``parts``."""
    return random.Random("/".join(str(part) for part in parts)).getrandbits(32)


@dataclass
class RoundResult:
    """What one round of requests did and how long it took."""

    wall_s: float = 0.0  # time inside the program's calls
    units: int = 0  # items of work completed (states, runs, sessions)
    latencies_s: List[float] = field(default_factory=list)  # per request
    attempted: int = 0
    failed: int = 0
    shrunk_violations: int = 0

    def add(self, other: "RoundResult") -> None:
        self.wall_s += other.wall_s
        self.units += other.units
        self.latencies_s.extend(other.latencies_s)
        self.attempted += other.attempted
        self.failed += other.failed
        self.shrunk_violations += other.shrunk_violations


class Workload:
    """Shared plumbing: the seed, the check log and the module handles."""

    name = ""
    unit = ""  # what one item of ``RoundResult.units`` is
    request = ""  # what one latency sample is
    pool_workers = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.errors: List[str] = []
        # Pool workers of the next fuzz campaigns; the traced run sets 1.
        self.workers = self.pool_workers

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> RoundResult:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the timed window to be over."""

    def component_classes(self) -> List[type]:
        """The automaton classes whose stepping the traced run times."""
        classes: List[type] = []
        for composition in self.compositions:
            for component in composition.components:
                if type(component) not in classes:
                    classes.append(type(component))
        return classes


# ----------------------------------------------------------------------
# explore
# ----------------------------------------------------------------------

#: (name, protocol factory, factory args, messages, capacity,
#: reorder_depth, pinned state count, expected verdict).  The closed
#: systems are fixed, so their state counts are pinned; the first four
#: protocols are correct on lossy FIFO channels, and abp-reorder-2 must
#: find its duplicate-delivery counterexample (the count is where the
#: breadth-first search stops).  sliding-window-2 is the size at which
#: the pure-Python engine runs for seconds.
EXPLORE_CASES: Tuple[tuple, ...] = (
    ("abp", "alternating_bit_protocol", (), 4, 3, 1, 11462, True),
    ("sliding-window-2", "sliding_window_protocol", (2,), 3, 3, 1,
     105455, True),
    ("stenning", "stenning_protocol", (), 4, 3, 1, 11462, True),
    ("fragmenting", "fragmenting_protocol", (1, 2), 4, 3, 1, 11462, True),
    ("abp-reorder-2", "alternating_bit_protocol", (), 3, 3, 2, 716, False),
)

#: The budgets ``verify_delivery_order`` passes to ``explore``.
EXPLORE_MAX_STATES = 400_000
EXPLORE_MAX_DEPTH = 10_000_000


class Explore(Workload):
    name = "explore"
    unit = "states"
    request = "explore() call"

    def setup(self) -> None:
        from repro import protocols
        from repro.analysis import model_check
        from repro.ioa import explorer

        self.protocols = protocols
        self.model_check = model_check
        self.explorer = explorer
        # No generated inputs: the seed only fixes the order of the cases.
        self.cases = list(EXPLORE_CASES)
        random.Random(sub_seed(self.name, self.seed)).shuffle(self.cases)
        self.compositions = [self.build(case)[0] for case in self.cases]
        self.engine_results: Dict[str, Tuple[int, bool]] = {}

    def build(self, case):
        _, factory, args, messages, capacity, depth, _, _ = case
        protocol = getattr(self.protocols, factory)(*args)
        system, invariant, _ = self.model_check.build_closed_system(
            protocol, messages=messages, capacity=capacity,
            reorder_depth=depth)
        return system, invariant

    def explore(self, case, engine: str = "auto"):
        """One request: a fresh closed system, explored exhaustively."""
        name, _, _, _, _, _, pinned, expected_ok = case
        system, invariant = self.build(case)
        started = time.perf_counter()
        result = self.explorer.explore(
            system, invariant=invariant, max_states=EXPLORE_MAX_STATES,
            max_depth=EXPLORE_MAX_DEPTH, engine=engine)
        elapsed = time.perf_counter() - started
        states = len(result.states)
        ok = result.violation is None
        self.check(states == pinned and not result.truncated,
                   f"explore {name} engine={engine}: {states} states "
                   f"(truncated={result.truncated}), pinned {pinned}")
        self.check(ok == expected_ok,
                   f"explore {name} engine={engine}: verdict ok={ok}, "
                   f"expected ok={expected_ok}")
        if not expected_ok and not ok:
            self.check(len(result.violation[1]) > 0,
                       f"explore {name}: empty counterexample trace")
        return elapsed, states, ok

    def round(self, index: int) -> RoundResult:
        out = RoundResult()
        for case in self.cases:
            out.attempted += 1
            try:
                elapsed, states, ok = self.explore(case)
            except Exception as exc:  # a case that raises is a failed request
                out.failed += 1
                self.check(False, f"explore {case[0]} raised {exc!r}")
                continue
            self.engine_results[case[0]] = (states, ok)
            out.wall_s += elapsed
            out.units += states
            out.latencies_s.append(elapsed)
        return out

    def accel_round(self) -> RoundResult:
        out = RoundResult()
        for case in self.cases:
            elapsed, states, ok = self.explore(case, engine="accel")
            engine = self.engine_results.get(case[0])
            self.check(engine is None or engine == (states, ok),
                       f"explore {case[0]}: accel gave {(states, ok)}, "
                       f"default engine {engine}")
            out.wall_s += elapsed
            out.units += states
            out.attempted += 1
        return out

    def finish(self) -> None:
        self.accel_round()


# ----------------------------------------------------------------------
# fuzz-coverage and fuzz-shrink
# ----------------------------------------------------------------------

#: Clean-start campaigns on channels the protocol is correct on, plus the
#: corrupted-start ABP/fifo campaign.  The clean-start campaigns must
#: report no violation.  ABP declares ``self_stabilizing: False``, and
#: some corrupted starts do not converge within the SSTAB2 bound, so
#: that campaign may convict SSTAB oracles and nothing else.  Shrinking
#: is off, so the shrinker never runs on this workload.
COVERAGE_CASES = (
    ("alternating_bit", "fifo", "clean"),
    ("stenning", "nonfifo", "clean"),
    ("sliding_window", "fifo", "clean"),
    ("selective_repeat", "fifo", "clean"),
    ("alternating_bit", "fifo", "arbitrary"),
)

#: Campaigns whose runs violate the oracles, so every violation is shrunk.
SHRINK_CASES = (
    ("naive", "nonfifo", "clean"),
    ("alternating_bit", "bounded_nonfifo", "clean"),
)

FUZZ_RUNS = 24


def campaign_fingerprint(campaign) -> str:
    """The outcome of a campaign that must not depend on ``workers``."""
    return json.dumps({
        "violations": [
            {**report.to_dict(), "repro": report.repro}
            for report in campaign.violations
        ],
        "corpus": [entry.to_dict() for entry in campaign.corpus],
        "states_interned": campaign.states_interned,
    }, sort_keys=True, default=str)


class _Fuzz(Workload):
    unit = "runs"
    request = "round of fuzz_campaign() calls, one per case"
    cases: Tuple[Tuple[str, str, str], ...] = ()
    shrink = True

    def setup(self) -> None:
        from repro.conformance import fuzzer, harness

        self.fuzzer = fuzzer
        self.pool_log: List[dict] = []  # ``campaign.pool`` of every call
        self.interned = 0  # states interned, summed over campaigns
        self.run_steps = 0  # steps of the campaigns' runs
        self.configs = [
            harness.FuzzConfig(runs=FUZZ_RUNS, init_mode=mode,
                               shrink=self.shrink)
            for _, _, mode in self.cases
        ]
        self.compositions = [
            harness.build_system(
                protocol, channel,
                harness.SubSeeds.derive(random.Random(self.seed)),
                config).composition
            for (protocol, channel, _), config in zip(self.cases,
                                                      self.configs)
        ]

    def round(self, index: int, workers: Optional[int] = None) -> RoundResult:
        workers = self.workers if workers is None else workers
        out = RoundResult()
        for case, ((protocol, channel, _), config) in enumerate(
                zip(self.cases, self.configs)):
            started = time.perf_counter()
            campaign = self.fuzzer.fuzz_campaign(
                protocol, channel, sub_seed(self.name, self.seed, index, case),
                config, workers=workers)
            elapsed = time.perf_counter() - started
            self.judge(index, case, campaign, workers)
            self.pool_log.append(campaign.pool)
            self.interned += campaign.states_interned
            self.run_steps += sum(run.steps for run in campaign.runs)
            out.wall_s += elapsed
            out.units += len(campaign.runs)
            out.attempted += len(campaign.runs)
            out.failed += campaign.failed_runs
            out.shrunk_violations += sum(
                1 for report in campaign.violations if report.shrink)
        # One request is the whole case matrix: the cases differ in size,
        # so a median over single campaigns would sit between two of them.
        out.latencies_s.append(out.wall_s)
        return out

    def judge(self, index: int, case: int, campaign, workers: int) -> None:
        label = "{} {}/{} round {}".format(self.name, *self.cases[case][:2],
                                           index)
        self.check(len(campaign.runs) == FUZZ_RUNS,
                   f"{label}: {len(campaign.runs)} runs of {FUZZ_RUNS}")


class FuzzCoverage(_Fuzz):
    name = "fuzz-coverage"
    cases = COVERAGE_CASES
    shrink = False

    def judge(self, index: int, case: int, campaign, workers: int) -> None:
        super().judge(index, case, campaign, workers)
        allowed = "SSTAB" if self.cases[case][2] == "arbitrary" else None
        wrong = [report.violation.oracle for report in campaign.violations
                 if allowed is None
                 or not report.violation.oracle.startswith(allowed)]
        self.check(not wrong,
                   f"fuzz-coverage {self.cases[case]} round {index}: "
                   f"violations {wrong}, expected none")


class FuzzShrink(_Fuzz):
    name = "fuzz-shrink"
    cases = SHRINK_CASES
    pool_workers = 2

    def setup(self) -> None:
        super().setup()
        self.fingerprints: Dict[Tuple[int, int], Tuple[int, str]] = {}

    def judge(self, index: int, case: int, campaign, workers: int) -> None:
        super().judge(index, case, campaign, workers)
        for report in campaign.violations:
            self.check(
                report.shrink is not None
                and report.shrunk_length <= report.script_length,
                f"fuzz-shrink {self.cases[case]} round {index}: violation "
                f"of {report.violation.oracle} not shrunk")
        # Each campaign must come out the same every time it is run,
        # serially or at workers=2, traced or not.
        fingerprint = campaign_fingerprint(campaign)
        first = self.fingerprints.setdefault((index, case),
                                             (workers, fingerprint))
        self.check(
            first[1] == fingerprint,
            f"fuzz-shrink {self.cases[case]} round {index}: the campaign at "
            f"workers={workers} differs from its first run at "
            f"workers={first[0]}")

    def finish(self) -> None:
        # Round 0 again, serially: judge() compares the fingerprints.
        self.round(0, workers=1)


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------

LOAD_CASES = (
    ("alternating_bit", "fifo", "default"),
    ("alternating_bit", "nonfifo", "drop-flood"),
    ("stenning", "fifo", "crash-storm"),
)

LOAD_SESSIONS = 100


class Load(Workload):
    name = "load"
    unit = "sessions"
    request = "session"

    def setup(self) -> None:
        from repro.conformance import harness
        from repro.sim import load

        self.load = load
        self.configs = [
            load.with_load_mix(load.LoadConfig(sessions=LOAD_SESSIONS), mix)
            for _, _, mix in LOAD_CASES
        ]
        self.compositions = [
            harness.build_system(
                protocol, channel,
                harness.SubSeeds.derive(random.Random(self.seed)),
                harness.FuzzConfig()).composition
            for protocol, channel, _ in LOAD_CASES
        ]

    def round(self, index: int) -> RoundResult:
        out = RoundResult()
        for case, ((protocol, channel, mix), config) in enumerate(
                zip(LOAD_CASES, self.configs)):
            started = time.perf_counter()
            result = self.load.run_load(
                protocol, channel, sub_seed(self.name, self.seed, index, case),
                config)
            out.wall_s += time.perf_counter() - started
            label = f"load {protocol}/{channel}/{mix} round {index}"
            indices = [session.index for session in result.sessions]
            self.check(indices == list(range(LOAD_SESSIONS)),
                       f"{label}: sessions {len(indices)} of "
                       f"{LOAD_SESSIONS}, not all accounted for")
            for session in result.sessions:
                self.check(session.delivered <= session.sent,
                           f"{label}: session {session.index} delivered "
                           f"{session.delivered} > sent {session.sent}")
                if session.error is None:
                    out.latencies_s.append(session.duration_s)
            out.units += len(result.sessions)
            out.attempted += len(result.sessions)
            out.failed += result.failed_sessions
        return out


WORKLOADS = {
    workload.name: workload
    for workload in (Explore, FuzzCoverage, FuzzShrink, Load)
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def run_window(workload: Workload, seconds: float,
               rounds: Optional[int] = None) -> Tuple[RoundResult, int]:
    """Whole rounds until ``seconds`` pass (or exactly ``rounds``)."""
    total = RoundResult()
    started = time.perf_counter()
    index = 0
    while (index < rounds) if rounds is not None else (
            index == 0 or time.perf_counter() - started < seconds):
        total.add(workload.round(index))
        index += 1
    return total, index


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond."""
    best = None
    for q in (90, 99, 99.9):
        if count * (100 - q) / 100 >= 10:
            best = q
    return best

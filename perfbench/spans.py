"""In-memory span recording for the traced run.

The benchmark times calls into the program's layers from its own files:
it replaces a function or method at the place the program looks it up
(a module attribute or a class attribute) with a wrapper that opens a
span around the call, and puts the original back afterwards.  No
program code is edited.

Two kinds of boundary exist:

* recorded boundaries keep every span (name, start, end, parent span)
  in memory, and are written out when the run ends;
* hot boundaries (per-state and per-step calls such as encoder
  lookups and component transitions, which fire millions of times)
  fold each call into per-name totals of their own instead of keeping
  the individual spans, so memory stays bounded.  They still nest:
  their time is subtracted from the parent's self time.

Self time of a span is its duration minus the time its child spans
cover.  Whatever time of a traced phase no top-level span covers is the
uncovered remainder.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Any, Callable, Dict, List, Optional


class Totals:
    """Per-name aggregate of every span with that name."""

    __slots__ = ("calls", "inclusive_s", "self_s", "leaf_calls")

    def __init__(self) -> None:
        self.calls = 0
        # Outermost spans only, so a name nested in itself is not
        # counted twice.
        self.inclusive_s = 0.0
        self.self_s = 0.0
        # Calls during which no other wrapped boundary fired.
        self.leaf_calls = 0


class Recorder:
    """The span stack, the recorded spans and the per-name totals."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        # Open frames: [name, start, child time, span index for
        # children, children, own span index or -1].
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}
        self.totals: Dict[str, Totals] = {}
        self.covered_s = 0.0
        self.wall_s = 0.0
        self._phase_started: Optional[float] = None

    # -- phases ---------------------------------------------------------

    def start(self) -> None:
        self._phase_started = time.perf_counter()

    def stop(self) -> None:
        if self._stack:
            raise RuntimeError(
                "traced phase ended inside span " + self._stack[-1][0]
            )
        self.wall_s += time.perf_counter() - self._phase_started
        self._phase_started = None

    @property
    def uncovered_s(self) -> float:
        return self.wall_s - self.covered_s

    # -- frames ---------------------------------------------------------

    def enter(self, name: str, record: bool) -> None:
        stack = self._stack
        parent = stack[-1][3] if stack else -1
        now = time.perf_counter()
        own = -1
        if record:
            own = len(self.spans)
            self.spans.append([name, now, None, parent])
        stack.append([name, now, 0.0, own if record else parent, 0, own])
        self._open[name] = self._open.get(name, 0) + 1

    def exit(self, count: bool = True) -> None:
        now = time.perf_counter()
        name, started, child_s, _, children, own = self._stack.pop()
        duration = now - started
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = Totals()
        if count:
            totals.calls += 1
            if not children:
                totals.leaf_calls += 1
        totals.self_s += duration - child_s
        depth = self._open[name] - 1
        self._open[name] = depth
        if not depth:
            totals.inclusive_s += duration
        if own >= 0:
            self.spans[own][2] = now
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[4] += 1
        else:
            self.covered_s += duration

    # -- queries --------------------------------------------------------

    def calls(self, name: str) -> int:
        totals = self.totals.get(name)
        return totals.calls if totals else 0

    def inclusive(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals.inclusive_s if totals else 0.0

    def self_time(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals.self_s if totals else 0.0

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the recorded spans and the per-name totals as JSON lines."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"kind": "meta", **meta}) + "\n")
            for name, start, end, parent in self.spans:
                record = {"kind": "span", "name": name, "start": start,
                          "end": end,
                          "parent": parent if parent >= 0 else None}
                handle.write(json.dumps(record) + "\n")
            for name, totals in sorted(self.totals.items()):
                record = {"kind": "totals", "name": name,
                          "calls": totals.calls,
                          "inclusive_s": totals.inclusive_s,
                          "self_s": totals.self_s,
                          "leaf_calls": totals.leaf_calls}
                handle.write(json.dumps(record) + "\n")
            handle.write(json.dumps({
                "kind": "phase", "wall_s": self.wall_s,
                "covered_s": self.covered_s,
                "uncovered_s": self.uncovered_s}) + "\n")


def _timed(
    fn: Callable,
    name: str,
    recorder: Recorder,
    record: bool,
    on_result: Optional[Callable[[Any], None]],
    on_error: Optional[Callable[[BaseException], None]],
) -> Callable:
    enter, exit_ = recorder.enter, recorder.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name, record)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            exit_()
            if on_error is not None:
                on_error(exc)
            raise
        exit_()
        if inspect.isgenerator(result):
            return _timed_generator(result, name, recorder)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _timed_generator(generator, name: str, recorder: Recorder):
    """Time each resumption of a lazy result under the same span name.

    Callers may stop early (a quiescence test stops at the first
    enabled action), so the generator is never drained on their behalf.
    """
    enter, exit_ = recorder.enter, recorder.exit
    while True:
        enter(name, False)
        try:
            item = next(generator)
        except StopIteration:
            exit_(count=False)
            return
        except BaseException:
            exit_(count=False)
            raise
        exit_(count=False)
        yield item


class Patches:
    """Installed wrappers, each undone by :meth:`restore`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[Callable[[], None]] = []

    def function(
        self,
        owner: Any,
        attr: str,
        name: str,
        record: bool = True,
        on_result: Optional[Callable[[Any], None]] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> None:
        """Wrap the function a module (or object) looks up as ``attr``."""
        original = getattr(owner, attr)
        setattr(owner, attr, _timed(
            original, name, self.recorder, record, on_result, on_error))
        self._undo.append(lambda: setattr(owner, attr, original))

    def method(
        self,
        cls: type,
        attr: str,
        name: str,
        record: bool = True,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Wrap a method (plain or classmethod) on ``cls``."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(_timed(
                raw.__func__, name, self.recorder, record, on_result, None))
        else:
            wrapped = _timed(raw, name, self.recorder, record, on_result, None)
        own = attr in cls.__dict__
        setattr(cls, attr, wrapped)
        if own:
            self._undo.append(lambda: setattr(cls, attr, raw))
        else:
            self._undo.append(lambda: delattr(cls, attr))

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Swap the object ``owner`` looks up as ``attr``."""
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

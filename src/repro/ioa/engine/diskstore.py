"""Disk-backed frontier and visited store for bounded BFS.

:func:`explore_disk` runs the same search as
:func:`~repro.ioa.engine.core.explore_engine` -- identical expansion
order, identical budget/violation contract -- but keeps the two
structures that grow with the state space on disk instead of in RAM:

* **Entry log.**  One append-only file of fixed-width records
  ``(slot ids..., parent index, action token)``.  It is simultaneously
  the insertion-order state store, the parent log for counterexample
  reconstruction, and the BFS frontier: a layer is a contiguous index
  range ``[start, stop)`` into the log (the same trick the compiled
  backend plays with its in-RAM entry arrays), so expanding a layer is
  a single sequential read and no frontier list is ever held in memory.

* **Sharded visited membership.**  Encoded states hash into shards;
  each shard keeps a small in-RAM set and, once the global RAM budget
  (``ram_cap`` keys) is spent, merges it into the shard's single sorted
  run file (a streaming merge -- constant memory).  A membership probe
  is a RAM-set hit or a binary search over the shard's run.

Peak resident state is therefore ``O(ram_cap + slices)`` -- the slice
intern tables still live in RAM (they are the *point* of the encoding:
tiny compared to the composed-state space) -- while visited states and
frontier spill to disk.  The result's ``states`` is a lazy
:class:`DiskStateSet` view over the entry log; nothing is decoded until
somebody iterates it.

The store is process-local scratch, not a database: files live in a
temporary directory (removed when the store is garbage collected) or
in a caller-supplied ``directory``, and record layout may change
between versions.
"""

from __future__ import annotations

import heapq
import os
import shutil
import struct
import tempfile
import weakref
from typing import Any, Iterator, List, Optional, Set, Tuple

from ...obs import current_tracer
from ..automaton import State
from ..composition import Composition
from .core import (
    Environment,
    ExplorationResult,
    InputEnablednessError,
    Invariant,
    StateSetView,
    _CompositionSearch,
)
from .encoding import StateEncoder

__all__ = [
    "DiskStateSet",
    "DiskStore",
    "explore_disk",
]

#: Default RAM budget: total encoded keys held across shard sets before
#: they are merged into the sorted disk runs.
DEFAULT_RAM_CAP = 1_000_000

#: Number of visited-membership shards (each with its own sorted run).
SHARDS = 16

#: Entry-log records read per chunk while streaming a BFS layer.
_LAYER_CHUNK = 4096


class DiskStore:
    """Append-only entry log plus sharded visited membership, on disk.

    ``n_slots`` fixes the record width (one ``u32`` per component slice
    id, a signed 64-bit parent index, a signed 32-bit action token).
    Callers must check :meth:`contains` before :meth:`append`; the
    store never deduplicates on its own.
    """

    def __init__(
        self,
        n_slots: int,
        directory: Optional[str] = None,
        ram_cap: int = DEFAULT_RAM_CAP,
    ):
        self.n_slots = n_slots
        self.ram_cap = max(1, ram_cap)
        owns_directory = directory is None
        if owns_directory:
            directory = tempfile.mkdtemp(prefix="repro-explore-")
        else:
            os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self._entry_struct = struct.Struct("<" + "I" * n_slots + "qi")
        self._key_struct = struct.Struct("<" + "I" * n_slots)
        self._entries_path = os.path.join(directory, "entries.bin")
        self._entries = open(self._entries_path, "wb")
        self._reader: Optional[Any] = None
        #: total entries appended (== distinct states visited)
        self.count = 0
        self.flushes = 0
        self._ram: List[Set[Tuple[int, ...]]] = [
            set() for _ in range(SHARDS)
        ]
        self._ram_total = 0
        self._run_paths: List[Optional[str]] = [None] * SHARDS
        self._run_counts = [0] * SHARDS
        self._run_handles: List[Optional[Any]] = [None] * SHARDS
        self._cleanup: Optional[weakref.finalize]
        if owns_directory:
            # Scratch files die with the store (or at interpreter exit),
            # even if the caller never closes it; open handles just get
            # unlinked under themselves, which is fine on POSIX.
            self._cleanup = weakref.finalize(
                self, shutil.rmtree, directory, ignore_errors=True
            )
        else:
            self._cleanup = None

    # -- membership -----------------------------------------------------

    def contains(self, encoded: Tuple[int, ...]) -> bool:
        """Whether the encoded state was ever appended."""
        shard = hash(encoded) % SHARDS
        if encoded in self._ram[shard]:
            return True
        if self._run_paths[shard] is None:
            return False
        return self._probe_run(shard, self._key_struct.pack(*encoded))

    def _probe_run(self, shard: int, packed: bytes) -> bool:
        """Binary search over the shard's sorted fixed-width run file."""
        path = self._run_paths[shard]
        if path is None:  # pragma: no cover - contains() guards this
            return False
        handle = self._run_handles[shard]
        if handle is None:
            handle = open(path, "rb")
            self._run_handles[shard] = handle
        size = self._key_struct.size
        lo, hi = 0, self._run_counts[shard]
        while lo < hi:
            mid = (lo + hi) // 2
            handle.seek(mid * size)
            record = handle.read(size)
            if record < packed:
                lo = mid + 1
            elif record > packed:
                hi = mid
            else:
                return True
        return False

    # -- appending ------------------------------------------------------

    def append(
        self, encoded: Tuple[int, ...], parent: int, token: int
    ) -> int:
        """Record a new state; its entry index.

        The RAM budget is enforced *before* the insert, so the freshly
        appended key always sits in its shard's RAM set -- which is
        what lets :meth:`pop_last` retract it without touching disk.
        """
        if self._ram_total >= self.ram_cap:
            self._flush()
        shard = hash(encoded) % SHARDS
        self._ram[shard].add(encoded)
        self._ram_total += 1
        self._entries.write(
            self._entry_struct.pack(*encoded, parent, token)
        )
        index = self.count
        self.count += 1
        return index

    def pop_last(self, encoded: Tuple[int, ...]) -> None:
        """Retract the most recent append (the budget-overflow drop).

        The stale record bytes stay in the entry log -- readers go by
        ``count``, never by file size -- mirroring the stale hash slot
        the compiled backend leaves behind on the same code path.
        """
        shard = hash(encoded) % SHARDS
        self._ram[shard].discard(encoded)
        self._ram_total -= 1
        self.count -= 1

    def _flush(self) -> None:
        """Merge every shard's RAM set into its sorted disk run.

        Streaming merge: the old run is read sequentially against the
        sorted fresh keys (``heapq.merge``), so flushing never holds
        more than one shard's fresh keys plus O(1) run records in RAM.
        Runs contain no duplicates by construction -- membership is
        checked before every append.
        """
        self.flushes += 1
        size = self._key_struct.size
        pack = self._key_struct.pack
        for shard in range(SHARDS):
            fresh = self._ram[shard]
            if not fresh:
                continue
            sorted_new = sorted(pack(*key) for key in fresh)
            final = os.path.join(
                self.directory, "visited-{}.run".format(shard)
            )
            scratch = final + ".tmp"
            with open(scratch, "wb") as out:
                old_path = self._run_paths[shard]
                if old_path is None:
                    out.writelines(sorted_new)
                else:
                    with open(old_path, "rb") as old:
                        old_records = iter(
                            lambda: old.read(size), b""
                        )
                        out.writelines(
                            heapq.merge(old_records, sorted_new)
                        )
            handle = self._run_handles[shard]
            if handle is not None:
                handle.close()
                self._run_handles[shard] = None
            os.replace(scratch, final)
            self._run_paths[shard] = final
            self._run_counts[shard] += len(fresh)
            fresh.clear()
        self._ram_total = 0

    # -- reading back ---------------------------------------------------

    def _ensure_reader(self) -> Any:
        self._entries.flush()
        if self._reader is None:
            self._reader = open(self._entries_path, "rb")
        return self._reader

    def entry(self, index: int) -> Tuple[Tuple[int, ...], int, int]:
        """``(encoded state, parent index, token)`` of one log entry."""
        reader = self._ensure_reader()
        size = self._entry_struct.size
        reader.seek(index * size)
        fields = self._entry_struct.unpack(reader.read(size))
        return fields[: self.n_slots], fields[-2], fields[-1]

    def iter_layer(
        self, start: int, stop: int
    ) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Stream ``(index, encoded state)`` over one entry range.

        Chunked sequential reads; safe to interleave with appends (the
        range ``[start, stop)`` is fully flushed before streaming
        begins, and appends only ever extend the file).
        """
        reader = self._ensure_reader()
        size = self._entry_struct.size
        iter_unpack = self._entry_struct.iter_unpack
        n = self.n_slots
        index = start
        reader.seek(start * size)
        while index < stop:
            want = min(_LAYER_CHUNK, stop - index)
            data = reader.read(want * size)
            for fields in iter_unpack(data):
                yield index, fields[:n]
                index += 1

    def iter_keys(self) -> Iterator[Tuple[int, ...]]:
        """Stream every live entry's encoded state, insertion order."""
        for _, encoded in self.iter_layer(0, self.count):
            yield encoded

    def close(self) -> None:
        """Release file handles and delete owned scratch files."""
        self._entries.close()
        if self._reader is not None:
            self._reader.close()
        for handle in self._run_handles:
            if handle is not None:
                handle.close()
        if self._cleanup is not None:
            self._cleanup()


class DiskStateSet(StateSetView):
    """Lazy set view over a :class:`DiskStore`'s entry log.

    Sized and probe-able without decoding anything (the disk analogue
    of the accel backend's ``LazyStateSet``); the real decoded set is
    materialized only on first iteration or whole-set comparison.  The
    view keeps the store -- and with it the scratch directory -- alive.
    """

    __slots__ = ("_store", "_encoder", "_count", "_materialized")

    def __init__(self, store: DiskStore, encoder: StateEncoder):
        self._store = store
        self._encoder = encoder
        self._count = store.count
        self._materialized: Optional[Set[State]] = None

    def _states(self) -> Set[State]:
        if self._materialized is None:
            decode = self._encoder.decode
            self._materialized = {
                decode(encoded) for encoded in self._store.iter_keys()
            }
        return self._materialized

    def __len__(self) -> int:
        # Entries are distinct by construction (membership is checked
        # before every append) and the encoding is a bijection.
        return self._count

    def __iter__(self) -> Iterator[State]:
        return iter(self._states())

    def __contains__(self, state: object) -> bool:
        if self._materialized is not None:
            return state in self._materialized
        encoder = self._encoder
        if not isinstance(state, tuple) or len(state) != encoder.n:
            return False
        encoded = []
        for slot, slice_state in enumerate(state):
            # Non-mutating probe: an unknown slice was never visited.
            try:
                sid = encoder.slice_tables[slot].get(slice_state)
            except TypeError:  # unhashable probe value
                return False
            if sid is None:
                return False
            encoded.append(sid)
        return self._store.contains(tuple(encoded))

    def __repr__(self) -> str:
        return "DiskStateSet({} states)".format(self._count)


def explore_disk(
    automaton: Any,
    environment: Environment = None,
    invariant: Invariant = None,
    max_states: int = 50_000,
    max_depth: int = 10_000,
    validate: bool = False,
    initial_state: Optional[State] = None,
    ram_cap: Optional[int] = None,
    directory: Optional[str] = None,
) -> ExplorationResult:
    """Bounded BFS with disk-backed visited set and frontier.

    Same contract as the engine (expansion order, budget semantics,
    layer-minimal counterexamples), but exploration is bounded by disk,
    not RAM: at most ``ram_cap`` encoded keys are resident at once
    (default from ``$REPRO_DISK_RAM_CAP``, else
    ``DEFAULT_RAM_CAP``), everything else spills to sorted runs in
    ``directory`` (a self-cleaning temporary directory by default).

    Compositions only -- the store's record format is the flat slice
    encoding.
    """
    if not isinstance(automaton, Composition):
        raise ValueError(
            "disk-backed exploration requires a Composition (the store "
            "records flat slice encodings); use the default engine"
        )
    if ram_cap is None:
        ram_cap = int(
            os.environ.get("REPRO_DISK_RAM_CAP", DEFAULT_RAM_CAP)
        )
    search = _CompositionSearch(automaton)
    encoder = search.encoder
    signature = automaton.signature if validate else None
    start = (
        initial_state
        if initial_state is not None
        else automaton.initial_state()
    )
    if invariant is not None and not invariant(start):
        return ExplorationResult({start}, False, (start, ()))
    store = DiskStore(encoder.n, directory=directory, ram_cap=ram_cap)
    tracer = current_tracer()
    if tracer.enabled:
        tracer.count("explore.states", 1)  # the start state
    store.append(encoder.encode(start), -1, -1)
    layer_start, layer_end = 0, 1
    depth = 0
    truncated = False
    decode = encoder.decode
    expand = search.expand

    def trace(index: int) -> Tuple:
        actions = []
        while True:
            _, parent, token = store.entry(index)
            if parent < 0:
                break
            actions.append(encoder.action_of_token[token])
            index = parent
        actions.reverse()
        return tuple(actions)

    def totals() -> None:
        if not tracer.enabled:
            return
        tracer.count(
            "explore.slices_interned", encoder.slices_interned()
        )
        tracer.count(
            "explore.actions_interned", len(encoder.action_of_token)
        )
        tracer.count("explore.disk_flushes", store.flushes)

    while layer_start < layer_end:
        if depth >= max_depth:
            truncated = True
            break
        with tracer.span(
            "explore.layer", depth=depth, width=layer_end - layer_start
        ):
            fired = 0
            extra: Iterable[Action]
            for index, encoded in store.iter_layer(
                layer_start, layer_end
            ):
                if environment is not None:
                    current = decode(encoded)
                    extra = list(environment(current))
                    if signature is not None:
                        for action in extra:
                            if signature.is_input(
                                action
                            ) and not automaton.transitions(
                                current, action
                            ):
                                raise InputEnablednessError(
                                    automaton, current, action
                                )
                else:
                    extra = ()
                for token, succ_enc in expand(encoded, extra):
                    fired += 1
                    if store.contains(succ_enc):
                        continue
                    succ_index = store.append(succ_enc, index, token)
                    if invariant is not None:
                        real = decode(succ_enc)
                        if not invariant(real):
                            totals()
                            return ExplorationResult(
                                DiskStateSet(store, encoder),
                                truncated,
                                (real, trace(succ_index)),
                            )
                    if store.count > max_states:
                        # Budget spent: retract and stop the whole
                        # search at once (the engine contract).
                        store.pop_last(succ_enc)
                        truncated = True
                        break
                if truncated:
                    break
            if tracer.enabled:
                tracer.count("explore.transitions", fired)
                tracer.count(
                    "explore.states", store.count - layer_end
                )
                tracer.gauge(
                    "explore.frontier", store.count - layer_end
                )
        if truncated:
            break
        layer_start, layer_end = layer_end, store.count
        depth += 1
    totals()
    return ExplorationResult(DiskStateSet(store, encoder), truncated)

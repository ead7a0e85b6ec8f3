"""Shared checks for the hash-once state contract.

The state value types cache their structural hash per instance
(:func:`repro.ioa.hashing.hash_once`).  The contract: construction
does not hash, the cached value equals the dataclass-generated hash,
and no copy -- pickle, ``copy.copy``, ``copy.deepcopy``,
``dataclasses.replace`` -- carries the cached value along, so a hash
never crosses into a process with a different hash seed.
"""

from __future__ import annotations

import base64
import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
import textwrap
from typing import Any, Tuple

from repro.conformance.arbitrary import corrupt_initial_state
from repro.conformance.harness import FuzzConfig, SubSeeds, build_system
from repro.ioa.hashing import _HASH_KEY

#: Every way a state value gets duplicated, by name.
COPIES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
}


def has_stored_hash(value: Any) -> bool:
    return _HASH_KEY in vars(value)


def structural_hash(value: Any) -> int:
    """The dataclass-generated hash, recomputed from the fields."""
    return hash(
        tuple(getattr(value, field.name) for field in dataclasses.fields(value))
    )


def assert_hash_contract(value: Any) -> None:
    """Cached hash = structural hash; an equal uncached copy hashes equal."""
    assert hash(value) == structural_hash(value)
    assert has_stored_hash(value)
    assert hash(value) == structural_hash(value)
    twin = copy.deepcopy(value)
    assert not has_stored_hash(twin)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)


def corrupted_start(protocol: str, channel: str, seed: int) -> Tuple:
    """The composed corrupted start of one arbitrary-init fuzz run."""
    config = FuzzConfig(messages=3, init_mode="arbitrary", capacity=3)
    subseeds = SubSeeds.derive(random.Random(seed))
    system = build_system(protocol, channel, subseeds, config)
    return corrupt_initial_state(system, subseeds, config)


def _other_hash_seed() -> str:
    return "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"


def build_in_other_process(setup: str, expression: str) -> Tuple[Any, int]:
    """Build ``expression`` in a child interpreter with another hash seed.

    The child hashes the value (so it caches its hash), pickles it and
    reports its hash.  Returns the unpickled value and the child's hash.
    """
    program = textwrap.dedent(setup) + textwrap.dedent(
        f"""
        import base64, pickle
        value = {expression}
        print(hash(value))
        print(base64.b64encode(pickle.dumps(value)).decode())
        """
    )
    env = dict(os.environ, PYTHONHASHSEED=_other_hash_seed())
    completed = subprocess.run(
        [sys.executable, "-c", program],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    remote_hash, payload = completed.stdout.split()
    return pickle.loads(base64.b64decode(payload)), int(remote_hash)

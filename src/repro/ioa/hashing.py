"""Hash-once state values.

State slices are frozen dataclasses, and the dataclass-generated
``__hash__`` walks every field -- delivery-set prefixes, ``sent``
tuples, protocol cores -- on *every* dict or set probe.  The fuzz
harness probes each visited state several times (run-level dedup,
batch-level dedup, the campaign's coverage table), so the same deep
hash used to be recomputed over and over.

:func:`hash_once` makes the hash lazy and per instance: the first
``hash()`` computes the dataclass-generated structural hash and stores
it in the instance ``__dict__``; later calls return the stored value.
The stored hash is never pickled or copied (``__getstate__`` keeps the
dataclass fields only, and ``dataclasses.replace`` rebuilds from the
fields), so a hash never crosses into a process with a different hash
seed.  Equality, ``repr`` and field order are untouched -- the stored
hash is not a field.

The contract this relies on: a decorated state is never mutated after
construction (frozen dataclasses forbid ``setattr``; nothing may go
round that with ``object.__setattr__``).  A delivery set drawn on
demand stores its fields late, but their values were fixed by its seed
at construction, so its structural hash never changes.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TypeVar

__all__ = ["hash_once"]

T = TypeVar("T", bound=type)

#: Instance ``__dict__`` key of the stored hash.  Not a dataclass
#: field, so ``__eq__``, ``repr``, ``fields()`` and ``replace`` never
#: see it.
_HASH_KEY = "_hash_once"


def hash_once(cls: T) -> T:
    """Class decorator: cache a frozen dataclass's hash per instance.

    Apply on top of ``@dataclass(frozen=True)``.  Construction does not
    hash; the first ``hash()`` does, once.
    """
    structural = cls.__dict__.get("__hash__")
    if structural is None:
        raise TypeError(
            f"{cls.__name__} has no generated __hash__; "
            "apply hash_once on top of @dataclass(frozen=True)"
        )
    names = tuple(field.name for field in fields(cls))

    def __hash__(self) -> int:
        attrs = self.__dict__
        try:
            return attrs[_HASH_KEY]
        except KeyError:
            value = attrs[_HASH_KEY] = structural(self)
            return value

    def __getstate__(self) -> dict:
        # The fields, read through their attributes: never the stored
        # hash, and never a delivery set's undrawn rest.
        return {name: getattr(self, name) for name in names}

    cls.__hash__ = __hash__  # type: ignore[assignment]
    cls.__getstate__ = __getstate__  # type: ignore[attr-defined]
    return cls

"""A set supporting O(1) insertion, removal, and uniform random sampling.

The simulator must repeatedly draw a uniformly random member from dynamic
populations — "a peer u.a.r. from among all the peers with non-null buffers",
"a segment u.a.r. from all the segments adjacent to peer *d*" — while members
join and leave at high rates.  A plain ``set`` cannot be sampled in O(1) and a
plain ``list`` cannot be removed from in O(1), so this module provides the
classic array-plus-index-map structure used by event-driven simulators.
"""

from __future__ import annotations

import random
from typing import Dict, Generic, Iterator, List, Optional, TypeVar, Union

import numpy as np

T = TypeVar("T")

#: Anything this module can sample with: stdlib ``Random`` (``randrange``)
#: or a numpy ``Generator`` (``integers``).
SamplingRng = Union[random.Random, np.random.Generator]


def randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` (and ``rng.choice``'s index), bit for bit: the
    ``getrandbits`` rejection loop CPython's ``Random._randbelow`` runs, in
    one frame instead of two or three.  Pinned by ``tests/test_util.py``."""
    bits = n.bit_length()
    index = rng.getrandbits(bits)
    while index >= n:
        index = rng.getrandbits(bits)
    return index


class RandomizedSet(Generic[T]):
    """Container with O(1) ``add``, ``discard``, ``__contains__`` and ``sample``.

    Members must be hashable.  Iteration order is arbitrary (it reflects the
    internal array layout, which is perturbed by removals).

    Example::

        population = RandomizedSet([1, 2, 3])
        population.add(4)
        population.discard(2)
        peer = population.sample(rng)   # uniform over {1, 3, 4}
    """

    __slots__ = ("_items", "_index")

    def __init__(self, items: Optional[List[T]] = None) -> None:
        self._items: List[T] = []
        self._index: Dict[T, int] = {}
        if items is not None:
            for item in items:
                self.add(item)

    def add(self, item: T) -> bool:
        """Insert *item*; return ``True`` if it was not already present."""
        if item in self._index:
            return False
        self._index[item] = len(self._items)
        self._items.append(item)
        return True

    def discard(self, item: T) -> bool:
        """Remove *item* if present; return ``True`` if it was removed.

        Removal swaps the victim with the last array slot so the array stays
        dense, preserving O(1) uniform sampling.
        """
        pos = self._index.pop(item, None)
        if pos is None:
            return False
        last = self._items.pop()
        if pos < len(self._items):
            # The victim was not in the final slot: move the (former) last
            # element into the hole so the array stays dense.
            self._items[pos] = last
            self._index[last] = pos
        return True

    def remove(self, item: T) -> None:
        """Remove *item*; raise :class:`KeyError` if absent."""
        if not self.discard(item):
            raise KeyError(item)

    def sample(self, rng: SamplingRng) -> T:
        """Return a uniformly random member using *rng* (``random.Random`` or
        ``numpy.random.Generator`` — anything with ``randrange`` or
        ``integers``).  Raises :class:`IndexError` when empty."""
        if not self._items:
            raise IndexError("sample from an empty RandomizedSet")
        if isinstance(rng, random.Random):
            return self._items[randbelow(rng, len(self._items))]
        return self._items[int(rng.integers(len(self._items)))]

    def __contains__(self, item: object) -> bool:
        return item in self._index

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __repr__(self) -> str:
        preview = ", ".join(repr(item) for item in self._items[:8])
        suffix = ", ..." if len(self._items) > 8 else ""
        return f"RandomizedSet({{{preview}{suffix}}})"

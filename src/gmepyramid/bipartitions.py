"""Canonical bipartitions of an N-party system: the only statement of the cut rules.

A cut S | rest is stored by its smaller side; when N is even, the half-size
class keeps the side that contains subsystem 1 (:func:`canonical_cut` maps
any spelling to it). :func:`iter_bipartitions` yields the 2**(N-1) - 1
canonical cuts smallest cardinality first, lexicographic within a group;
``canonical_bipartitions`` builds them once per process as one shared tuple.
Party counts go through ``states.check_subsystem_count`` before any O(N) work.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .states import as_index, check_subsystem_count


@dataclass(frozen=True)
class Bipartition:
    """One canonical cut of ``n`` parties, ``subset`` versus the rest; frozen,
    it holds its transpose order and label."""

    subset: tuple[int, ...]
    n: int
    axes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = check_subsystem_count(as_index(self.n, "party count"))
        subset = tuple(as_index(i, "cut index") for i in self.subset)
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "n", n)
        if not subset:
            raise ValueError("cut subset is empty")
        inside = set(subset)
        if list(subset) != sorted(inside):
            raise ValueError(f"cut indices must be strictly increasing, got {subset}")
        if subset[0] < 1 or subset[-1] > n:
            raise ValueError(f"cut indices {subset} out of range 1..{n}")
        if len(subset) > n // 2:
            raise ValueError(f"canonical cuts store the smaller side: |S|={len(subset)} > {n}//2")
        if 2 * len(subset) == n and subset[0] != 1:
            raise ValueError("half-size cuts are canonicalized to contain subsystem 1")
        rest = [i for i in range(n) if i + 1 not in inside]
        object.__setattr__(self, "axes", tuple([i - 1 for i in subset] + rest))
        object.__setattr__(self, "_label", ",".join(map(str, subset)))

    @property
    def size(self) -> int:
        return len(self.subset)

    def complement(self) -> tuple[int, ...]:
        """Subsystem indices on the other side of the cut, sorted."""
        return tuple(i + 1 for i in self.axes[self.size :])

    def label(self) -> str:
        """Comma-joined indices, e.g. ``\"1,3\"``; used in reports and keys."""
        return self._label


def split(cut: Bipartition | Iterable[int], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both sides of ``cut`` in an ``n``-party system, as sorted 1-based tuples.

    ``cut`` is a :class:`Bipartition` of ``n`` parties or any collection of
    distinct indices in 1..n that leaves at least one subsystem on each side;
    a raw collection need not be canonical, so a complement can be passed.
    """
    n = check_subsystem_count(as_index(n, "party count"))
    if isinstance(cut, Bipartition):
        if cut.n != n:
            raise ValueError(f"cut is for {cut.n} parties, state has {n}")
        subset = cut.subset
    else:
        subset = tuple(sorted(as_index(i, "cut index") for i in cut))
        if not subset:
            raise ValueError("cut subset is empty")
        if len(set(subset)) != len(subset):
            raise ValueError(f"cut indices must be distinct, got {subset}")
        if subset[0] < 1 or subset[-1] > n:
            raise ValueError(f"cut indices {subset} out of range 1..{n}")
        if len(subset) >= n:
            raise ValueError("cut must leave at least one subsystem on each side")
    inside = set(subset)
    return subset, tuple(i for i in range(1, n + 1) if i not in inside)


def canonical_cut(cut: Bipartition | Iterable[int], n: int) -> Bipartition:
    """Any spelling of ``cut`` (see :func:`split`) as its canonical cut: the side
    with fewer parties or, on a tie, the side holding subsystem 1, the lesser tuple."""
    if isinstance(cut, Bipartition) and cut.n == n:
        return cut
    return Bipartition(min(split(cut, n), key=lambda side: (len(side), side)), n)


def iter_bipartitions(n: int) -> Iterator[Bipartition]:
    """The canonical cuts of ``n`` parties, lazily; ``n`` is checked at the call."""
    n = check_subsystem_count(as_index(n, "party count"))
    return (
        Bipartition(comb, n)
        for k in range(1, n // 2 + 1)
        for comb in itertools.combinations(range(1, n + 1), k)
        if 2 * k < n or comb[0] == 1
    )


def canonical_bipartitions(n: int) -> tuple[Bipartition, ...]:
    """:func:`iter_bipartitions` as one tuple shared per party count, however
    the integer is spelled (``np.int64(5)`` gets the tuple of ``5``): C(n, k)
    cuts per size k < n/2, plus C(n, n/2)/2 at the half size. Up to 26 parties
    (``MAX_PARTIES``, still 2**25 cuts; a refusal by estimated cost is the
    cost-model item of ROADMAP.md). Refusals are not cached.
    """
    return _cut_table(as_index(n, "party count"))


@functools.cache
def _cut_table(n: int) -> tuple[Bipartition, ...]:
    return tuple(iter_bipartitions(n))


# The one table cache, inspected and cleared through the public name.
canonical_bipartitions.cache_info = _cut_table.cache_info
canonical_bipartitions.cache_clear = _cut_table.cache_clear

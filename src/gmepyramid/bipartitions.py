"""Canonical bipartitions of an N-party system: the only statement of the cut rules.

A cut S | rest is stored by its smaller side; when N is even, the half-size
class keeps the side that contains subsystem 1 (:class:`Bipartition` maps
any spelling to it). :func:`iter_bipartitions` yields the 2**(N-1) - 1
canonical cuts smallest cardinality first, lexicographic within a group.
One pass over it builds the shared ``canonical_bipartitions`` tuple and,
in the same cached table entry, the forest of ``concurrence.full_spectrum``'s
partial traces: a cut's children drop one site of its trailing run
N, N - 1, ..., and at even N a half-size cut's children also drop subsystem 1.
Party counts go through ``states.check_subsystem_count`` before any O(N) work,
indices through :func:`split`, the one check of a cut's indices.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .states import as_index, check_subsystem_count


@dataclass(frozen=True)
class Bipartition:
    """One canonical cut of ``n`` parties, ``subset`` versus the rest; frozen,
    it holds its transpose order and label, and stores any spelling that
    :func:`split` accepts (either side, in any order) by its canonical side."""

    subset: tuple[int, ...]
    n: int
    axes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        subset, rest = split(self.subset, self.n)
        if (len(rest), rest) < (len(subset), subset):
            subset, rest = rest, subset
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "n", len(subset) + len(rest))
        object.__setattr__(self, "axes", tuple([i - 1 for i in subset + rest]))
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
    distinct indices in 1..n that leaves at least one subsystem on each side,
    in any order. It is the one check of a cut's indices and party count;
    :class:`Bipartition` calls it and then picks the canonical side.
    """
    n = check_subsystem_count(as_index(n, "party count"))
    if isinstance(cut, Bipartition):
        if cut.n != n:
            raise ValueError(f"cut is for {cut.n} parties, state has {n}")
        return cut.subset, cut.complement()
    subset = tuple(sorted(as_index(i, "cut index") for i in cut))
    if not subset:
        raise ValueError("cut subset is empty")
    inside = set(subset)
    if len(inside) != len(subset):
        raise ValueError(f"cut indices must be distinct, got {subset}")
    if subset[0] < 1 or subset[-1] > n:
        raise ValueError(f"cut indices {subset} out of range 1..{n}")
    if len(subset) >= n:
        raise ValueError("cut must leave at least one subsystem on each side")
    return subset, tuple([i for i in range(1, n + 1) if i not in inside])


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
    return _cut_table(as_index(n, "party count"))[0]


@functools.cache
def _cut_table(n: int) -> tuple[tuple[Bipartition, ...], tuple[array, array, array]]:
    """The canonical cuts of ``n`` parties and their partial-trace forest
    ``(first, kids, traced)``, built in one enumeration; ``n`` is an int.

    Every cut below the top size ``n // 2`` hangs under one canonical cut P
    one party larger. P's children drop one site of its trailing run n,
    n - 1, ...; at even ``n`` a half-size P's children also drop subsystem 1.
    The children of cut ``i`` are ``kids[first[i]:first[i + 1]]`` in
    increasing order; ``traced[c]`` is the position of the dropped site in
    the subset of child ``c``'s parent. The cuts below the top size lead the
    canonical order, so ``len(traced)`` is the index of the first top-size
    cut, and the top-size cuts are the roots.
    """
    # Canonical order puts every cut before the cuts one party larger, so the
    # subsets indexed so far hold each child of the cut that arrives.
    top, half = n // 2, n % 2 == 0
    cuts, index = [], {}
    first, kids, traced = array("l", [0]), array("l"), array("l")
    for i, cut in enumerate(iter_bipartitions(n)):
        subset, size = cut.subset, cut.size
        if size > 1:
            # A larger dropped site leaves a lesser subset: children in index order.
            pos, site = size - 1, n
            while pos >= 0 and subset[pos] == site:
                c = index[subset[:pos] + subset[pos + 1 :]]
                kids.append(c)
                traced[c] = pos
                pos, site = pos - 1, site - 1
            if half and size == top:  # without subsystem 1: the greatest child
                c = index[subset[1:]]
                kids.append(c)
                traced[c] = 0
        first.append(len(kids))
        cuts.append(cut)
        if size < top:
            index[subset] = i
            traced.append(0)  # set when this cut's parent arrives
    return tuple(cuts), (first, kids, traced)


# The one table cache, inspected and cleared through the public name.
canonical_bipartitions.cache_info = _cut_table.cache_info
canonical_bipartitions.cache_clear = _cut_table.cache_clear

"""Canonical bipartitions of an N-party system.

A cut S | rest is stored by its smaller side. Every subset with
1 <= |S| <= floor(N/2) appears once; when N is even, the half-size class
is deduplicated against complements by keeping the representative that
contains subsystem 1. The canonical list therefore has 2**(N-1) - 1
entries, grouped smallest cardinality first and lexicographic within a
group.

The canonical list of each ``n`` is built once per process and shared: its
frozen cuts hold their transpose order and label; each caller gets a new list.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .states import MAX_AMPLITUDES


@dataclass(frozen=True)
class Bipartition:
    """One cut of an ``n``-party system: ``subset`` versus the rest."""

    subset: tuple[int, ...]
    n: int
    axes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        subset = tuple(int(i) for i in self.subset)
        object.__setattr__(self, "subset", subset)
        if self.n < 2:
            raise ValueError("a bipartition needs at least 2 parties")
        if not subset:
            raise ValueError("cut subset is empty")
        inside = set(subset)
        if list(subset) != sorted(inside):
            raise ValueError(f"cut indices must be strictly increasing, got {subset}")
        if subset[0] < 1 or subset[-1] > self.n:
            raise ValueError(f"cut indices {subset} out of range 1..{self.n}")
        if len(subset) > self.n // 2:
            raise ValueError(
                f"canonical cuts store the smaller side: |S|={len(subset)} > {self.n}//2"
            )
        if 2 * len(subset) == self.n and subset[0] != 1:
            raise ValueError("half-size cuts are canonicalized to contain subsystem 1")
        rest = [i for i in range(self.n) if i + 1 not in inside]
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
    if isinstance(cut, Bipartition):
        if cut.n != n:
            raise ValueError(f"cut is for {cut.n} parties, state has {n}")
        subset = cut.subset
    else:
        subset = tuple(sorted(int(i) for i in cut))
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


def canonical_bipartitions(n: int) -> list[Bipartition]:
    """All canonical cuts of an ``n``-party system, as a new list each call.

    Exactly C(n, k) cuts per size k < n/2 plus C(n, n/2)/2 at the half size
    when n is even; 2**(n-1) - 1 in total. Refuses more parties than a state
    within ``MAX_AMPLITUDES`` can have (26, which still means 2**25 cuts; a
    refusal by estimated cost is the cost-model item of ROADMAP.md).
    """
    return list(_canonical_cuts(n))


# A state within MAX_AMPLITUDES has at most 26 parties, so 32 entries keep
# every party count a process can evaluate. The list for n takes about
# 1.6 MiB at n = 13 and doubles with each party, so all entries together
# hold at most about twice the list of the largest n evaluated.
@functools.lru_cache(maxsize=32)
def _canonical_cuts(n: int) -> tuple[Bipartition, ...]:
    if n < 2:
        raise ValueError("need at least 2 parties")
    if 2**n > MAX_AMPLITUDES:  # every party has dimension >= 2
        raise ValueError(f"{n} parties need at least 2**{n} amplitudes, above {MAX_AMPLITUDES}")
    cuts = []
    for k in range(1, n // 2 + 1):
        for comb in itertools.combinations(range(1, n + 1), k):
            if 2 * k == n and comb[0] != 1:
                continue
            cuts.append(Bipartition(comb, n))
    return tuple(cuts)

"""Canonical bipartitions of an N-party system: the only statement of the cut rules.

A cut S | rest is stored by its smaller side; when N is even, the half-size
class keeps the side that contains subsystem 1 (:class:`Bipartition` maps
any spelling to it). ``_subsets`` yields the 2**(N-1) - 1 canonical subsets
smallest cardinality first, lexicographic within a group; :func:`iter_bipartitions`
wraps each in a :class:`Bipartition`. One pass over it builds the per-N table
entry that every spectrum runs on, with no cut object: the padded subsets,
their labels, the forest of ``concurrence.full_spectrum``'s partial traces
(a cut's children drop one site of its trailing run N, N - 1, ..., and at even
N a half-size cut's children also drop subsystem 1), the index of its first
root, and its subtree ids, each formed as its cut arrives, after its children.
At odd N up to 13 it also hangs every top-size cut but those without sites
1 and N under one hub, one party larger and holding 1 and N, found in
closed form.
Party counts go through ``states.check_subsystem_count`` before any O(N) work,
indices through :func:`split`, the one check of a cut's indices.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .states import as_index, check_subsystem_count


@dataclass(frozen=True)
class Bipartition:
    """One canonical cut of ``n`` parties, ``subset`` versus the rest; frozen,
    it holds its transpose order, and stores any spelling that
    :func:`split` accepts (either side, in any order) by its canonical side."""

    subset: tuple[int, ...]
    n: int
    axes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        subset, rest = split(self.subset, self.n)
        if (len(rest), rest) < (len(subset), subset):
            subset, rest = rest, subset
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "n", len(subset) + len(rest))
        object.__setattr__(self, "axes", tuple([i - 1 for i in subset + rest]))

    @property
    def size(self) -> int:
        return len(self.subset)

    def complement(self) -> tuple[int, ...]:
        """Subsystem indices on the other side of the cut, sorted."""
        return tuple(i + 1 for i in self.axes[self.size :])

    def label(self) -> str:
        """Comma-joined indices, e.g. ``\"1,3\"``; used in reports and keys."""
        return _label(self.subset)


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


def _label(subset: tuple[int, ...]) -> str:
    return ",".join(map(str, subset))


def _subsets(n: int) -> Iterator[tuple[int, ...]]:
    """The canonical subsets of ``n`` parties, a checked int, in canonical order."""
    sites = range(1, n + 1)
    for k in range(1, (n + 1) // 2):
        yield from itertools.combinations(sites, k)
    if n % 2 == 0:  # the half-size subsets that hold subsystem 1
        for rest in itertools.combinations(sites[1:], n // 2 - 1):
            yield (1,) + rest


def iter_bipartitions(n: int) -> Iterator[Bipartition]:
    """The canonical cuts of ``n`` parties, lazily; ``n`` is checked at the call."""
    n = check_subsystem_count(as_index(n, "party count"))
    return (Bipartition(subset, n) for subset in _subsets(n))


def canonical_bipartitions(n: int) -> tuple[Bipartition, ...]:
    """:func:`iter_bipartitions` as one tuple shared per party count, however
    the integer is spelled (``np.int64(5)`` gets the tuple of ``5``): C(n, k)
    cuts per size k < n/2, plus C(n, n/2)/2 at the half size. Up to 26 parties
    (``MAX_PARTIES``, still 2**25 cuts; a refusal by estimated cost is the
    cost-model item of ROADMAP.md). Built on first use, apart from the table
    entry that spectra run on; ``cache_info`` reports it. Refusals are not cached.
    """
    return _cuts(as_index(n, "party count"))


@functools.cache
def _cuts(n: int) -> tuple[Bipartition, ...]:
    return tuple(iter_bipartitions(n))


canonical_bipartitions.cache_info = _cuts.cache_info
# A hub's rho holds at most this many amplitudes (256 KiB of complex128);
# ``concurrence._plan`` also keeps it within twice the state's. Without it
# (64, 64, 2, 2, 2) would take hubs of 2^16 amplitudes, and the spectrum's
# peak memory would reach 1.8-2x the per-cut route's, where the lopsided-dims
# test allows 1.25x. A hub of n parties holds (n + 1) / 2 sites, so its rho
# holds at least 2^(n + 1) amplitudes: the table forms hubs up to n = 13 only.
_HUB_CAP = 2**14
_CutTable = namedtuple("_CutTable", "subsets labels first kids roots subtree keys hubs")


@functools.cache
def _cut_table(n: int) -> _CutTable:
    """The table entry of ``n`` parties (a checked int), shared by every dims
    tuple and built in one pass over ``_subsets(n)``: each subset padded with
    0s to n // 2 sites (``subsets``, uint8), its label, the forest ``(first,
    kids)``, ``roots``, each cut's ``subtree`` id, the ``keys`` of the ids
    and, at odd n up to 13, the ``hubs``. Every cut below the top size
    n // 2 hangs under one canonical cut P one party larger, whose children
    drop one site of its trailing run n, n - 1, ... and, for a half-size P
    at even n, subsystem 1. The children of cut i are the
    ``len(keys[subtree[i]])`` cuts from ``kids[first[i]]`` on, in
    increasing order. The cuts below the top size lead, so ``roots`` is the
    index of the first top-size cut. A cut's key holds, child by child, the
    dropped site's position in the cut's subset (the traced position) and
    the child's subtree id, so equal ids trace equal positions level by
    level; id 0, key ``()``, has no children. Each id is formed when its
    cut arrives.

    At odd n = 2k + 1, when a hub's rho of at least 2^(n + 1) amplitudes
    fits ``_HUB_CAP``, each top-size cut R without sites 1 and n names a hub,
    its rest H: k + 1 sites that hold 1 and n. Every other top-size cut S is
    H minus one site x for exactly one hub, found in closed form as S
    arrives: x is n when S lacks n, else 1 when S lacks 1, else the least
    site outside S. So a hub's children drop n or one site of its leading
    run 1, 2, ... ``hubs`` holds one row ``(R, id)`` per hub, R in
    increasing order, where the hub's key holds the traced positions in H.
    R has no children in the forest (id 0); its hub's children, in
    increasing order, start at ``kids[first[R]]`` and follow the forest's,
    hub by hub. A hub's id is formed once the pass is done, since a child
    may arrive after R. Otherwise, and at even n, ``hubs`` has no rows.
    """
    # Canonical order puts every cut before the cuts one party larger, so the
    # subsets indexed so far hold each child, and its id, of the cut that arrives.
    top, half = n // 2, n % 2 == 0
    hubbed = not half and 2 ** (n + 1) <= _HUB_CAP
    index, labels, padded, pads = {}, [], array("B"), [(0,) * (top - k) for k in range(top + 1)]
    first, kids, subtree, tree_ids = array("l"), array("l"), array("l"), {(): 0}
    hubs, under = [], {}
    for i, subset in enumerate(_subsets(n)):
        size, key = len(subset), []
        first.append(len(kids))
        if size > 1:
            # A larger dropped site leaves a lesser subset: children in index order.
            pos, site = size - 1, n
            while pos >= 0 and subset[pos] == site:
                c = index[subset[:pos] + subset[pos + 1 :]]
                kids.append(c)
                key.append((pos, subtree[c]))
                pos, site = pos - 1, site - 1
            if half and size == top:  # without subsystem 1: the greatest child
                c = index[subset[1:]]
                kids.append(c)
                key.append((0, subtree[c]))
        subtree.append(tree_ids.setdefault(tuple(key), len(tree_ids)))
        labels.append(_label(subset))
        padded.extend(subset + pads[size])
        if size < top:
            index[subset] = i
        elif hubbed:  # a top-size cut is a hub's root or a hub's child
            if subset[-1] != n:
                if subset[0] != 1:
                    hubs.append((i, subset))
                    continue
                pos, hub = top, subset + (n,)
            else:  # x at position x - 1: the least site outside the subset, 1 or more
                pos = 0
                while subset[pos] == pos + 1:
                    pos += 1
                hub = subset[:pos] + (pos + 1,) + subset[pos:]
            under.setdefault(hub, []).append((i, (pos, subtree[i])))
    rows, sites = [], frozenset(range(1, n + 1))
    for r, rest in hubs:
        children = under[tuple(sorted(sites.difference(rest)))]
        first[r] = len(kids)
        kids.extend([c for c, _ in children])
        rows.append((r, tree_ids.setdefault(tuple([k for _, k in children]), len(tree_ids))))
    subsets = np.frombuffer(padded, dtype=np.uint8).reshape(-1, top)
    hubs = np.array(rows, dtype=np.intp).reshape(-1, 2)
    return _CutTable(subsets, tuple(labels), first, kids, len(index), subtree, list(tree_ids), hubs)

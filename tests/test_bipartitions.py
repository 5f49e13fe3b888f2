import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gmepyramid import Bipartition, bipartitions, canonical_bipartitions, haar_random_state
from gmepyramid.bipartitions import _cut_table, _cuts, split
from gmepyramid.states import MAX_AMPLITUDES, MAX_PARTIES
from minors import gram_concurrence


def test_n4_exact_list():
    cuts = [c.subset for c in canonical_bipartitions(4)]
    assert cuts == [(1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)]


def test_n5_counts():
    cuts = canonical_bipartitions(5)
    assert len(cuts) == 15
    assert sum(1 for c in cuts if c.size == 1) == 5
    assert sum(1 for c in cuts if c.size == 2) == 10


def test_n6_half_size_dedup():
    cuts = canonical_bipartitions(6)
    assert len(cuts) == 31
    triples = [c for c in cuts if c.size == 3]
    assert len(triples) == 10  # C(6,3)/2
    assert all(c.subset[0] == 1 for c in triples)


@pytest.mark.parametrize("n", range(2, 13))
def test_total_count_identity(n):
    cuts = canonical_bipartitions(n)
    assert len(cuts) == 2 ** (n - 1) - 1
    for k in range(1, n // 2 + 1):
        expected = math.comb(n, k) // 2 if 2 * k == n else math.comb(n, k)
        assert sum(1 for c in cuts if c.size == k) == expected


@pytest.mark.parametrize("n", range(4, 13))
def test_non_singleton_exponent_identity(n):
    cuts = canonical_bipartitions(n)
    assert sum(1 for c in cuts if c.size >= 2) == 2 ** (n - 1) - n - 1


@pytest.mark.parametrize("n", range(2, 13))
def test_no_cut_duplicates_a_complement(n):
    subsets = {frozenset(c.subset) for c in canonical_bipartitions(n)}
    assert len(subsets) == 2 ** (n - 1) - 1
    for c in canonical_bipartitions(n):
        assert frozenset(c.complement()) not in subsets


def test_groups_ordered_smallest_first_lexicographic():
    sizes = [c.size for c in canonical_bipartitions(8)]
    assert sizes == sorted(sizes)
    pairs = [c.subset for c in canonical_bipartitions(8) if c.size == 2]
    assert pairs == sorted(pairs)


@pytest.mark.parametrize(
    "n,subset,expected",
    [(4, (1, 3), (2, 4)), (5, (2,), (1, 3, 4, 5)), (6, (1, 2, 3), (4, 5, 6))],
)
def test_complement(n, subset, expected):
    assert Bipartition(subset, n).complement() == expected


def test_every_call_returns_the_shared_tuple():
    cuts = canonical_bipartitions(5)
    assert isinstance(cuts, tuple)
    assert canonical_bipartitions(5) is cuts


@pytest.mark.parametrize("spelling", [np.int64, np.int32])
def test_every_integer_spelling_shares_the_tuple(spelling):
    assert canonical_bipartitions(spelling(5)) is canonical_bipartitions(5)
    size = _cuts.cache_info().currsize
    with pytest.raises(ValueError, match="^party count must be an integer, got 5.0$"):
        canonical_bipartitions(5.0)
    assert _cuts.cache_info().currsize == size


def test_label():
    assert Bipartition((1, 3), 5).label() == "1,3"


class TestValidation:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            canonical_bipartitions(1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Bipartition((0,), 4)
        with pytest.raises(ValueError, match="out of range"):
            Bipartition((5,), 4)

    def test_sorts_an_unsorted_cut_and_rejects_a_duplicate(self):
        assert Bipartition((3, 1), 4) == Bipartition((1, 3), 4)
        assert Bipartition((3, 1), 4).subset == (1, 3)
        assert Bipartition((np.int64(3), np.int64(1)), 4).subset == (1, 3)
        with pytest.raises(ValueError, match="distinct"):
            Bipartition((1, 1), 4)

    def test_stores_the_smaller_side_and_rejects_a_full_side(self):
        assert Bipartition((1, 2, 3), 4).subset == (4,)
        with pytest.raises(ValueError, match="^cut must leave at least one subsystem on each side$"):
            Bipartition((1, 2, 3, 4), 4)

    def test_stores_the_half_side_holding_subsystem_1(self):
        assert Bipartition((2, 3), 4).subset == (1, 4)
        assert Bipartition((2, 3), 4).label() == "1,4"

    def test_rejects_an_empty_subset(self):
        with pytest.raises(ValueError, match="^cut subset is empty$"):
            Bipartition((), 4)

    def test_rejects_a_single_party(self):
        with pytest.raises(ValueError, match="^a multipartite state needs at least 2 subsystems$"):
            Bipartition((1,), 1)


def _spellings(cut):
    """Six spellings of a canonical cut: its complement, the reversed subset, a list,
    a generator, numpy ints and the cut itself."""
    return [
        cut.complement(),
        tuple(reversed(cut.subset)),
        list(cut.subset),
        (i for i in cut.subset),
        tuple(np.int64(i) for i in cut.subset),
        cut,
    ]


class TestOneConstructor:
    @pytest.mark.parametrize(
        "n, spelling, subset",
        [
            (5, (2, 3, 4, 5), (1,)),
            (5, [5, 2], (2, 5)),
            (5, (1, 3, 4), (2, 5)),
            (4, (2, 3), (1, 4)),
            (4, (3, 1), (1, 3)),
            (6, (4, 5, 6), (1, 2, 3)),
        ],
    )
    def test_picks_the_smaller_side_or_the_side_with_subsystem_1(self, n, spelling, subset):
        cut = Bipartition(spelling, n)
        assert cut.subset == subset
        assert cut == Bipartition(subset, n)

    def test_a_cut_of_another_party_count_is_refused(self):
        cut = canonical_bipartitions(6)[-1]
        assert Bipartition(cut, 6) == cut
        with pytest.raises(ValueError, match="^cut is for 6 parties, state has 5$"):
            Bipartition(cut, 5)
        with pytest.raises(ValueError, match="^party count must be an integer, got 6.0$"):
            Bipartition(cut, 6.0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_spelling_constructs_the_table_cut(self, n):
        for cut in canonical_bipartitions(n):
            for spelling in _spellings(cut):
                built = Bipartition(spelling, n)
                assert built == cut
                assert built.axes == cut.axes
                assert built.label() == cut.label()

    def test_every_spelling_gives_a_bit_identical_concurrence(self):
        state = haar_random_state((3, 2, 2, 2, 2), seed=7)
        for cut in canonical_bipartitions(5):
            values = {gram_concurrence(state, spelling) for spelling in _spellings(cut)}
            assert values == {gram_concurrence(state, cut)}

    def test_a_table_cut_is_used_without_building_a_cut(self, monkeypatch):
        state = haar_random_state((2, 2, 2, 2), seed=3)
        cuts = canonical_bipartitions(4)
        expected = [gram_concurrence(state, cut) for cut in cuts]
        # Every Bipartition construction goes through split.
        monkeypatch.setattr(bipartitions, "split", _refuse_construction)
        assert [gram_concurrence(state, cut) for cut in cuts] == expected
        with pytest.raises(AssertionError, match="built a cut"):
            gram_concurrence(state, (1,))


def _refuse_construction(*args):
    raise AssertionError("built a cut")


class TestCanonicalOrder:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_the_tuple_holds_the_canonical_cuts_in_order(self, n):
        # Smallest side first, lexicographic within a size; at even n the
        # half-size cuts keep the side that holds subsystem 1.
        sites = range(1, n + 1)
        expected = [
            subset
            for k in range(1, n // 2 + 1)
            for subset in itertools.combinations(sites, k)
            if 2 * k < n or subset[0] == 1
        ]
        assert [cut.subset for cut in canonical_bipartitions(n)] == expected

    @pytest.mark.parametrize("n", [1, 27])
    def test_checks_the_count_before_building_a_cut(self, monkeypatch, n):
        monkeypatch.setattr(bipartitions, "Bipartition", _refuse_enumeration)
        with pytest.raises(ValueError, match="subsystem"):
            canonical_bipartitions(n)


def _refuse_enumeration(*args):
    raise AssertionError("started enumerating cuts")


class TestPartyLimit:
    # Bipartition is patched to raise, so a missing limit fails at the first
    # cut instead of enumerating until memory runs out.
    # numpy integers included: 2**n wraps to 0 for np.int64(64).
    @pytest.mark.parametrize(
        "n",
        [27, 40, pytest.param(np.int64(64), id="int64-64"), pytest.param(np.int32(40), id="int32-40")],
    )
    def test_refuses_more_parties_than_a_state_can_have(self, monkeypatch, n):
        monkeypatch.setattr(bipartitions, "Bipartition", _refuse_enumeration)
        message = f"^subsystem count {n} exceeds the supported maximum {MAX_PARTIES}$"
        with pytest.raises(ValueError, match=message):
            canonical_bipartitions(n)

    # Counts a missing bound would still survive (tens of MiB for 10**6 parties).
    @pytest.mark.parametrize("n", [10**6, pytest.param(np.int64(10**6), id="int64-10**6")], ids=str)
    @pytest.mark.parametrize("build", [Bipartition, split], ids=["Bipartition", "split"])
    def test_refuses_a_huge_count_in_constant_memory(self, build, n):
        message = f"^subsystem count {n} exceeds the supported maximum {MAX_PARTIES}$"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                build((1,), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 2**20

    def test_admits_as_many_parties_as_a_state_can_have(self, monkeypatch):
        assert MAX_AMPLITUDES == 2**26
        monkeypatch.setattr(bipartitions, "Bipartition", _refuse_enumeration)
        with pytest.raises(AssertionError, match="started enumerating"):
            canonical_bipartitions(26)


class TestCutForest:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_every_smaller_cut_hangs_under_one_cut_one_party_larger(self, n):
        cuts = canonical_bipartitions(n)
        table = _cut_table(n)
        first, kids, keys, top = table.first, table.kids, table.keys, table.roots
        assert len(first) == len(cuts)
        assert {cut.size for cut in cuts[top:]} == {n // 2}
        assert all(cut.size < n // 2 for cut in cuts[:top])
        # Each child's traced position is read from its parent's key. A hub
        # root's children hang on its rest (the next test), so it is skipped.
        hubs = set(table.hubs.tolist())
        own = [i for i in range(len(cuts)) if i not in hubs]
        parent_of = {}
        for i in own:
            children = kids[first[i] : first[i] + len(keys[table.subtree[i]])]
            assert all(a < b for a, b in zip(children, children[1:]))
            parent_of.update((c, (i, rank)) for rank, c in enumerate(children))
        assert sum(len(keys[table.subtree[i]]) for i in own) == top
        assert sorted(parent_of) == list(range(top))
        for c, (p, rank) in parent_of.items():
            child, parent = cuts[c].subset, cuts[p].subset
            x = parent[keys[table.subtree[p]][rank][0]]
            assert child == tuple(s for s in parent if s != x)
            half = n % 2 == 0 and len(parent) == n // 2
            largest_outside = max(s for s in range(1, n + 1) if s not in child)
            assert x == (1 if half and 1 not in child else largest_outside)

    # At odd n a hub root R is a forest node whose children hang on its rest
    # H: its subtree id is the hub's, and its children follow the forest's in
    # kids, hub by hub.
    # From n = 15 on a hub's rho would exceed the cap: the table forms none.
    @pytest.mark.parametrize("n", range(2, 16))
    def test_every_other_top_size_cut_hangs_under_one_hub_at_odd_n(self, n):
        cuts = canonical_bipartitions(n)
        table = _cut_table(n)
        top, keys = table.roots, table.keys
        if n % 2 == 0 or n > 13:
            assert table.hubs.shape == (0,)
            assert len(table.kids) == top
            return
        rests = table.hubs.tolist()
        subsets = [cut.subset for cut in cuts]
        assert rests == [i for i in range(top, len(cuts)) if 1 not in subsets[i] and n not in subsets[i]]
        assert len(rests) == math.comb(n - 2, n // 2)
        hub_of = {}
        for r in rests:
            tree = table.subtree[r]
            assert tree != 0
            hub = cuts[r].complement()
            children = table.kids[table.first[r] : table.first[r] + len(keys[tree])]
            assert all(a < b for a, b in zip(children, children[1:]))
            for c, (pos, child) in zip(children, keys[tree]):
                x, subset = hub[pos], cuts[c].subset
                assert subset == tuple(s for s in hub if s != x)
                assert table.subtree[c] == child
                outside = [s for s in range(1, n + 1) if s not in subset]
                assert x == (n if n in outside else 1 if 1 in outside else outside[0])
                hub_of[c] = r
        assert sorted(hub_of) == sorted(set(range(top, len(cuts))) - set(rests))
        assert len(table.kids) == top + len(hub_of)

import math

import pytest

from gmepyramid import Bipartition, bipartitions, canonical_bipartitions
from gmepyramid.states import MAX_AMPLITUDES


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


def test_each_call_returns_a_new_list():
    expected = [c.subset for c in canonical_bipartitions(5)]
    mutated = canonical_bipartitions(5)
    mutated.reverse()
    mutated.pop()
    again = canonical_bipartitions(5)
    assert again is not mutated
    assert [c.subset for c in again] == expected


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

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Bipartition((3, 1), 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            Bipartition((1, 1), 4)

    def test_rejects_large_side(self):
        with pytest.raises(ValueError, match="smaller side"):
            Bipartition((1, 2, 3), 4)

    def test_rejects_noncanonical_half_cut(self):
        with pytest.raises(ValueError, match="subsystem 1"):
            Bipartition((2, 3), 4)


def _refuse_enumeration(*args):
    raise AssertionError("started enumerating cuts")


class TestPartyLimit:
    # Bipartition is patched to raise, so a missing limit fails at the first
    # cut instead of enumerating until memory runs out.
    @pytest.mark.parametrize("n", [27, 40])
    def test_refuses_more_parties_than_a_state_can_have(self, monkeypatch, n):
        monkeypatch.setattr(bipartitions, "Bipartition", _refuse_enumeration)
        message = f"^{n} parties need at least 2\\*\\*{n} amplitudes, above {MAX_AMPLITUDES}$"
        with pytest.raises(ValueError, match=message):
            canonical_bipartitions(n)

    def test_admits_as_many_parties_as_a_state_can_have(self, monkeypatch):
        assert MAX_AMPLITUDES == 2**26
        monkeypatch.setattr(bipartitions, "Bipartition", _refuse_enumeration)
        with pytest.raises(AssertionError, match="started enumerating"):
            canonical_bipartitions(26)

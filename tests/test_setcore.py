"""Subset, permutation and integer-sequence primitives."""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kneserlab import setcore
from kneserlab.errors import ParameterError
from kneserlab.setcore import (
    MAX_SUBSETS,
    Block,
    Perm,
    binomial,
    catalan,
    catalan_fourth_convolution,
    k_blocks,
    k_masks,
)


def subsets_colex(m, k):
    """Oracle: all k-subsets sorted by bitmask value."""
    blocks = [Block.from_elements(c, m) for c in combinations(range(1, m + 1), k)]
    return sorted(blocks, key=lambda b: b.bits)


def catalan_by_recurrence(n):
    """Oracle: c_{m+1} = sum c_i c_{m-i}."""
    cs = [1]
    for m in range(1, n + 1):
        cs.append(sum(cs[i] * cs[m - 1 - i] for i in range(m)))
    return cs[n]


class TestBlock:
    def test_elements_roundtrip(self):
        b = Block.from_elements([5, 1, 3], 6)
        assert b.elements() == (1, 3, 5)
        assert b.card == 3
        assert 3 in b and 2 not in b

    def test_ground_bounds(self):
        with pytest.raises(ParameterError):
            Block.from_elements([1], 64)
        with pytest.raises(ParameterError):
            Block.from_elements([7], 6)
        with pytest.raises(ParameterError):
            Block(1 << 6, 6)
        Block((1 << 63) - 1, 63)  # the cap itself is fine

    def test_set_operators(self):
        a = Block.from_elements([1, 2], 5)
        b = Block.from_elements([2, 3], 5)
        assert (a | b).elements() == (1, 2, 3)
        assert (a & b).elements() == (2,)
        assert (a - b).elements() == (1,)
        assert (a ^ b).elements() == (1, 3)
        assert a <= a | b
        assert not a.isdisjoint(b)

    def test_mixed_grounds_rejected(self):
        with pytest.raises(ParameterError):
            Block.from_elements([1], 3) | Block.from_elements([1], 5)

    def test_slotted_frozen_value(self):
        b = Block.from_elements([2, 6], 7)
        assert not hasattr(b, "__dict__")
        with pytest.raises(AttributeError):
            b.bits = 1
        assert b == Block(34, 7) and hash(b) == hash(Block(34, 7))
        assert repr(b) == "Block({2,6}, m=7)"
        assert Block(0, 7).elements() == () and Block((1 << 63) - 1, 63).elements()[-1] == 63

    def test_complement_examples(self):
        assert Block.from_elements([1, 2], 5).complement().elements() == (3, 4, 5)
        assert Block.empty(3).complement().elements() == (1, 2, 3)
        assert Block.from_elements([1, 3, 5], 5).complement().elements() == (2, 4)

    @given(st.integers(1, 12), st.data())
    def test_complement_involution(self, m, data):
        bits = data.draw(st.integers(0, (1 << m) - 1))
        b = Block(bits, m)
        assert b.complement().complement() == b
        assert b.complement().card == m - b.card


class TestKBlocks:
    def test_examples(self):
        assert [b.elements() for b in k_blocks(3, 1)] == [(1,), (2,), (3,)]
        assert len(k_blocks(5, 2)) == 10
        first = k_blocks(7, 3)
        assert len(first) == 35
        assert first[0].elements() == (1, 2, 3)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_enumeration_oracle(self, m):
        for k in range(m + 1):
            assert k_blocks(m, k) == subsets_colex(m, k)

    @pytest.mark.parametrize("m,k", [(6, 3), (9, 4), (11, 5)])
    def test_count_distinct_cardinality(self, m, k):
        blocks = k_blocks(m, k)
        assert len(blocks) == binomial(m, k)
        assert len(set(blocks)) == len(blocks)
        assert all(b.card == k for b in blocks)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            k_blocks(5, 6)
        with pytest.raises(ParameterError):
            k_blocks(5, -1)


class TestSubsetLimit:
    def test_limit_admits_odd12_and_refuses_odd30(self):
        # odd(12) and middle(12) list C(23, 11) masks per level; odd(30)
        # would list C(59, 29), about 5.9e16
        assert binomial(23, 11) <= MAX_SUBSETS < binomial(59, 29)

    def test_refused_before_any_mask_is_listed(self, monkeypatch):
        # a lowered limit shows the refusal at a size that could be listed
        monkeypatch.setattr(setcore, "MAX_SUBSETS", binomial(9, 4) - 1)
        assert len(k_masks(9, 3)) == 84
        with pytest.raises(ParameterError,
                           match=r"^the 126 4-subsets of \[9\] exceed the limit of 125$"):
            k_masks(9, 4)
        with pytest.raises(ParameterError, match="exceed the limit"):
            k_blocks(9, 5)


class TestPerm:
    def test_apply_examples(self):
        def image(p, elements):
            b = Block.from_elements(elements, p.m)
            return Block(p.apply_mask(b.bits), p.m).elements()

        assert image(Perm((3, 2, 1, 4, 5)), [1, 2]) == (2, 3)  # (1 3)
        assert image(Perm((1, 2, 3, 4, 5)), [2, 4]) == (2, 4)
        assert image(Perm((2, 3, 4, 5, 1)), [1, 5]) == (1, 2)  # (1 2 3 4 5)
        assert Perm.from_transpositions(5, [(1, 3)]) == Perm((3, 2, 1, 4, 5))

    def test_not_a_permutation(self):
        with pytest.raises(ParameterError):
            Perm((1, 1, 3))

    def test_cardinality_preserved(self):
        p = Perm((1, 5, 3, 4, 6, 2, 7))  # the cycle (2 5 6)
        b = Block.from_elements([2, 3, 6], 7)
        assert p.apply_mask(b.bits).bit_count() == b.card


class TestCatalan:
    def test_small_values(self):
        assert catalan(0) == 1
        assert catalan(3) == 5

    def test_against_recurrence_oracle(self):
        for n in range(20):
            assert catalan(n) == catalan_by_recurrence(n)
        assert catalan(10) == 16796  # frozen from the recurrence oracle

    def test_binomial_identity_exact(self):
        for n in range(31):
            assert catalan(n) * (n + 1) == binomial(2 * n, n)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            catalan(-1)


class TestFourthConvolution:
    def test_pinned_values(self):
        assert catalan_fourth_convolution(3) == 0
        assert catalan_fourth_convolution(4) == 1
        assert catalan_fourth_convolution(6) == 14  # (4/8) * C(8,6)

    def test_below_domain(self):
        with pytest.raises(ParameterError):
            catalan_fourth_convolution(2)

    @pytest.mark.parametrize("n", range(4, 16))
    def test_matches_excision_count_oracle(self, n):
        # independent oracle: the vertex/edge accounting of a cubic
        # excision gives k = (n-3) / ((2n-1)(2n-3)) * C(2n-1, n-1)
        from fractions import Fraction

        k = Fraction(n - 3, (2 * n - 1) * (2 * n - 3)) * binomial(2 * n - 1, n - 1)
        assert k.denominator == 1
        assert catalan_fourth_convolution(n) == int(k)

    @pytest.mark.parametrize("n", range(4, 40))
    def test_integral_everywhere_tested(self, n):
        catalan_fourth_convolution(n)  # raises on a non-integral value

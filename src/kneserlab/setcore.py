"""Exact subset, permutation and integer-sequence primitives.

Ground sets are [m] = {1, ..., m} with m at most 63, so a subset fits in
one machine word as a bitmask (bit i-1 represents element i).  All counting
is done with Python's native arbitrary-precision integers; no floating
point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .errors import ParameterError

MAX_GROUND = 63
# The most k-subsets k_masks lists: odd(12) and middle(12) take
# C(23, 11) = 1,352,078 per level, odd(30) would take C(59, 29) ~ 5.9e16.
MAX_SUBSETS = 1 << 22


def check_ground(m: int) -> int:
    """Validate a ground-set size and return it."""
    if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= MAX_GROUND:
        raise ParameterError(f"ground size must be in 1..{MAX_GROUND}, got {m!r}")
    return m


@dataclass(frozen=True, slots=True)
class Block:
    """A subset of the ground set [m], encoded as a bitmask.

    Blocks are immutable and hashable; set operators (| & - ^ <=) require
    both operands to share the same ground size.
    """

    bits: int
    m: int

    def __post_init__(self):
        check_ground(self.m)
        if self.bits < 0 or self.bits >> self.m:
            raise ParameterError(
                f"bitmask {self.bits:#x} does not fit ground [{self.m}]"
            )

    @classmethod
    def from_elements(cls, elements: Iterable[int], m: int) -> "Block":
        check_ground(m)
        bits = 0
        for e in elements:
            if isinstance(e, bool):
                raise ParameterError(f"element {e!r} is not an int")
            if not 1 <= e <= m:
                raise ParameterError(f"element {e} outside ground [{m}]")
            bits |= 1 << (e - 1)
        return cls(bits, m)

    @classmethod
    def empty(cls, m: int) -> "Block":
        return cls(0, m)

    @property
    def card(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> tuple[int, ...]:
        out = []
        v = self.bits
        while v:
            low = v & -v
            out.append(low.bit_length())
            v ^= low
        return tuple(out)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements())

    def __contains__(self, e: int) -> bool:
        return 1 <= e <= self.m and bool(self.bits >> (e - 1) & 1)

    def __len__(self) -> int:
        return self.card

    def _check_same_ground(self, other: "Block") -> None:
        if self.m != other.m:
            raise ParameterError("blocks live over different ground sets")

    def __or__(self, other: "Block") -> "Block":
        self._check_same_ground(other)
        return Block(self.bits | other.bits, self.m)

    def __and__(self, other: "Block") -> "Block":
        self._check_same_ground(other)
        return Block(self.bits & other.bits, self.m)

    def __sub__(self, other: "Block") -> "Block":
        self._check_same_ground(other)
        return Block(self.bits & ~other.bits, self.m)

    def __xor__(self, other: "Block") -> "Block":
        self._check_same_ground(other)
        return Block(self.bits ^ other.bits, self.m)

    def __le__(self, other: "Block") -> bool:
        self._check_same_ground(other)
        return self.bits & ~other.bits == 0

    def isdisjoint(self, other: "Block") -> bool:
        self._check_same_ground(other)
        return self.bits & other.bits == 0

    def complement(self) -> "Block":
        """[m] - self; an involution."""
        return Block(self.bits ^ ((1 << self.m) - 1), self.m)

    def __str__(self) -> str:
        if not self.bits:
            return "{}"
        return "{" + ",".join(str(e) for e in self.elements()) + "}"

    def __repr__(self) -> str:
        return f"Block({str(self)}, m={self.m})"


ColorsLike = Union[Block, Iterable[int]]


def as_color_block(colors: ColorsLike, m: int) -> Block:
    """Normalize a color collection to a Block over [m]."""
    if isinstance(colors, Block):
        if colors.m != m:
            raise ParameterError(
                f"color set over [{colors.m}] does not match ground [{m}]"
            )
        return colors
    return Block.from_elements(colors, m)


@dataclass(frozen=True)
class Perm:
    """A permutation of [m], stored as the tuple of images of 1..m."""

    images: tuple[int, ...]

    def __post_init__(self):
        m = len(self.images)
        check_ground(m)
        if sorted(self.images) != list(range(1, m + 1)):
            raise ParameterError(f"{self.images!r} is not a permutation of [{m}]")

    @property
    def m(self) -> int:
        return len(self.images)

    @classmethod
    def from_transpositions(cls, m: int, pairs: Iterable[tuple[int, int]]) -> "Perm":
        """Product of disjoint transpositions (a1,b1)(a2,b2)..."""
        imgs = list(range(1, m + 1))
        for a, b in pairs:
            imgs[a - 1], imgs[b - 1] = b, a
        return cls(tuple(imgs))

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def apply_mask(self, v: int) -> int:
        """The image of the block with mask v, as a mask."""
        bits = 0
        while v:
            low = v & -v
            bits |= 1 << (self.images[low.bit_length() - 1] - 1)
            v ^= low
        return bits


def k_masks(m: int, k: int) -> list[int]:
    """Bitmasks of all k-subsets of [m], in increasing (colex) order.

    Colex order by bitmask is the canonical vertex order used everywhere;
    enumeration walks the masks with Gosper's hack, so the list is produced
    already sorted.  More than MAX_SUBSETS subsets raise ParameterError
    before any is listed.
    """
    check_ground(m)
    if not 0 <= k <= m:
        raise ParameterError(f"k={k} out of range 0..{m}")
    count = binomial(m, k)
    if count > MAX_SUBSETS:
        raise ParameterError(
            f"the {count} {k}-subsets of [{m}] exceed the limit of {MAX_SUBSETS}")
    if k == 0:
        return [0]
    out = []
    v = (1 << k) - 1
    limit = 1 << m
    while v < limit:
        out.append(v)
        # Gosper's hack: next integer with the same popcount
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r
    return out


def k_blocks(m: int, k: int) -> list[Block]:
    """All k-subsets of [m] in colexicographic order of bitmask value."""
    return [Block(x, m) for x in k_masks(m, k)]


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient, 0 outside the Pascal triangle."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n + 1), exactly."""
    if n < 0:
        raise ParameterError(f"catalan undefined for n={n}")
    return math.comb(2 * n, n) // (n + 1)


def catalan_fourth_convolution(n: int) -> int:
    """Fourth convolution of the Catalan sequence: 4/(2n-4) * C(2n-4, n).

    Defined to be 0 at n=3; undefined below that.  The division is checked
    exactly; a non-integral value would be a genuine anomaly and raises.
    """
    if n < 3:
        raise ParameterError(f"fourth convolution undefined for n={n} < 3")
    if n == 3:
        return 0
    value = Fraction(4, 2 * n - 4) * binomial(2 * n - 4, n)
    if value.denominator != 1:
        raise ParameterError(
            f"fourth convolution non-integral at n={n}: {value}"
        )
    return int(value)

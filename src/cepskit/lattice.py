"""Riesz-space primitives on a finite ground set, with exact rationals.

A lattice element is a function {0,...,N-1} -> Q stored as a tuple of
Fractions; the order is pointwise, so meets and joins are pointwise min
and max. The weak order unit e is the all-ones element. Components of e
(the lattice analogue of measurable sets) carry a dedicated subset
representation: a frozenset of indices, convertible to and from the
{0,1}-valued element by ``indicator`` (chi_c = P_c e, the band
projection of the unit) and ``support_component``. ``disjoint_join`` is
the one test that components are pairwise disjoint, and gives their join.
An element constant on the blocks of a partition, such as T of anything,
can be held as a ``BlockValues``: one value per block, compared block by
block and expanded to the dense tuple only when that is asked for.

Everything here is an immutable value; every operation returns a new one.
The public constructor and ``elem`` check that every entry is a Fraction.
Results of arithmetic, lattice operations, band projections and
indicators are built unchecked by the private ``_element``: their entries
are Fraction sums, products, negations, absolute values, mins and maxes,
or entries copied from checked elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DimensionError, DomainError
from .rationals import RationalLike, as_rational, format_rational

Component = frozenset[int]

ZERO = Fraction(0)
ONE = Fraction(1)


# Indices are ints, never bools or other int subclasses.
_INT = frozenset([int])


def as_component(members: Iterable[int]) -> Component:
    return members if isinstance(members, frozenset) else frozenset(members)


def checked_component(n: int, members: Iterable[int]) -> Component:
    """members as a component of {0,...,n-1}; DimensionError names the members
    that are not ints, else those out of range. Both tests run in C: sorting
    ints compares them faster than min and max do."""
    c = as_component(members)
    if not set(map(type, c)) <= _INT:
        bad = [i for i in c if type(i) is not int]
        raise DimensionError(f"component members {bad} are not ints")
    ordered = sorted(c)
    if ordered and (ordered[0] < 0 or ordered[-1] >= n):
        bad = [i for i in ordered if not 0 <= i < n]
        raise DimensionError(f"component members {bad} outside ground set of size {n}")
    return c


@dataclass(frozen=True)
class LatticeElement:
    """A rational-valued function on {0,...,N-1} with the pointwise order."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not all(isinstance(v, Fraction) for v in self.values):
            raise DomainError("lattice element entries must be exact Fractions")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.values)

    def _check_same_length(self, other: "LatticeElement") -> None:
        if len(self.values) != len(other.values):
            raise DimensionError(
                f"dimension mismatch: {len(self.values)} vs {len(other.values)}"
            )

    # vector-space structure
    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        """The pointwise sum; x + 0 and 0 + x are x itself, without an addition."""
        self._check_same_length(other)
        return _element(tuple(a + b if a and b else a or b
                              for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        self._check_same_length(other)
        return _element(tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "LatticeElement":
        return _element(tuple(-a for a in self.values))

    def __mul__(self, other) -> "LatticeElement":
        """Scalar multiple, or the pointwise product with another element."""
        if isinstance(other, LatticeElement):
            self._check_same_length(other)
            return _element(tuple(a * b for a, b in zip(self.values, other.values)))
        c = as_rational(other)
        return _element(tuple(a * c for a in self.values))

    __rmul__ = __mul__

    # lattice structure
    def meet(self, other: "LatticeElement") -> "LatticeElement":
        self._check_same_length(other)
        return _element(tuple(map(min, self.values, other.values)))

    def join(self, other: "LatticeElement") -> "LatticeElement":
        self._check_same_length(other)
        return _element(tuple(map(max, self.values, other.values)))

    def pos_part(self) -> "LatticeElement":
        return _element(tuple(max(a, ZERO) for a in self.values))

    def __abs__(self) -> "LatticeElement":
        return _element(tuple(map(abs, self.values)))

    def __le__(self, other: "LatticeElement") -> bool:
        self._check_same_length(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def __ge__(self, other: "LatticeElement") -> bool:
        self._check_same_length(other)
        return all(a >= b for a, b in zip(self.values, other.values))

    def is_nonnegative(self) -> bool:
        return all(a >= ZERO for a in self.values)

    def is_component(self) -> bool:
        """True iff every entry is 0 or 1, i.e. the element lies in C_e."""
        return all(a == ZERO or a == ONE for a in self.values)

    def support(self) -> Component:
        """Indices with a nonzero entry (for any sign)."""
        return frozenset(i for i, a in enumerate(self.values) if a != ZERO)

    def formatted(self) -> list[str]:
        """Every entry in the wire format "a/b", in order."""
        return [format_rational(a) for a in self.values]

    def __repr__(self) -> str:
        return "(" + ", ".join(self.formatted()) + ")"


def _element(values: tuple[Fraction, ...]) -> LatticeElement:
    """A LatticeElement without the entry check, for entries that are Fractions."""
    f = object.__new__(LatticeElement)
    object.__setattr__(f, "values", values)
    return f


class BlockValues(LatticeElement):
    """An element constant on the blocks of a partition, one value per block.

    ``owner[x]`` is the block of point x and ``per_block[b]`` the value on
    block b; every block has a point. ``==`` and ``<=`` between two on the
    same blocks compare O(#blocks) values. ``values``, the dense tuple, is
    built on first request and cached; everything else reads it, so it is
    coordinatewise against a dense element.
    """

    def __init__(self, per_block: Iterable[Fraction], owner: tuple[int, ...]):
        per_block = tuple(per_block)
        if not all(isinstance(v, Fraction) for v in per_block):
            raise DomainError("lattice element entries must be exact Fractions")
        object.__setattr__(self, "per_block", per_block)
        object.__setattr__(self, "owner", owner)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        per_block = self.per_block
        return tuple(per_block[b] for b in self.owner)

    def _same_blocks(self, other) -> bool:
        return isinstance(other, BlockValues) and (
            self.owner is other.owner or self.owner == other.owner)

    def __eq__(self, other) -> bool:
        if self._same_blocks(other):
            return self.per_block == other.per_block
        if isinstance(other, LatticeElement):
            return self.values == other.values
        return NotImplemented

    __hash__ = LatticeElement.__hash__

    def __le__(self, other: LatticeElement) -> bool:
        if self._same_blocks(other):
            return all(a <= b for a, b in zip(self.per_block, other.per_block))
        return super().__le__(other)

    def formatted(self) -> list[str]:
        """Each block value formatted once, then spread over its points."""
        text = [format_rational(a) for a in self.per_block]
        return list(map(text.__getitem__, self.owner))


def elem(values: Iterable[RationalLike]) -> LatticeElement:
    """Build a lattice element, coercing ints and "a/b" strings exactly."""
    return LatticeElement(tuple(as_rational(v) for v in values))


def zeros(n: int) -> LatticeElement:
    return LatticeElement((ZERO,) * n)


def ones(n: int) -> LatticeElement:
    """The weak order unit e on a ground set of size n."""
    return LatticeElement((ONE,) * n)


def indicator(n: int, members: Iterable[int]) -> LatticeElement:
    """chi_c = P_c e: the {0,1}-valued element of a component c of e."""
    return band_project(members, _element((ONE,) * n))


meet = LatticeElement.meet
join = LatticeElement.join
pos_part = LatticeElement.pos_part
is_component = LatticeElement.is_component


def band_project(u: Iterable[int], f: LatticeElement) -> LatticeElement:
    """Band projection P_u: keep the entries inside u, zero the rest."""
    u = checked_component(len(f), u)
    values, entries = [ZERO] * len(f), f.values
    for i in u:
        values[i] = entries[i]
    return _element(tuple(values))


def disjoint_join(components: Sequence[Component]) -> Component | None:
    """The join of the components, or None when two of them meet."""
    union = frozenset().union(*components)
    return union if sum(map(len, components)) == len(union) else None


def support_component(f: LatticeElement) -> Component:
    """The smallest component c with P_c f = f, for f >= 0.

    Applying ``band_project`` of the result to e yields P_f e, the band
    projection of the unit onto the band generated by f.
    """
    if not f.is_nonnegative():
        raise DomainError(f"support_component requires f >= 0, got {f!r}")
    return f.support()


def jsonable(value):
    """A library value as JSON data, for reports: an element as its formatted
    entries, a set sorted, a Fraction as its "a/b" text, a tuple or list item
    by item; anything else as it is."""
    if isinstance(value, LatticeElement):
        return value.formatted()
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    return value

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cepskit.errors import DimensionError, DomainError
from cepskit.lattice import (
    BlockValues,
    LatticeElement,
    band_project,
    disjoint_join,
    elem,
    indicator,
    is_component,
    join,
    meet,
    ones,
    pos_part,
    support_component,
    zeros,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=8)


@st.composite
def element_pairs(draw, max_size=8):
    n = draw(st.integers(min_value=1, max_value=max_size))
    f = elem(draw(st.lists(rationals, min_size=n, max_size=n)))
    g = elem(draw(st.lists(rationals, min_size=n, max_size=n)))
    return f, g


def test_meet_join_examples():
    assert meet(elem([1, 0]), elem([0, 1])) == elem([0, 0])
    assert join(elem([1, 0]), elem([0, 1])) == elem([1, 1])
    assert meet(elem(["1/2", 3]), elem([1, 2])) == elem(["1/2", 2])
    assert join(elem(["1/2", 3]), elem([1, 2])) == elem([1, 3])


def test_meet_idempotent_join_neutral():
    f = elem(["2/3", 5, 0])
    assert meet(f, f) == f
    assert join(f, zeros(3)) == f  # f >= 0


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        meet(elem([1]), elem([1, 2]))
    with pytest.raises(DimensionError):
        join(elem([1]), elem([1, 2]))
    with pytest.raises(DimensionError):
        band_project([3], elem([1, 2]))


def test_pos_part():
    assert pos_part(elem([1, "-1/2"])) == elem([1, 0])
    assert pos_part(elem([-3, -1])) == elem([0, 0])
    # the worked two-point value: ((1,1) - 2*(1/2,1/2))^+ = (0,0)
    f = elem([1, 1]) - 2 * elem(["1/2", "1/2"])
    assert pos_part(f) == elem([0, 0])


def test_band_project():
    f = elem([3, 5])
    assert band_project([0, 1], f) == f
    assert band_project([], f) == zeros(2)
    assert band_project([0], f) == elem([3, 0])


def test_support_component():
    assert support_component(ones(4)) == frozenset(range(4))
    assert support_component(zeros(3)) == frozenset()
    assert support_component(elem([0, "1/3", 0, 2])) == frozenset([1, 3])
    with pytest.raises(DomainError):
        support_component(elem([1, -1]))


def test_is_component():
    assert is_component(elem([1, 0, 1]))
    assert not is_component(elem(["1/2", 0]))
    assert is_component(ones(5))


def test_indicator_bounds():
    assert indicator(3, [0, 2]) == elem([1, 0, 1])
    with pytest.raises(DimensionError):
        indicator(2, [5])


def test_no_floats_allowed():
    with pytest.raises(DomainError):
        elem([0.5, 1])


def test_entries_must_be_exact_fractions():
    # The constructor's own check: an int entry is not read as a Fraction.
    with pytest.raises(DomainError, match="^lattice element entries must be exact"):
        LatticeElement((1,))


def test_checks_before_unchecked_results():
    """Results are built without the entry check, so the checks before them
    must hold: a list fill would read index -1 as the last point, a float or
    bool scalar would leave non-Fraction entries, and the public constructor
    checks every entry, not only the first."""
    with pytest.raises(DomainError, match="^lattice element entries must be exact"):
        LatticeElement((Fraction(1), 1))
    f = elem([1, "1/2"])
    with pytest.raises(DimensionError):
        band_project([-1], f)
    with pytest.raises(DimensionError):
        indicator(2, [-1])
    with pytest.raises(DomainError):
        f * 0.5
    with pytest.raises(DomainError):
        f * True


@st.composite
def zero_heavy_pairs(draw):
    """Pairs of length 1-40 with at least half their entries 0: drawn
    independently, on disjoint supports, or g = -f."""
    n = draw(st.integers(min_value=1, max_value=40))

    def sparse(points):
        values = [Fraction(0)] * n
        for i in draw(st.sets(st.sampled_from(points), max_size=n // 2)):
            values[i] = draw(rationals)
        return values

    f = sparse(range(n))
    kind = draw(st.sampled_from(["independent", "disjoint", "negated"]))
    if kind == "negated":
        g = [-a for a in f]
    elif kind == "disjoint" and any(a == 0 for a in f):
        g = sparse([i for i, a in enumerate(f) if a == 0])
    else:
        g = sparse(range(n))
    return LatticeElement(tuple(f)), LatticeElement(tuple(g))


@given(zero_heavy_pairs(), rationals)
def test_unchecked_results_are_the_checked_computation(pair, c):
    """Each operation equals its entrywise Fraction computation built through
    the public constructor, and every entry is a Fraction."""
    f, g = pair
    cases = [
        (f + g, map(operator.add, f, g)),
        (f - g, map(operator.sub, f, g)),
        (-f, map(operator.neg, f)),
        (f * g, map(operator.mul, f, g)),
        (f * c, (a * c for a in f)),
        (c * f, (c * a for a in f)),
        (meet(f, g), map(min, f, g)),
        (join(f, g), map(max, f, g)),
        (pos_part(f), (max(a, Fraction(0)) for a in f)),
        (abs(f), map(abs, f)),
    ]
    for result, entries in cases:
        assert result == LatticeElement(tuple(entries))
        assert all(type(v) is Fraction for v in result)
    # x + 0 is x: where one side is 0, the sum holds the other side's entry.
    for s, a, b in zip(f + g, f, g):
        if not a:
            assert s is b
        elif not b:
            assert s is a


@given(element_pairs())
def test_absorption(pair):
    f, g = pair
    assert meet(f, join(f, g)) == f


@given(element_pairs())
def test_birkhoff_identity(pair):
    f, g = pair
    assert f + g == meet(f, g) + join(f, g)


@given(element_pairs())
def test_pos_part_decomposition(pair):
    f, _ = pair
    assert pos_part(f) - pos_part(-f) == f
    assert meet(pos_part(f), pos_part(-f)) == zeros(len(f))


@given(st.integers(min_value=1, max_value=8), st.data())
def test_components_closed_under_meet_join(n, data):
    p = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    q = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    cp, cq = indicator(n, p), indicator(n, q)
    assert meet(cp, cq) == indicator(n, p & q)
    assert join(cp, cq) == indicator(n, p | q)
    assert band_project(p, ones(n)) == cp


@given(st.integers(min_value=1, max_value=8), st.data())
def test_support_is_smallest_carrier(n, data):
    f = elem(data.draw(st.lists(
        st.fractions(min_value=0, max_value=5, max_denominator=6),
        min_size=n, max_size=n)))
    c = support_component(f)
    assert band_project(c, f) == f
    for i in sorted(c):
        assert band_project(c - {i}, f) != f


def test_block_values_entries_must_be_fractions():
    with pytest.raises(DomainError,
                       match=r"^lattice element entries must be exact Fractions$"):
        BlockValues((Fraction(1), 1), (0, 1, 1))


def test_disjoint_join():
    assert disjoint_join([]) == frozenset()
    assert disjoint_join([frozenset([0, 2]), frozenset(), frozenset([1])]) \
        == frozenset([0, 1, 2])
    assert disjoint_join([frozenset([0, 2]), frozenset([2])]) is None
    parts = {1: frozenset([0]), 2: frozenset([1, 3])}
    assert disjoint_join(parts.values()) == frozenset([0, 1, 3])
    parts[3] = frozenset([3])
    assert disjoint_join(parts.values()) is None


@given(st.lists(st.frozensets(st.integers(0, 7), max_size=4), max_size=4))
def test_disjoint_join_is_the_pairwise_test(components):
    overlap = any(a & b for i, a in enumerate(components) for b in components[i + 1:])
    expected = None if overlap else frozenset().union(*components)
    assert disjoint_join(components) == expected

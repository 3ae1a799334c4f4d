"""Exact interval-union algebra on the rational line.

The hypothesis properties check every operation against a pointwise
oracle on a rational probe grid dense enough to witness any violation:
all endpoints of the inputs, midpoints of every part, and midpoints of
the exact set differences.  The laws every adapter obeys, against an
oracle that reads the parts directly, are in ``test_adapter_laws.py``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadicmeasure.errors import InvariantViolation
from dyadicmeasure.regions import (
    LineRegion,
    interval,
    line_closure_strictly_inside,
    line_contains_point,
    line_meet,
    line_meet_exterior,
    line_minus_closure,
    line_region,
    line_subset,
    line_union,
)

F = Fraction


def test_line_region_merges_overlaps_keeps_touching():
    r = line_region([(F(0), F(2)), (F(1), F(3))])
    assert r.parts == ((F(0), F(3)),)
    touching = line_region([(F(0), F(1)), (F(1), F(2))])
    assert touching.parts == ((F(0), F(1)), (F(1), F(2)))


def test_line_region_drops_degenerate():
    assert line_region([(F(1), F(1))]).is_empty
    assert line_region([(F(2), F(1))]).is_empty


def test_interval_validates():
    assert interval(0, 1).parts == ((F(0), F(1)),)
    with pytest.raises(InvariantViolation):
        interval(1, 1)


def test_meet_touching_is_empty():
    assert line_meet(interval(0, 1), interval(1, 2)).is_empty


def test_meet_exterior_removes_closure():
    # ext of (1,2) is the complement of [1,2]
    out = line_meet_exterior(interval(0, 3), interval(1, 2))
    assert out.parts == ((F(0), F(1)), (F(2), F(3)))


def test_minus_closure_multiple_pieces():
    r = line_region([(F(0), F(4))])
    out = line_minus_closure(r, ((F(1), F(2)), (F(3), F(5))))
    assert out.parts == ((F(0), F(1)), (F(2), F(3)))


def test_union_point_set_semantics():
    # (0,1) u (1,2) misses the point 1, so it stays two parts
    out = line_union(interval(0, 1), interval(1, 2))
    assert out.parts == ((F(0), F(1)), (F(1), F(2)))
    merged = line_union(interval(0, 1), interval(F(1, 2), 2))
    assert merged.parts == ((F(0), F(2)),)


def test_subset_respects_touching_gap():
    two = line_region([(F(0), F(1)), (F(1), F(2))])
    assert not line_subset(interval(0, 2), two)
    assert line_subset(interval(0, 1), two)
    assert line_subset(LineRegion(()), two)


def test_closure_strictly_inside():
    assert line_closure_strictly_inside(interval(1, 2), interval(0, 3))
    assert not line_closure_strictly_inside(interval(0, 2), interval(0, 3))
    assert not line_closure_strictly_inside(interval(0, 3), interval(1, 2))
    assert not line_closure_strictly_inside(interval(0, 1), LineRegion(()))
    assert line_closure_strictly_inside(LineRegion(()), interval(0, 1))


def test_contains_point_is_open():
    assert line_contains_point(interval(0, 1), F(1, 2))
    assert not line_contains_point(interval(0, 1), F(0))
    assert not line_contains_point(interval(0, 1), F(1))


# -- pointwise oracle properties -------------------------------------------------

scalars = st.builds(
    F, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=4)
)


@st.composite
def regions(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    parts = []
    for _ in range(n):
        a = draw(scalars)
        b = draw(scalars)
        if a != b:
            parts.append((min(a, b), max(a, b)))
    return line_region(parts)


def probe_grid(*rs):
    """Endpoints, part midpoints and near-endpoint points of every input."""
    pts = set()
    for r in rs:
        for lo, hi in r.parts:
            mid = (lo + hi) / 2
            step = (hi - lo) / 4
            pts.update((lo, hi, mid, lo + step, hi - step))
    return sorted(pts)


def in_closure(r, p):
    return any(lo <= p <= hi for lo, hi in r.parts)


def ends(r):
    """Every endpoint of every part: the boundary of the region."""
    return [e for part in r.parts for e in part]


@given(regions())
def test_kept_hash_agrees_with_equality(x):
    twin = line_region(x.parts)
    assert twin == x and twin is not x
    assert hash(x) == hash(x.parts)
    assert hash(x) == hash(twin) == hash(x)
    assert {x, twin} == {x}


@given(regions(), regions())
def test_meet_is_pointwise_and(x, y):
    out = line_meet(x, y)
    for p in probe_grid(x, y, out):
        assert line_contains_point(out, p) == (
            line_contains_point(x, p) and line_contains_point(y, p)
        )


@given(regions(), regions())
def test_union_is_pointwise_or(x, y):
    out = line_union(x, y)
    for p in probe_grid(x, y, out):
        assert line_contains_point(out, p) == (
            line_contains_point(x, p) or line_contains_point(y, p)
        )


@given(regions(), regions())
def test_meet_exterior_is_pointwise_difference(x, v):
    out = line_meet_exterior(x, v)
    for p in probe_grid(x, v, out):
        assert line_contains_point(out, p) == (
            line_contains_point(x, p) and not in_closure(v, p)
        )


@given(regions(), regions())
def test_subset_matches_exact_difference(x, y):
    # x inside y iff nothing of x survives outside the closure of y and
    # no boundary point of y sits inside x
    leftover = line_minus_closure(x, y.parts)
    expected = leftover.is_empty and not any(
        line_contains_point(x, p) for p in ends(y)
    )
    assert line_subset(x, y) == expected


@given(regions(), regions())
def test_closure_strictly_inside_matches_endpoints(x, y):
    expected = line_subset(x, y) and all(line_contains_point(y, p) for p in ends(x))
    if x.is_empty:
        expected = not y.is_empty
    assert line_closure_strictly_inside(x, y) == expected


@given(regions(), regions())
def test_meet_commutes(x, y):
    assert line_meet(x, y) == line_meet(y, x)
    assert line_union(x, y) == line_union(y, x)

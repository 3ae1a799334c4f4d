"""Clopen cylinder algebra, checked against finite word expansion.

Every region over prefixes of length <= L is a union of words of length
exactly L, so expanding both sides to depth L is a complete oracle, not a
sample.  The laws every adapter obeys are in ``test_adapter_laws.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadicmeasure.errors import InvariantViolation
from dyadicmeasure.regions import (
    CantorRegion,
    cantor_closure_strictly_inside,
    cantor_contains_point,
    cantor_meet,
    cantor_minus,
    cantor_region,
    cantor_subset,
    cantor_union,
)


def words(depth):
    return {format(k, f"0{depth}b") for k in range(1 << depth)} if depth else {""}


def expand(region, depth):
    return {w for w in words(depth) if any(w.startswith(p) for p in region.prefixes)}


def test_canonicalize_merges_siblings():
    assert cantor_region(["00", "01"]) == cantor_region(["0"])
    assert cantor_region(["00", "01", "10", "11"]) == CantorRegion(("",))
    assert cantor_region(["0", "00"]) == cantor_region(["0"])


def test_canonicalize_cascades():
    # sibling merge exposes another merge
    assert cantor_region(["000", "001", "01", "1"]) == CantorRegion(("",))
    assert cantor_region(["0", "100", "101", "11"]) == CantorRegion(("",))
    assert cantor_region(["1", "011", "010", "00"]) == CantorRegion(("",))
    assert cantor_region(["0110", "0111", "010", "1"]) == cantor_region(
        ["01", "1"]
    )
    # a descendant of a merged word is dropped
    assert cantor_region(["00", "01", "010"]) == cantor_region(["0"])
    # neither 00 nor 0 is present whole, so nothing merges
    assert cantor_region(["000", "01", "1"]).prefixes == ("000", "01", "1")


def test_rejects_bad_alphabet():
    with pytest.raises(InvariantViolation):
        cantor_region(["02"])


def test_meet_prefix_relation():
    assert cantor_meet(cantor_region(["0"]), cantor_region(["01"])) == cantor_region(
        ["01"]
    )
    assert cantor_meet(cantor_region(["0"]), cantor_region(["1"])).is_empty


def test_subset_and_strictly_inside():
    assert cantor_subset(cantor_region(["01"]), cantor_region(["0"]))
    assert not cantor_subset(cantor_region(["0"]), cantor_region(["01"]))
    assert cantor_closure_strictly_inside(cantor_region(["01"]), cantor_region(["0"]))
    # equality is not strict
    assert not cantor_closure_strictly_inside(cantor_region(["0"]), cantor_region(["0"]))
    assert not cantor_closure_strictly_inside(cantor_region(["0"]), CantorRegion(()))


def test_contains_point_needs_long_words():
    r = cantor_region(["01"])
    assert cantor_contains_point(r, "010000")
    assert not cantor_contains_point(r, "110000")


prefixes = st.lists(
    st.text(alphabet="01", min_size=0, max_size=5), min_size=0, max_size=8
)


def canonical(region):
    """The region itself, after checking it is in canonical form."""
    assert cantor_region(region.prefixes) == region
    return region


@given(prefixes)
def test_expansion_round_trip(ps):
    r = cantor_region(ps)
    # canonicalization is exactly "same depth-5 word set"
    assert cantor_region(sorted(expand(r, 5))) == r


@given(prefixes, prefixes)
def test_meet_is_intersection(ps, qs):
    x, y = cantor_region(ps), cantor_region(qs)
    assert expand(canonical(cantor_meet(x, y)), 5) == expand(x, 5) & expand(y, 5)


@given(prefixes, prefixes)
def test_union_is_union(ps, qs):
    x, y = cantor_region(ps), cantor_region(qs)
    assert expand(canonical(cantor_union(x, y)), 5) == expand(x, 5) | expand(y, 5)


@given(prefixes, prefixes)
def test_minus_is_difference(ps, qs):
    x, y = cantor_region(ps), cantor_region(qs)
    assert expand(canonical(cantor_minus(x, y)), 5) == expand(x, 5) - expand(y, 5)


@given(prefixes, prefixes)
def test_subset_matches_expansion(ps, qs):
    x, y = cantor_region(ps), cantor_region(qs)
    assert cantor_subset(x, y) == (expand(x, 5) <= expand(y, 5))


@given(prefixes, prefixes)
def test_closure_strictly_inside_matches_expansion(ps, qs):
    x, y = cantor_region(ps), cantor_region(qs)
    # cylinders are clopen: closure(x) inside y with something left over
    assert cantor_closure_strictly_inside(x, y) == (expand(x, 5) < expand(y, 5))

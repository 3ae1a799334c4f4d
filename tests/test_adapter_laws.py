"""The laws every space adapter must pass: the contract of ``SpaceAdapter``.

Each law is stated once and runs for every adapter in ``adapters.ADAPTERS``.
A space enters the contract through its ``SPACES`` entry:

* a Hypothesis strategy for regions and one for points;
* a membership oracle: ``inside`` and ``closed`` (membership in the region
  and in its closure) read the region's own representation and call no
  adapter method and no ``regions`` function, and ``grid`` lists points on
  which agreement with the oracle is exact, not sampled;
* ``canonical``, the region rebuilt from its representation, which the
  adapter's outputs must equal.

Testing an interface by its laws follows QuickCheck (Claessen and Hughes,
ICFP 2000).
"""

import functools
from fractions import Fraction as F
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicmeasure.adapters import ADAPTERS, make_adapter
from dyadicmeasure.errors import InfeasibleCover, InvariantViolation, ScanExhausted
from dyadicmeasure.regions import cantor_region, line_region
from dyadicmeasure.stages import StageBuilder


class Space(NamedTuple):
    regions: st.SearchStrategy
    points: st.SearchStrategy
    inside: Callable[[object, object], bool]
    closed: Callable[[object, object], bool]
    grid: Callable[..., list]  # grid(*regions)
    canonical: Callable[[object], object]


# -- the rational line ----------------------------------------------------------

# t +- (1 + nudge) * 2**-k: next to 1 these tie in float with 1 and with
# each other past k = 53, and a nudge 54 or more bits further down ties the
# error term of the key too, so only the exact term decides
NEAR_TIES = tuple(
    t + s * (1 + nudge) * F(1, 2**k)
    for k in (1, 53, 54, 107, 600)
    for t in (0, 1)
    for s in (-1, 1)
    for nudge in (0, F(1, 2**54), F(1, 2**120))
)

ENDPOINTS = NEAR_TIES + (F(-1), F(-1, 2), F(1, 2), F(3, 2), F(2))

# one small pool per example, so parts share, touch and overlap endpoints,
# most of them float ties
POOL = st.shared(
    st.lists(st.sampled_from(ENDPOINTS), min_size=2, max_size=8, unique=True),
    key="line endpoints",
)


def breakpoints(ends):
    """Every end, the middle of each gap between neighbours and one point
    past each extreme: membership is constant between neighbours."""
    ends = sorted(set(ends))
    if not ends:
        return [F(0)]
    middles = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    return [ends[0] - 1, *ends, *middles, ends[-1] + 1]


@st.composite
def line_regions(draw):
    pool = draw(POOL)
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if a != b:
            parts.append((min(a, b), max(a, b)))
    return line_region(parts)


LINE = Space(
    regions=line_regions(),
    points=POOL.flatmap(lambda pool: st.sampled_from(breakpoints(pool))),
    inside=lambda r, p: any(a < p < b for a, b in r.parts),
    closed=lambda r, p: any(a <= p <= b for a, b in r.parts),
    grid=lambda *rs: breakpoints(e for r in rs for part in r.parts for e in part),
    canonical=lambda r: line_region(r.parts),
)


# -- Cantor space ---------------------------------------------------------------


def cantor_words(*rs):
    """Every word of the longest prefix's length: a region over shorter
    prefixes is exactly a set of them."""
    n = max((len(p) for r in rs for p in r.prefixes), default=0)
    return [format(k, "b").zfill(n) for k in range(1 << n)] if n else [""]


def in_cylinders(r, w):
    return w.startswith(r.prefixes)  # any of them; a tuple of none is False


CANTOR = Space(
    regions=st.lists(st.text("01", max_size=5), max_size=8).map(cantor_region),
    points=st.text("01", max_size=8),
    inside=in_cylinders,
    closed=in_cylinders,  # cylinders are clopen
    grid=cantor_words,
    canonical=lambda r: cantor_region(r.prefixes),
)

SPACES = {"rational-line": LINE, "cantor": CANTOR}

laws = pytest.mark.parametrize("name", sorted(SPACES))


def law(examples):
    return settings(derandomize=True, max_examples=examples, deadline=None)


def oracle_subset(space, x, y):
    return all(space.inside(y, p) for p in space.grid(x, y) if space.inside(x, p))


@functools.cache
def basis_inside(name, k):
    """The indices up to 60 of the basis elements inside element k, or all
    of them for k = 0."""
    space, adapter = SPACES[name], make_adapter(name)
    basis = [adapter.enumerate(j).region for j in range(1, 61)]
    return [
        j
        for j, v in enumerate(basis, 1)
        if not k or oracle_subset(space, v, basis[k - 1])
    ]


def test_every_adapter_has_laws():
    assert set(SPACES) == set(ADAPTERS)


# -- regions and points ----------------------------------------------------------


@laws
@law(300)
@given(data=st.data())
def test_region_algebra_matches_the_oracle(name, data):
    """meet, union, union_all and meet_exterior agree with the oracle and
    return canonical form, which hashes like any equal region; meet and
    union commute; subset and closure_strictly_inside agree with the
    oracle."""
    space, adapter = SPACES[name], make_adapter(name)
    inside, closed = space.inside, space.closed
    x, y = data.draw(space.regions), data.draw(space.regions)
    rs = data.draw(st.lists(space.regions, max_size=6))
    for out, expected, args in (
        (adapter.meet(x, y), lambda p: inside(x, p) and inside(y, p), (x, y)),
        (adapter.union(x, y), lambda p: inside(x, p) or inside(y, p), (x, y)),
        (
            adapter.meet_exterior(x, y),
            lambda p: inside(x, p) and not closed(y, p),
            (x, y),
        ),
        (adapter.union_all(rs), lambda p: any(inside(r, p) for r in rs), rs),
    ):
        twin = space.canonical(out)
        assert twin == out and hash(twin) == hash(out)
        for p in space.grid(out, *args):
            assert inside(out, p) == expected(p), p
    assert adapter.union(x, y) == adapter.union_all([x, y]) == adapter.union(y, x)
    assert adapter.meet(x, y) == adapter.meet(y, x)
    grid = space.grid(x, y)
    assert adapter.subset(x, y) == oracle_subset(space, x, y)
    # closure(x) inside y, and y minus closure(x) not empty
    strictly = all(inside(y, p) for p in grid if closed(x, p)) and any(
        inside(y, p) and not closed(x, p) for p in grid
    )
    assert adapter.closure_strictly_inside(x, y) == strictly


@laws
@law(300)
@given(data=st.data())
def test_points_match_the_oracle(name, data):
    """contains_point and point_hosts agree with the oracle, repeated points
    and shared endpoints included, and probe points lie in their region."""
    space, adapter = SPACES[name], make_adapter(name)
    regions = data.draw(st.lists(space.regions, min_size=1, max_size=6))
    points = data.draw(st.lists(space.points, max_size=12))
    assert adapter.point_hosts(points, regions) == [
        [n for n, r in enumerate(regions) if space.inside(r, p)] for p in points
    ]
    r = regions[0]
    for p in space.grid(r):
        assert adapter.contains_point(r, p) == space.inside(r, p), p
    assert all(space.inside(r, p) for p in adapter.probe_points(r, regions[1:]))


@laws
@law(100)
@given(data=st.data())
def test_finite_subcover(name, data):
    """A greedy cover of points by basis elements inside the constraint.

    The points are probe points of basis elements up to index 60 that lie
    inside the constraint and are not forbidden, so a cover exists there."""
    space, adapter = SPACES[name], make_adapter(name)
    k = data.draw(st.integers(0, 16))
    constraint = adapter.enumerate(k).region if k else None
    picked = data.draw(st.sets(st.sampled_from(basis_inside(name, k)), max_size=4))
    points = [
        p
        for j in sorted(picked)
        for p in adapter.probe_points(adapter.enumerate(j).region, [])[:2]
    ]
    min_index = data.draw(st.integers(1, min(picked, default=1)))
    # forbid some of what the scan would choose, so it must look further
    free = adapter.finite_subcover(points, constraint, (), min_index)
    forbidden = frozenset(h.index for h in free if data.draw(st.booleans())) - picked
    cover = adapter.finite_subcover(points, constraint, forbidden, min_index)
    indices = [h.index for h in cover]
    assert indices == sorted(set(indices)) and all(i >= min_index for i in indices)
    assert not forbidden & set(indices)
    assert all(any(space.inside(h.region, p) for h in cover) for p in points)
    if constraint is not None:
        assert all(oracle_subset(space, h.region, constraint) for h in cover)
        grid = space.grid(constraint)
        outside = [p for p in grid if not space.inside(constraint, p)][:1]
        if outside:
            with pytest.raises(InfeasibleCover):
                adapter.finite_subcover(points + outside, constraint, scan_cap=100)
    if cover:
        with pytest.raises(ScanExhausted):
            adapter.finite_subcover(
                points, constraint, forbidden, min_index, indices[-1] - min_index
            )


@laws
def test_basis_elements_format_parse_and_bound(name):
    """parse inverts format on basis elements, and each boundary point
    lies in the element's closure and not in the element."""
    space, adapter = SPACES[name], make_adapter(name)
    for k in range(1, 300):
        v = adapter.enumerate(k)
        assert adapter.parse_region(adapter.format_region(v.region)) == v.region
        for p in adapter.boundary(v):
            assert space.closed(v.region, p) and not space.inside(v.region, p)


@laws
def test_enumeration_is_a_bijection_behind_an_injected_prefix(name):
    """enumerate is injective on a prefix and index_of inverts it.  The
    injected regions sit at 1..n, and the canonical order continues
    without them."""
    bare = make_adapter(name)
    head = [bare.enumerate(k).region for k in range(1, 501)]
    # canonical positions 48, 1, 22 and 5, and one past the checked prefix
    picks = (*(head[k - 1] for k in (48, 1, 22, 5)), bare.enumerate(700).region)
    for adapter in (bare, bare.with_injected(picks)):
        n = len(adapter.injected)
        got = [adapter.enumerate(k) for k in range(1, 501)]
        assert [h.index for h in got] == list(range(1, 501))
        regions = [h.region for h in got]
        assert regions[:n] == list(adapter.injected)
        assert regions[n:] == [r for r in head if r not in adapter.injected][: 500 - n]
        assert len(set(regions)) == 500
        assert all(adapter.index_of(r) == k for k, r in enumerate(regions, 1))
    assert n == len(picks) and bare.injected == ()


@laws
def test_enumerate_refuses_indices_below_one(name):
    """Refused before and after the cache holds handles, which a negative
    index would otherwise read from the end."""
    adapter = make_adapter(name)
    for filled in (0, 5):
        if filled:
            adapter.enumerate(filled)
        for index in (0, -1):
            with pytest.raises(InvariantViolation, match="start at 1"):
                adapter.enumerate(index)


@laws
def test_noting_a_stage_leaves_the_enumeration(name):
    """A stage of the adapter's own first emissions, inserted in reverse,
    or of another adapter's, changes none of enumerate(1..200).  The line
    stream's pack after the 28th emission reads the classes of the first 28."""
    expected = [make_adapter(name).enumerate(k).region for k in range(1, 201)]
    for donor in (None, make_adapter(name, injected=[expected[40]])):
        adapter = make_adapter(name)
        handles = [adapter.enumerate(k) for k in range(28, 0, -1)]
        if donor:
            handles = [donor.enumerate(k) for k in range(1, 29)]
        *_, stage = StageBuilder(donor or adapter).run(handles)
        adapter.note_stage(stage)
        assert [adapter.enumerate(k).region for k in range(1, 201)] == expected

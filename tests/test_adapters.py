"""Basis enumeration adapters: ordering, injection, scans, parsing."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicmeasure.adapters import (
    BasisHandle,
    cantor_pair,
    cantor_unpair,
    cw_rank,
    cw_value,
    diagonal_walk,
    make_adapter,
    rational_rank,
    rational_value,
)
from dyadicmeasure.errors import (
    DuplicateInsertion,
    InfeasibleCover,
    InvariantViolation,
    NotABasisElement,
    ScanExhausted,
)
from dyadicmeasure.regions import cantor_region, interval, line_region
from dyadicmeasure.stages import StageBuilder


@pytest.fixture
def line():
    return make_adapter("rational-line")


@pytest.fixture
def cantor():
    return make_adapter("cantor")


@pytest.fixture
def line_t1():
    return make_adapter(
        "rational-line",
        injected=[interval(0, 2), interval(1, 3), interval(F(9, 4), F(11, 4))],
    )


# -- canonical order ----------------------------------------------------------

FIRST_SIXTEEN = [
    (1, interval(0, 1)),
    (2, interval(1, 2)),
    (3, interval(-1, 0)),
    (4, interval(F(1, 4), F(3, 4))),
    (5, interval(F(-3, 4), F(-1, 4))),
    (6, interval(F(5, 4), F(7, 4))),
    (7, interval(F(-1, 4), F(1, 4))),
    (8, interval(F(3, 4), F(5, 4))),
    (9, interval(F(255, 256), F(257, 256))),
    (10, interval(F(511, 256), F(513, 256))),
    (11, interval(F(-15, 16), F(-13, 16))),
    (12, interval(F(-5, 8), F(-3, 8))),
    (13, interval(F(-3, 16), F(-1, 16))),
    (14, interval(F(1, 16), F(3, 16))),
    (15, interval(F(3, 8), F(5, 8))),
    (16, interval(0, F(1, 2))),
]


@pytest.mark.parametrize("index,region", FIRST_SIXTEEN)
def test_line_enumeration_head(line, index, region):
    assert line.enumerate(index).region == region


def test_cantor_enumeration_head(cantor):
    words = [cantor.enumerate(i).region.prefixes for i in range(1, 10)]
    assert words == [
        ("",),
        ("0",),
        ("1",),
        ("00",),
        ("01",),
        ("10",),
        ("11",),
        ("000",),
        ("001",),
    ]


def test_enumerate_rejects_nonpositive(line, cantor):
    """Refused before and after the cache holds handles, which a negative
    index would otherwise read from the end."""
    for adapter in (line, cantor):
        for filled in (0, 5):
            if filled:
                adapter.enumerate(filled)
            for index in (0, -1):
                with pytest.raises(InvariantViolation, match="start at 1"):
                    adapter.enumerate(index)


def test_enumeration_is_injective(line, cantor):
    seen = [line.enumerate(i).region for i in range(1, 121)]
    assert len(set(seen)) == 120
    seen = [cantor.enumerate(i).region for i in range(1, 121)]
    assert len(set(seen)) == 120


def test_index_of_inverts_enumerate(line, cantor, line_t1):
    assert all(line.index_of(line.enumerate(i).region) == i for i in range(1, 301))
    assert all(
        cantor.index_of(cantor.enumerate(i).region) == i for i in range(1, 501)
    )
    assert all(
        line_t1.index_of(line_t1.enumerate(i).region) == i for i in range(1, 101)
    )


def test_cantor_index_of_with_an_injected_prefix():
    # the injected words also occur in the canonical order, so index_of
    # must skip them there (the default SpaceAdapter._canonical_at_most)
    words = [cantor_region([w]) for w in ("1", "01", "0110")]
    cantor = make_adapter("cantor", injected=words)
    assert all(
        cantor.index_of(cantor.enumerate(k).region) == k for k in range(1, 301)
    )


def test_index_of_known_positions(line):
    assert line.index_of(interval(0, 1)) == 1
    assert line.index_of(interval(1, 2)) == 2
    assert line.index_of(interval(0, 2)) == 48


def test_rank_bound_caps_first_appearance(line):
    # completeness interleaving admits every region by slot 16 * rank
    for region in (interval(0, 1), interval(1, 2), interval(0, 2)):
        assert line.index_of(region) <= 16 * line._stream.rank_bound(region)
    assert line._stream.rank_bound(interval(0, 1)) == 1
    assert line._stream.rank_bound(interval(1, 2)) == 2
    assert line._stream.rank_bound(interval(0, 2)) == 6


# -- classes from a noted stage ----------------------------------------------

# emitting slot 29 opens a pack that reads the classes of the first 28
# emissions; the pack before it read them at 10
READ_AT = 28


def _stage_over(adapter, handles):
    builder = StageBuilder(adapter)
    for h in handles:
        builder.insert(h)
    return builder.snapshot()


@pytest.mark.parametrize(
    "case",
    ["doctored region", "wrong index", "short stage", "injected", "other adapter"],
)
def test_line_stream_ignores_a_stage_of_other_emissions(case):
    """A noted stage is read only if it inserted exactly the emissions made
    so far; otherwise the stream refines its own classes, and emits what a
    bare adapter emits."""
    bare = make_adapter("rational-line")
    expected = [bare.enumerate(k).region for k in range(1, 201)]
    injected = (interval(0, 1),) if case == "injected" else ()
    line = make_adapter("rational-line", injected=injected)
    handles = [line.enumerate(k) for k in range(1, READ_AT + 1)]
    assert len(line._stream) == READ_AT
    if case == "doctored region":
        handles[-1] = BasisHandle(READ_AT, expected[READ_AT])
    elif case == "wrong index":
        handles[-1] = BasisHandle(READ_AT + 1, expected[READ_AT])
    elif case == "short stage":
        handles.pop()
    else:
        # the right regions at the right indices: interval(0, 1) is also
        # the first canonical emission, but an injected index need not be
        # a stream slot, and another adapter's handles index its own stream
        assert [h.region for h in handles] == expected[:READ_AT]
    owner = bare if case == "other adapter" else line
    line.note_stage(_stage_over(owner, handles))
    assert line.enumerate(READ_AT + 1).region == expected[READ_AT]
    assert line._stream._refined == READ_AT
    assert [line.enumerate(k).region for k in range(1, 201)] == expected


def test_line_stream_reads_a_stage_of_its_emissions():
    line = make_adapter("rational-line")
    handles = [line.enumerate(k) for k in reversed(range(1, READ_AT + 1))]
    line.note_stage(_stage_over(line, handles))
    line.enumerate(READ_AT + 1)
    assert line._stream._refined == 10
    bare = make_adapter("rational-line")
    assert [line.enumerate(k).region for k in range(1, 201)] == [
        bare.enumerate(k).region for k in range(1, 201)
    ]


# -- injected prefixes --------------------------------------------------------


def test_injected_occupy_leading_indices(line_t1):
    assert line_t1.enumerate(1).region == interval(0, 2)
    assert line_t1.enumerate(2).region == interval(1, 3)
    assert line_t1.enumerate(3).region == interval(F(9, 4), F(11, 4))
    tail = [line_t1.enumerate(i).region for i in range(4, 10)]
    assert tail == [r for _, r in FIRST_SIXTEEN[:6]]


def test_injected_regions_not_repeated(line_t1):
    seen = [line_t1.enumerate(i).region for i in range(1, 61)]
    assert len(set(seen)) == 60
    assert seen.count(interval(0, 2)) == 1


def test_injection_shifts_canonical_indices(line_t1):
    assert line_t1.index_of(interval(0, 2)) == 1
    assert line_t1.index_of(interval(0, 1)) == 4
    assert line_t1.index_of(interval(1, 2)) == 5


def test_injected_duplicates_rejected():
    with pytest.raises(DuplicateInsertion):
        make_adapter("rational-line", injected=[interval(0, 1), interval(0, 1)])


def test_injected_must_be_basis_elements(line):
    two_parts = line.union(interval(0, 1), interval(2, 3))
    with pytest.raises(NotABasisElement):
        make_adapter("rational-line", injected=[two_parts])
    with pytest.raises(NotABasisElement):
        make_adapter("cantor", injected=[interval(0, 1)])


def test_with_injected_builds_fresh_adapter(line):
    clone = line.with_injected([interval(0, 2)])
    assert clone.enumerate(1).region == interval(0, 2)
    assert line.enumerate(1).region == interval(0, 1)


def test_unknown_adapter_name():
    with pytest.raises(NotABasisElement):
        make_adapter("moebius")


# -- scans --------------------------------------------------------------------


def test_finite_subcover_unconstrained(line):
    cover = line.finite_subcover((F(0), F(1)))
    assert [h.index for h in cover] == [7, 8]
    assert line.contains_point(cover[0].region, F(0))
    assert line.contains_point(cover[1].region, F(1))


def test_finite_subcover_constrained(line):
    within = interval(F(-1, 2), F(3, 2))
    cover = line.finite_subcover((F(0), F(1)), within)
    assert [h.index for h in cover] == [7, 8]
    for h in cover:
        assert line.subset(h.region, within)


def test_finite_subcover_empty_points(line):
    assert line.finite_subcover(()) == ()


def test_finite_subcover_infeasible(line):
    with pytest.raises(InfeasibleCover):
        line.finite_subcover((F(5),), interval(0, 1))


def test_finite_subcover_scan_cap(line):
    with pytest.raises(ScanExhausted):
        line.finite_subcover((F(1, 2),), interval(F(2, 5), F(3, 5)), scan_cap=3)


# -- union_all ------------------------------------------------------------------

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


@st.composite
def line_region_lists(draw):
    """Up to six regions whose endpoints come from one small pool, so parts
    share, touch and overlap endpoints, most of them float ties."""
    pool = draw(
        st.lists(st.sampled_from(ENDPOINTS), min_size=2, max_size=8, unique=True)
    )
    out = []
    for _ in range(draw(st.integers(0, 6))):
        parts = []
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            if a != b:
                parts.append((min(a, b), max(a, b)))
        out.append(line_region(parts))
    return out


@settings(derandomize=True, max_examples=300)
@given(line_region_lists())
def test_line_union_all_matches_line_region(regions):
    out = make_adapter("rational-line").union_all(regions)
    assert out.parts == line_region(p for r in regions for p in r.parts).parts


# -- point_hosts --------------------------------------------------------------


def _scanned_hosts(adapter, points, regions):
    return [
        [n for n, r in enumerate(regions) if adapter.contains_point(r, x)]
        for x in points
    ]


def test_point_hosts_count_overlapping_regions(line, cantor):
    regions = [interval(0, 2), interval(1, 3), line_region([(0, 1), (2, 3)])]
    points = [F(5, 2), F(3, 2), F(1), F(1, 2), F(4)]
    assert line.point_hosts(points, regions) == [[1, 2], [0, 1], [0], [0, 2], []]
    words = ["0110", "1", ""]
    regions = [cantor_region(["0"]), cantor_region([""]), cantor_region(["01"])]
    assert cantor.point_hosts(words, regions) == [[0, 1, 2], [1], [1]]


@settings(derandomize=True, max_examples=200)
@given(line_region_lists(), st.data())
def test_line_point_hosts_match_a_scan(regions, data):
    # the pool's points and the midpoints between them: ends of parts,
    # points inside them and points in no part, repeats included
    middles = tuple((a + b) / 2 for a, b in zip(ENDPOINTS, ENDPOINTS[1:]))
    points = data.draw(st.lists(st.sampled_from(ENDPOINTS + middles), max_size=12))
    line = make_adapter("rational-line")
    scanned = _scanned_hosts(line, points, regions)
    assert line.point_hosts(points, regions) == scanned


@settings(derandomize=True, max_examples=300)
@given(
    st.lists(
        st.lists(st.text("01", max_size=5), max_size=3).map(cantor_region),
        max_size=6,
    ),
    st.lists(st.text("01", max_size=8), max_size=12),
)
def test_cantor_point_hosts_match_a_scan(regions, words):
    cantor = make_adapter("cantor")
    assert cantor.point_hosts(words, regions) == _scanned_hosts(
        cantor, words, regions
    )


# -- parsing and formatting ---------------------------------------------------


def test_line_parse_and_format(line):
    assert line.parse_region("(0, 1)") == interval(0, 1)
    assert line.parse_region(" ( -1/2 , 3 ) ") == interval(F(-1, 2), 3)
    assert line.format_region(interval(F(1, 2), 1)) == "(1/2,1)"
    two = line.union(interval(2, F(9, 4)), interval(F(11, 4), 3))
    assert line.format_region(two) == "(2,9/4) u (11/4,3)"


@pytest.mark.parametrize("bad", ["[0,1]", "(1,1)", "(2,1)", "(a,b)", "0,1", "(1/0,2)"])
def test_line_parse_rejects(line, bad):
    with pytest.raises(NotABasisElement):
        line.parse_region(bad)


def test_cantor_parse_and_format(cantor):
    assert cantor.parse_region("01") == cantor_region(["01"])
    assert cantor.parse_region("-") == cantor_region([""])
    assert cantor.format_region(cantor_region(["01"])) == "01"
    assert cantor.format_region(cantor_region([""])) == "-"


@pytest.mark.parametrize("bad", ["012", "ab", "0 1", "*"])
def test_cantor_parse_rejects(cantor, bad):
    with pytest.raises(NotABasisElement):
        cantor.parse_region(bad)


@given(
    st.fractions(min_value=-8, max_value=8, max_denominator=64),
    st.fractions(min_value=-8, max_value=8, max_denominator=64),
)
def test_line_format_parse_roundtrip(a, b):
    line = make_adapter("rational-line")
    if a == b:
        return
    region = interval(min(a, b), max(a, b))
    assert line.parse_region(line.format_region(region)) == region


# -- boundaries ---------------------------------------------------------------


def test_line_boundary_is_endpoint_pair(line):
    assert line.boundary(line.enumerate(1)) == (F(0), F(1))


def test_cantor_boundary_is_empty(cantor):
    assert cantor.boundary(cantor.enumerate(2)) == ()


# -- probe points -------------------------------------------------------------


def test_line_probe_points(line):
    region = line_region([(0, 1), (2, 4)])
    assert line.probe_points(region, [interval(0, 5)]) == [
        F(1, 4), F(1, 2), F(3, 4), F(5, 2), F(3), F(7, 2),
    ]


def test_cantor_probe_points_pad_past_every_prefix(cantor):
    region = cantor_region(["0", "11"])
    # longest prefix in sight has 7 digits, so every word gets 15
    against = [cantor_region(["0010101"]), cantor_region(["110"])]
    assert cantor.probe_points(region, against) == [
        "0" + "0" * 14,
        "11" + "0" * 13,
    ]
    assert cantor.probe_points(cantor_region([]), []) == []


# -- enumeration helpers ------------------------------------------------------


def test_calkin_wilf_head():
    assert [cw_value(i) for i in range(1, 9)] == [
        F(1),
        F(1, 2),
        F(2),
        F(1, 3),
        F(3, 2),
        F(2, 3),
        F(3),
        F(1, 4),
    ]


def test_rational_head():
    assert [rational_value(i) for i in range(1, 9)] == [
        F(1),
        F(-1),
        F(1, 2),
        F(-1, 2),
        F(2),
        F(-2),
        F(1, 3),
        F(-1, 3),
    ]


def test_rank_value_roundtrips():
    assert all(cw_rank(cw_value(i)) == i for i in range(1, 200))
    assert all(rational_rank(rational_value(i)) == i for i in range(1, 200))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_cantor_pair_roundtrip(a, b):
    assert cantor_unpair(cantor_pair(a, b)) == (a, b)


def test_cantor_pair_base():
    assert cantor_pair(0, 0) == 0


def test_diagonal_walk_head():
    walk = diagonal_walk()
    assert [next(walk) for _ in range(7)] == [
        (1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3), (4, 1),
    ]

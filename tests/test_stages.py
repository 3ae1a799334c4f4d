"""Insertion engine: cells, signatures, splits, ring elements."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dyadicmeasure.adapters import BasisHandle, make_adapter
from dyadicmeasure.dyadic import DyadicMass
from dyadicmeasure.errors import (
    DuplicateInsertion,
    InvariantViolation,
    NotABasisElement,
    NotRepresentable,
    StageMismatch,
    UnknownCell,
)
from dyadicmeasure.masses import kappa
from dyadicmeasure.regions import (
    cantor_region,
    interval,
    line_contains_point,
    line_meet,
    line_meet_exterior,
    line_region,
    line_subset,
    line_union,
)
from dyadicmeasure.scheduling import build_schedule
from dyadicmeasure.stages import (
    RingElement,
    StageBuilder,
    _CantorCells,
    _LineCells,
    _line_entry,
    decompose,
    line_key,
    ring_difference,
    ring_union,
)

T1_INJECTED = [interval(0, 2), interval(1, 3), interval(F(9, 4), F(11, 4))]


@pytest.fixture(scope="module")
def t1():
    adapter = make_adapter("rational-line", injected=T1_INJECTED)
    builder = StageBuilder(adapter)
    stages = []
    for i in (1, 2, 3):
        builder.insert(adapter.enumerate(i))
        stages.append(builder.snapshot())
    return adapter, builder, stages


# -- stage progression --------------------------------------------------------


def test_root_stage(t1):
    adapter, _, stages = t1
    s1 = stages[0]
    assert s1.index == 1
    (cell,) = s1.cells.values()
    assert cell.region == interval(0, 2)
    assert cell.mass == DyadicMass.pow2(1)
    assert cell.kind == "root"
    assert cell.parent_id is None
    assert s1.total_mass == DyadicMass.pow2(1)
    assert s1.boundary_points == frozenset({F(0), F(2)})


def test_second_stage_split_and_grant(t1):
    adapter, _, stages = t1
    s2 = stages[1]
    by_region = {adapter.format_region(c.region): c for c in s2.cells.values()}
    assert set(by_region) == {"(1,2)", "(0,1)", "(2,3)"}
    assert by_region["(1,2)"].kind == "split"
    assert by_region["(1,2)"].parent_id == 1
    assert by_region["(0,1)"].parent_id == 1
    assert by_region["(2,3)"].kind == "new_region"
    assert by_region["(2,3)"].parent_id is None
    assert all(c.mass == DyadicMass.pow2(2) for c in s2.cells.values())
    assert s2.total_mass == DyadicMass(3, 2)
    assert s2.boundary_points == frozenset({F(0), F(1), F(2), F(3)})


def test_third_stage_cells(t1):
    adapter, _, stages = t1
    s3 = stages[2]
    got = {
        cid: (adapter.format_region(c.region), str(c.mass), c.parent_id, c.birth_stage)
        for cid, c in sorted(s3.cells.items())
    }
    assert got == {
        2: ("(1,2)", "1/2^2", 1, 2),
        3: ("(0,1)", "1/2^2", 1, 2),
        5: ("(9/4,11/4)", "1/2^3", 4, 3),
        6: ("(2,9/4) u (11/4,3)", "1/2^3", 4, 3),
    }
    assert s3.total_mass == DyadicMass(3, 2)
    assert s3.boundary_points == frozenset(
        {F(0), F(1), F(2), F(3), F(9, 4), F(11, 4)}
    )


def test_signatures(t1):
    _, _, stages = t1
    s3 = stages[2]
    assert s3.signature_of(2) == (True, True, False)
    assert s3.signature_of(3) == (True, False, False)
    assert s3.signature_of(5) == (False, True, True)
    assert s3.signature_of(6) == (False, True, False)
    assert s3.cell_for_signature((False, True, True)).cell_id == 5


def test_signature_lookup_errors(t1):
    _, _, stages = t1
    s3 = stages[2]
    with pytest.raises(UnknownCell):
        s3.signature_of(99)
    with pytest.raises(UnknownCell):
        s3.cell_for_signature((True, True, True))


def test_step_records(t1):
    _, builder, _ = t1
    rows = [
        (r.position, r.basis_index, str(r.grant) if r.grant else None, r.splits,
         str(r.total_after))
        for r in builder.records
    ]
    assert rows == [
        (1, 1, "1/2^1", 0, "1/2^1"),
        (2, 2, "1/2^2", 1, "3/2^2"),
        (3, 3, None, 1, "3/2^2"),
    ]


def test_refine_is_pure():
    fresh = make_adapter("rational-line", injected=T1_INJECTED)
    builder = StageBuilder(fresh)
    builder.insert(fresh.enumerate(1))
    s1 = builder.snapshot()
    # decomposing builds the stage's own cell index
    assert decompose(interval(0, 2), s1).open_cells == {1}
    builder.insert(fresh.enumerate(2))
    s2 = builder.snapshot()
    assert len(s1.cells) == 1
    assert len(s2.cells) == 3
    assert s2.index == 2
    assert decompose(interval(0, 2), s1).open_cells == {1}
    assert decompose(interval(0, 2), s2).open_cells == {2, 3}


def test_builder_continues_from_snapshot(t1):
    """A snapshot leaves its builder free to go on, and a set inserted
    twice is refused."""
    adapter, _, stages = t1
    builder = StageBuilder(adapter)
    *_, s2 = builder.run(adapter.enumerate(k) for k in (1, 2))
    builder.insert(adapter.enumerate(3))
    s3 = builder.snapshot()
    assert s2.cells == stages[1].cells
    assert s3.cells == stages[2].cells
    assert s3.total_mass == stages[2].total_mass
    with pytest.raises(DuplicateInsertion):
        builder.insert(adapter.enumerate(3))


@pytest.mark.parametrize(
    "name, first, region",
    [
        ("rational-line", [], line_region([(0, 1), (2, 3)])),
        ("rational-line", [], line_region([])),
        ("cantor", [], interval(0, 1)),
        ("cantor", [cantor_region(["0"]), cantor_region(["1"])],
         cantor_region(["00", "11"])),
    ],
)
def test_builder_refuses_a_region_that_is_not_one_basis_element(
    name, first, region
):
    """Only a basis element of the builder's own space is inserted: a
    union of two of them, an empty region or a region of another space is
    refused before it touches the cells."""
    builder = StageBuilder(make_adapter(name))
    for k, r in enumerate(first, 1):
        builder.insert(BasisHandle(k, r))
    before = builder.snapshot()
    with pytest.raises(NotABasisElement):
        builder.insert(BasisHandle(len(first) + 1, region))
    assert builder.count == len(first)
    assert builder.snapshot().cells == before.cells


@pytest.mark.parametrize(
    "name, first, last, fresh",
    [
        (
            "rational-line",
            [interval(0, 1), interval(2, 3), interval(5, 6)],
            interval(-1, 7),
            line_region([(-1, 0), (1, 2), (3, 5), (6, 7)]),
        ),
        (
            "cantor",
            [cantor_region(("00",)), cantor_region(("11",))],
            cantor_region(("",)),
            cantor_region(("01", "10")),
        ),
    ],
)
def test_builder_carves_across_disjoint_closures(name, first, last, fresh):
    """A set inserted over sets with disjoint closures is granted exactly
    the part outside all of them."""
    handles = [BasisHandle(k, r) for k, r in enumerate([*first, last], 1)]
    *_, end = StageBuilder(make_adapter(name)).run(handles)
    k = len(handles)
    grants = [
        c.region
        for c in end.cells.values()
        if c.kind == "new_region" and c.birth_stage == k
    ]
    assert grants == [fresh]


def test_deep_mass_audit_failure_is_an_invariant_violation(
    default_str_digit_limit,
):
    """The audit message prints masses past the int-to-str digit limit."""
    builder = StageBuilder(make_adapter("rational-line"))
    builder.insert(BasisHandle(1, interval(0, 1)))
    builder.total = DyadicMass((1 << 20000) - 1, 20000)
    with pytest.raises(InvariantViolation, match="mass audit failed"):
        builder.snapshot()


def test_builder_count(t1):
    _, builder, _ = t1
    assert builder.count == 3


# -- ring elements ------------------------------------------------------------


def test_decompose_known_regions(t1):
    adapter, _, stages = t1
    s3 = stages[2]
    d = decompose(interval(0, 2), s3)
    assert sorted(d.open_cells) == [2, 3]
    assert d.boundary_points == frozenset({F(1)})
    assert kappa(s3, d) == DyadicMass.pow2(1)
    d2 = decompose(interval(1, 3), s3)
    assert sorted(d2.open_cells) == [2, 5, 6]
    assert d2.boundary_points == frozenset({F(2), F(9, 4), F(11, 4)})
    assert kappa(s3, d2) == DyadicMass.pow2(1)


def test_decompose_rejects_unrepresentable(t1):
    _, _, stages = t1
    with pytest.raises(NotRepresentable):
        decompose(interval(0, F(1, 2)), stages[2])


@pytest.mark.parametrize(
    "parts",
    [
        [(F(1, 2), 2)],  # cell (0,1) straddles 1/2
        [(F(1, 2), 1)],  # ... and ends exactly at the right endpoint
        [(0, 1), (F(5, 2), 3)],  # cell (9/4,11/4) straddles 5/2
        [(F(29, 10), 4)],  # the last part, (11/4,3), straddles 29/10
    ],
)
def test_decompose_rejects_left_straddle(t1, parts):
    # the open gap a straddling part leaves after the left endpoint is
    # what rejects these regions
    _, _, stages = t1
    with pytest.raises(NotRepresentable, match="open gap"):
        decompose(line_region(parts), stages[2])


def decompose_by_brute_force(region, stage):
    """``(open cells, residue points)`` of region, or None.

    The cells meeting region must each lie inside it, and their union plus
    finitely many inserted boundary points must be region: region minus
    the closure of that union is empty, and the points left over are the
    ends of the union's parts that lie in region.
    """
    meeting = [
        cid
        for cid, cell in stage.cells.items()
        if not line_meet(cell.region, region).is_empty
    ]
    if not all(line_subset(stage.cells[cid].region, region) for cid in meeting):
        return None
    covered = stage.adapter.union_all(stage.cells[cid].region for cid in meeting)
    if not line_meet_exterior(region, covered).is_empty:
        return None
    residue = {
        x for part in covered.parts for x in part if line_contains_point(region, x)
    }
    if not residue <= stage.boundary_points:
        return None
    return frozenset(meeting), frozenset(residue)


_GRID = st.integers(-8, 16).map(lambda n: F(n, 8))


@st.composite
def line_stages_and_regions(draw):
    """A stage of up to 12 intervals on the grid of eighths in [-1, 2], and
    a nonempty region: a union of some of its cells (representable), such
    a union with a grid interval added or cut out, or 1-3 grid intervals
    on the grid of sixteenths.  Inserted intervals nest and overlap, so
    many cells have several parts."""
    intervals = draw(
        st.lists(
            st.tuples(_GRID, _GRID).filter(lambda ab: ab[0] < ab[1]),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    builder = StageBuilder(make_adapter("rational-line"))
    for k, (a, b) in enumerate(intervals, start=1):
        builder.insert(BasisHandle(k, interval(a, b)))
    stage = builder.snapshot()
    kind = draw(st.integers(0, 2))
    if kind < 2:
        chosen = draw(
            st.lists(st.sampled_from(sorted(stage.cells)), min_size=1, unique=True)
        )
        region = stage.adapter.union_all(stage.cells[c].region for c in chosen)
        if kind == 1:
            ends = st.tuples(_GRID, _GRID).filter(lambda ab: ab[0] != ab[1])
            a, b = sorted(draw(ends))
            edit = line_union if draw(st.booleans()) else line_meet_exterior
            region = edit(region, interval(a, b))
    else:
        fine = st.integers(-16, 32).map(lambda n: F(n, 16))
        pairs = draw(
            st.lists(
                st.tuples(fine, fine).filter(lambda ab: ab[0] < ab[1]),
                min_size=1,
                max_size=3,
            )
        )
        region = line_region(pairs)
    assume(not region.is_empty)
    return stage, region


@settings(derandomize=True, deadline=None, max_examples=400)
@given(line_stages_and_regions())
def test_line_decompose_matches_brute_force(case):
    """The keyed walk accepts exactly the regions the brute-force rule
    accepts, with the same cells and residue points."""
    stage, region = case
    expected = decompose_by_brute_force(region, stage)
    try:
        d = decompose(region, stage)
    except NotRepresentable:
        assert expected is None
    else:
        assert expected == (d.open_cells, d.boundary_points)


def test_line_decompose_rejects_a_cell_half_inside():
    # (0, 2) minus [1/2, 1] leaves the cell (0, 1/2) u (1, 2)
    builder = StageBuilder(make_adapter("rational-line"))
    builder.insert(BasisHandle(1, interval(0, 2)))
    builder.insert(BasisHandle(2, interval(F(1, 2), 1)))
    stage = builder.snapshot()
    with pytest.raises(NotRepresentable, match="pokes outside"):
        decompose(interval(0, F(1, 2)), stage)
    assert decompose(interval(0, 2), stage).boundary_points == {F(1, 2), F(1)}


def test_ring_union_and_difference(t1):
    _, _, stages = t1
    s3 = stages[2]
    d = decompose(interval(0, 2), s3)
    d2 = decompose(interval(1, 3), s3)
    u = ring_union(d, d2)
    assert sorted(u.open_cells) == [2, 3, 5, 6]
    assert u.boundary_points == frozenset({F(1), F(2), F(9, 4), F(11, 4)})
    assert kappa(s3, u) == DyadicMass(3, 2)
    diff = ring_difference(d2, d)
    assert sorted(diff.open_cells) == [5, 6]
    assert kappa(s3, diff) == DyadicMass.pow2(2)


def test_ring_ops_demand_matching_stage(t1):
    _, _, stages = t1
    d2 = decompose(interval(0, 2), stages[1])
    d3 = decompose(interval(0, 2), stages[2])
    with pytest.raises(StageMismatch):
        ring_union(d2, d3)
    with pytest.raises(StageMismatch):
        ring_difference(d2, d3)


def test_ring_element_views(t1):
    _, _, stages = t1
    s3 = stages[2]
    d = decompose(interval(0, 2), s3)
    assert d.open_part(s3) == frozenset({(True, True, False), (True, False, False)})
    assert d.open_region(s3) == stages[2].adapter.union(
        interval(0, 1), interval(1, 2)
    )
    assert not d.is_empty
    empty = RingElement(s3.index, frozenset(), frozenset())
    assert empty.is_empty


def test_locate_host(t1):
    _, builder, _ = t1
    assert builder.locate_host(interval(F(7, 3), F(5, 2))) == 5
    assert builder.locate_host(interval(F(1, 4), F(1, 2))) == 3
    # closure containment must be strict
    assert builder.locate_host(interval(F(9, 4), F(5, 2))) is None
    assert builder.locate_host(interval(0, 3)) is None


# -- cantor space -------------------------------------------------------------


def test_cantor_three_stages():
    c = make_adapter("cantor")
    builder = StageBuilder(c)
    for i in (1, 2, 3):
        builder.insert(c.enumerate(i))
    s3 = builder.snapshot()
    got = {
        cid: (c.format_region(x.region), str(x.mass), x.kind)
        for cid, x in sorted(s3.cells.items())
    }
    # splitting the root grants nothing; inserting '1' only persists
    assert got == {2: ("0", "1/2^2", "split"), 3: ("1", "1/2^2", "split")}
    assert s3.total_mass == DyadicMass.pow2(1)
    assert s3.boundary_points == frozenset()
    rows = [
        (r.position, str(r.grant) if r.grant else None, r.splits)
        for r in builder.records
    ]
    assert rows == [(1, "1/2^1", 0), (2, None, 1), (3, None, 0)]
    assert s3.signature_of(2) == (True, True, False)
    assert s3.signature_of(3) == (True, False, True)


def _cantor_two_cells():
    """Stage 2 after inserting the whole space, then 00."""
    c = make_adapter(
        "cantor", injected=[cantor_region([""]), cantor_region(["00"])]
    )
    builder = StageBuilder(c)
    for i in (1, 2):
        builder.insert(c.enumerate(i))
    assert {cid: x.region.prefixes for cid, x in builder.cells.items()} == {
        2: ("00",),
        3: ("01", "1"),
    }
    return builder


def test_locate_host_cantor():
    host = _cantor_two_cells().locate_host
    assert host(cantor_region(["1"])) == 3  # one of the cell's prefixes
    assert host(cantor_region(["10"])) == 3
    assert host(cantor_region(["000"])) == 2
    assert host(cantor_region(["00"])) is None  # the whole cell
    assert host(cantor_region(["0"])) is None  # meets both cells


def test_locate_host_cantor_skips_sibling_below():
    # keys 00 and 1: the greatest key below 01 is 00, which is no prefix
    c = make_adapter(
        "cantor", injected=[cantor_region(["00"]), cantor_region(["1"])]
    )
    builder = StageBuilder(c)
    for i in (1, 2):
        builder.insert(c.enumerate(i))
    assert {cid: x.region.prefixes for cid, x in builder.cells.items()} == {
        1: ("00",),
        2: ("1",),
    }
    assert builder.locate_host(cantor_region(["01"])) is None
    assert builder.locate_host(cantor_region(["011"])) is None
    assert builder.locate_host(cantor_region(["001"])) == 1
    assert builder.locate_host(cantor_region(["10"])) == 2


@st.composite
def cantor_cells(draw):
    """Disjoint cells of up to three cylinders each, from an antichain of
    random words, and probe words around them."""
    words = draw(st.lists(st.text(alphabet="01", max_size=6), max_size=14))
    keys = sorted(
        {w for w in words if not any(w != u and w.startswith(u) for u in words)}
    )
    cells = {}
    for n, w in enumerate(keys):
        cid = draw(st.integers(1, max(1, (n + 2) // 3)))
        cells.setdefault(cid, []).append(w)
    probes = draw(st.lists(st.text(alphabet="01", max_size=8), max_size=10))
    return {cid: cantor_region(ws) for cid, ws in cells.items()}, probes


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cantor_cells())
def test_cantor_holder_and_under_match_a_key_scan(case):
    regions, probes = case
    index = _CantorCells(regions)
    keys = {p: cid for cid, region in regions.items() for p in region.prefixes}
    for w in probes + [p + t for p in keys for t in ("", "0", "1")] + [""]:
        holders = [cid for p, cid in keys.items() if w.startswith(p)]
        assert index._holder(w) == (holders[0] if holders else None)
        assert index._under(w) == sorted(p for p in keys if p.startswith(w))


def test_decompose_cantor():
    stage = _cantor_two_cells().snapshot()
    assert decompose(cantor_region(["00"]), stage).open_cells == {2}
    assert decompose(cantor_region(["01", "1"]), stage).open_cells == {3}
    assert decompose(cantor_region([""]), stage).open_cells == {2, 3}
    for words in (["000"], ["1"], ["0"]):
        # inside one cell, one of a cell's two prefixes, across both cells
        with pytest.raises(NotRepresentable):
            decompose(cantor_region(words), stage)


def test_decompose_refuses_a_cantor_region_on_a_line_stage(t1):
    _, _, stages = t1
    with pytest.raises(NotRepresentable, match="not a line region.*stage 3"):
        decompose(cantor_region(["0"]), stages[2])


def test_decompose_refuses_a_line_region_on_a_cantor_stage():
    stage = _cantor_two_cells().snapshot()
    with pytest.raises(NotRepresentable, match="not a Cantor region.*stage 2"):
        decompose(interval(0, 1), stage)


def test_decompose_refuses_an_empty_cantor_region_on_a_line_stage(t1):
    _, _, stages = t1
    with pytest.raises(NotRepresentable, match="not a line region.*stage 3"):
        decompose(cantor_region([]), stages[2])


def test_decompose_refuses_an_empty_line_region_on_a_cantor_stage():
    stage = _cantor_two_cells().snapshot()
    with pytest.raises(NotRepresentable, match="not a Cantor region.*stage 2"):
        decompose(line_region([]), stage)


def test_decompose_of_an_empty_region_of_the_stage_space_is_empty(t1):
    _, _, stages = t1
    for region, stage in (
        (line_region([]), stages[2]),
        (cantor_region([]), _cantor_two_cells().snapshot()),
    ):
        element = decompose(region, stage)
        assert element.is_empty and element.stage_index == stage.index


# -- order invariants ---------------------------------------------------------


def _line_prefix_regions(n):
    base = make_adapter("rational-line")
    return [base.enumerate(i).region for i in range(1, n + 1)]


@settings(max_examples=25, deadline=None)
@given(st.permutations(tuple(range(6))))
def test_insertion_order_keeps_stage_sound(order):
    regions = _line_prefix_regions(6)
    shuffled = [regions[i] for i in order]
    adapter = make_adapter("rational-line", injected=shuffled)
    builder = StageBuilder(adapter)
    for i in range(1, 7):
        builder.insert(adapter.enumerate(i))
        stage = builder.snapshot()
        k = stage.index
        # conservation: totals stay under 1 - 2^-k
        assert stage.total_mass.as_fraction() <= 1 - F(1, 2**k)
        assert all(not c.mass.is_zero for c in stage.cells.values())
        cells = list(stage.cells.values())
        for a in range(len(cells)):
            for b in range(a + 1, len(cells)):
                assert adapter.meet(cells[a].region, cells[b].region).is_empty
        # signatures are a bijection onto cells
        sigs = {stage.signature_of(cid) for cid in stage.cells}
        assert len(sigs) == len(stage.cells)


# -- the exact key of the line index ------------------------------------------


def _key_probe_values() -> list[F]:
    """Distinct rationals that crowd the places floats cannot separate."""
    values = {F(0), F(1), F(-1, 3), F(1, 3), F(2, 3)}
    # straddler ends of every walk position a line schedule reaches
    for p in range(1, 16):
        d = F(1, 4 ** (p * p))
        for t in (0, 1):
            values.update((t - d, t + d, t - 3 * d / 4, t + d / 4))
    # subnormals and below next to 0, the same offsets next to 1
    for k in (1022, 1060, 1074, 1075, 1076, 1100, 1200):
        for t in (0, 1):
            values.update((t - F(1, 2**k), t + F(1, 2**k), t + F(3, 2 ** (k + 1))))
    # non-dyadics, and offsets beyond the reach of the error term
    for k in (60, 110, 200):
        values.update((F(1, 3) + F(1, 2**k), F(1, 3) - F(1, 2**k)))
        values.update((1 + F(1, 2**60) + F(1, 2**k), 1 + F(1, 2**60) - F(1, 2**k)))
    return sorted(values)


def test_line_key_sorts_like_the_values():
    values = _key_probe_values()
    keys = [line_key(x) for x in values]
    # strictly increasing: the order is exact and equal keys only come
    # from equal values
    assert all(k < nxt for k, nxt in zip(keys, keys[1:]))
    for x, (h, e, same) in zip(values, keys):
        assert same is x
        assert h == float(x)
        assert e == float(x - F(h))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from((0, 1, F(1, 3))),
            st.integers(-3, 3),
            st.integers(1, 1200),
            st.integers(-3, 3),
            st.integers(0, 200),
        ),
        min_size=2,
        max_size=12,
    )
)
def test_line_key_compares_like_the_values(terms):
    """t + u 2**-k + v 2**-(k+m): near ties in the first float, the second, or both."""
    values = [t + F(u, 2**k) + F(v, 2 ** (k + m)) for t, u, k, v, m in terms]
    for x in values:
        for y in values:
            assert (line_key(x) < line_key(y)) == (x < y)
            assert (line_key(x) == line_key(y)) == (x == y)


def test_line_depth4_build_comparison_budget(monkeypatch):
    """The line index compares keys, and a Fraction only on a key tie.

    A depth-4 line build made 109,747 Fraction comparisons when the index
    compared the rationals themselves, with a float only as a first guard;
    the budget is a fifth of that.
    """
    calls = 0
    original = F._richcmp

    def counting(self, other, op):
        nonlocal calls
        calls += 1
        return original(self, other, op)

    monkeypatch.setattr(F, "_richcmp", counting)
    build_schedule(make_adapter("rational-line"), 4)
    assert calls <= 21_949


def test_line_depth4_build_refines_what_it_reads(monkeypatch):
    """A line build refines each insertion once.

    The schedule's own index refines its 1,526 insertions.  Every pack of
    the (4,1)...(1,4) walk reads its classes from the block-boundary stage
    the schedule has just noted, so the stream's index refines nothing.
    """
    calls = 0
    original = _LineCells.refine

    def counting(self, region):
        nonlocal calls
        calls += 1
        return original(self, region)

    monkeypatch.setattr(_LineCells, "refine", counting)
    adapter = make_adapter("rational-line")
    _, trace = build_schedule(adapter, 4)
    assert len(trace) == 1526
    assert adapter._stream._refined == 0
    assert calls == 1526


def test_line_depth4_build_refines_parts_in_place(monkeypatch):
    """A split cuts the parts that straddle the new interval's ends at
    those ends' keys, so it keys no endpoint, and the part list ends with
    one entry per part of each cell.

    A depth-4 line build keys the ends of each insertion and each hole,
    the holes' union and the class middles: 10,318 ``line_key`` calls,
    against 15,958 when a split removed and re-keyed every part of the
    cell it split.
    """
    calls = {"all": 0, "split": 0}
    in_split = False
    original_key = line_key
    original_split = _LineCells._split

    def counting_key(x):
        calls["all"] += 1
        calls["split"] += in_split
        return original_key(x)

    def counting_split(self, old, ka, kb):
        nonlocal in_split
        in_split = True
        try:
            return original_split(self, old, ka, kb)
        finally:
            in_split = False

    monkeypatch.setattr("dyadicmeasure.stages.line_key", counting_key)
    monkeypatch.setattr("dyadicmeasure.adapters.line_key", counting_key)
    monkeypatch.setattr(_LineCells, "_split", counting_split)
    adapter = make_adapter("rational-line")
    _, trace = build_schedule(adapter, 4)
    assert calls == {"all": 10_318, "split": 0}

    builder = StageBuilder(adapter)
    for handle in trace.stream:
        builder.insert(handle)
    expected = sorted(
        list(_line_entry(lo, hi, cid))
        for cid, cell in builder.cells.items()
        for lo, hi in cell.region.parts
    )
    assert builder._index._parts == expected


def test_line_depth4_stage_index_holds_only_the_part_list():
    """The final stage's index, built when decompose first needs it, holds
    the sorted part list that decompose walks and no per-cell entries,
    which only refinement reads."""
    _, trace = build_schedule(make_adapter("rational-line"), 4)
    stage = trace.final
    first = min(stage.cells)
    assert decompose(stage.cells[first].region, stage).open_cells == {first}
    expected = sorted(
        list(_line_entry(lo, hi, cid))
        for cid, cell in stage.cells.items()
        for lo, hi in cell.region.parts
    )
    assert stage._index._entries == {}
    assert stage._index._parts == expected
    assert stage._index._spans._blocks == []


def test_cantor_index_keeps_regions_and_one_dict():
    """The union of the inserted cylinders is the union of the cells, so
    neither a builder's index nor a stage's keeps it as a region."""
    _, trace = build_schedule(make_adapter("cantor"), 3)
    builder = StageBuilder(make_adapter("cantor"))
    stage = list(builder.run(trace.stream))[-1]
    decompose(cantor_region([""]), stage)
    for index in (builder._index, stage._index):
        assert set(vars(index)) == {"regions", "next_id", "_members"}


@pytest.mark.parametrize("sign", [1, -1])
def test_line_locate_host_decides_float_ties_exactly(sign):
    """x and y share both floats of their keys, so only the exact term of
    the key tells whether a hole ending at x or y fits inside the cell."""
    x = 1 + F(1, 2**600)
    y = x + F(1, 2**700)
    assert line_key(x)[:2] == line_key(y)[:2]
    builder = StageBuilder(make_adapter("rational-line"))
    if sign > 0:
        builder.insert(BasisHandle(1, interval(0, y)))
        fits, touches = interval(F(1, 2), x), interval(F(1, 2), y)
    else:
        # the mirror image: the tie sits at the left end of the cell
        builder.insert(BasisHandle(1, interval(-y, 0)))
        fits, touches = interval(-x, F(-1, 2)), interval(-y, F(-1, 2))
    (cell,) = builder.cells
    assert builder.locate_host(fits) == cell
    assert builder.locate_host(touches) is None

"""Differential oracle for the refinement step of the cell index.

``StageBuilder.insert`` asks the cell index of its space to refine its
cells by the new set: on the line two bisects of the cell parts at the
ends of the new interval and a stabbing query on the spans of multi-part
cells find the cells it splits, on Cantor space a walk over the ancestors
and one range of the descendants of the new cylinder.  The oracle here
refines by brute force: it checks every cell with ``meet`` and
``meet_exterior``, so a cell splits exactly when both are nonempty, and
it carves the fresh part as the new set minus the closure of every
earlier one, one ``meet_exterior`` at a time.  Before each insertion the
index's candidate cells must equal the oracle's on both spaces; after it,
the index's regions must equal the oracle's, id for id, and the builder's
cells must carry them with the split cells as parents.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadicmeasure import stages
from dyadicmeasure.adapters import BasisHandle, make_adapter
from dyadicmeasure.regions import cantor_region, interval
from dyadicmeasure.stages import StageBuilder

ORACLE = settings(derandomize=True, deadline=None, max_examples=30)


# t +- 2**-k for t in {0, 1} and k up to 600, some nudged again.  Next to 1
# these tie in float with 1 and with each other past k = 53, so the error
# term of the key decides; a nudge 54 or more bits further down ties the
# error term too, so the exact comparison decides.  Few exponents, so that
# values share them.
NEAR_TIES = tuple(
    t + s * (1 + nudge) * Fraction(1, 2**k)
    for k in (1, 2, 30, 52, 53, 54, 60, 107, 200, 450, 600)
    for t in (0, 1)
    for s in (-1, 1)
    for nudge in (0, Fraction(1, 2**54), Fraction(-1, 2**60), Fraction(1, 2**120))
)


@st.composite
def line_sequences(draw):
    """Up to 300 distinct intervals with endpoints of denominator 4..64.

    Half of the endpoints reuse an earlier one, so intervals share and
    touch endpoints; pairs of far-apart endpoints give wide intervals.  Half
    of the new endpoints sit a hair away from 0 or 1 (``NEAR_TIES``), where
    floats cannot tell them apart.
    """
    count = draw(st.integers(1, 300))
    used: list[Fraction] = []
    seen: set = set()
    out = []
    for _ in range(count):
        ends = []
        for _ in range(2):
            kind = draw(st.integers(0, 3))
            if used and kind < 2:
                ends.append(draw(st.sampled_from(used)))
            elif kind % 2:
                ends.append(draw(st.sampled_from(NEAR_TIES)))
            else:
                den = draw(st.integers(4, 64))
                ends.append(Fraction(draw(st.integers(-den, 2 * den)), den))
        a, b = sorted(ends)
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        used.extend((a, b))
        out.append(interval(a, b))
    return out


cantor_sequences = st.lists(
    st.text(alphabet="01", max_size=7).map(lambda w: cantor_region((w,))),
    min_size=1,
    max_size=120,
    unique=True,
)


def refine_by_oracle(adapter, cells: dict, inserted: list, region, next_id):
    """The oracle's cells after inserting region, and the ids it splits.

    Split cells get the next two ids, inside then outside, in ascending
    order of the old id; a nonempty fresh part gets the id after them.
    """
    refined = {}
    split = []
    for cid in sorted(cells):
        inside = adapter.meet(cells[cid], region)
        # a cell that misses region is its own outside piece
        if inside.is_empty or (
            outside := adapter.meet_exterior(cells[cid], region)
        ).is_empty:
            refined[cid] = cells[cid]
            continue
        split.append(cid)
        refined[next_id], refined[next_id + 1] = inside, outside
        next_id += 2
    fresh = region
    for earlier in inserted:
        if fresh.is_empty:
            break
        fresh = adapter.meet_exterior(fresh, earlier)
    if not fresh.is_empty:
        refined[next_id] = fresh
    return refined, split


def insert_against_oracle(adapter_name: str, regions) -> None:
    builder = StageBuilder(make_adapter(adapter_name))
    adapter = builder.adapter
    cells: dict = {}
    for k, region in enumerate(regions, start=1):
        first_new = builder._index.next_id
        cells, expected = refine_by_oracle(
            adapter, cells, regions[: k - 1], region, first_new
        )
        # the split loop gets no cell that persists
        assert builder._index.split_cells(region) == expected
        builder.insert(BasisHandle(k, region))
        assert builder._index.regions == cells
        assert {cid: c.region for cid, c in builder.cells.items()} == cells
        assert builder.records[-1].splits == len(expected)
        parents = [
            cell.parent_id
            for cid, cell in sorted(builder.cells.items())
            if cid >= first_new and cell.kind == "split"
        ]
        assert parents == [cid for cid in expected for _ in (0, 1)]


# (0,3) drilled by (1,2) leaves the two-part cell (0,1) u (2,3)
DONUT = [interval(0, 3), interval(1, 2)]


HAIR = Fraction(1, 2**60)


def hair_gap(x, y):
    """Closures [y, 2] then [0, x] for x < y a hair apart, then (0, 2).

    The closures must not merge, and the fresh part of (0, 2) is (x, y).
    """
    return [interval(y, 2), interval(0, x), interval(0, 2)]


def test_line_splits_match_oracle(monkeypatch):
    stabs = []
    original = stages._SpanIndex.stab

    def counting_stab(self, key):
        stabs.append(key)
        return original(self, key)

    monkeypatch.setattr(stages._SpanIndex, "stab", counting_stab)

    @ORACLE
    @given(line_sequences())
    @example(DONUT + [interval(Fraction(5, 4), Fraction(7, 4))])  # in the gap
    @example(DONUT + [interval(1, Fraction(3, 2))])  # in the gap, touching
    @example(DONUT + [interval(-1, Fraction(3, 2))])  # span holds b, not a
    @example(DONUT + [interval(-1, 3)])  # the donut ends at b
    @example(hair_gap(1, 1 + HAIR))  # x and y share their float
    @example(hair_gap(1 + HAIR, 1 + HAIR + HAIR**2))  # and its error term
    @example(  # a donut whose span passes a by a hair
        [interval(0, 1 + 2 * HAIR), interval(1, 1 + HAIR), interval(1 + HAIR / 2, 3)]
    )
    @example(  # a second donut starts at a
        DONUT + [interval(5, 8), interval(6, 7), interval(5, 9)]
    )
    def check(regions):
        insert_against_oracle("rational-line", regions)

    check()
    # the span index answered some of the insertions
    assert stabs


def cylinders(*words):
    return [cantor_region((w,)) for w in words]


@ORACLE
@given(cantor_sequences)
@example(cylinders("", "0", "1"))  # "1" is a whole cell: no split
@example(cylinders("", "00", "1"))  # "1" is one of two prefixes of a cell
@example(cylinders("1", "0", "10"))  # "10" lies inside the cell "1"
@example(cylinders("", "010", "0"))  # "0" holds a two-prefix cell
def test_cantor_splits_match_oracle(regions):
    insert_against_oracle("cantor", regions)


@ORACLE
@given(
    st.lists(
        st.tuples(st.integers(0, 400), st.integers(1, 60), st.booleans()),
        min_size=150,
        max_size=400,
    )
)
def test_span_index_stabs_like_brute_force(spans):
    """Enough spans to split blocks, then removals."""
    entries = []
    for cid, (lo, width, _) in enumerate(spans):
        lo, hi = Fraction(lo, 3), Fraction(lo + width, 3)
        entries.append(stages._line_entry(lo, hi, cid))
    index = stages._SpanIndex()
    for entry in entries:
        index.add(entry)
    kept = []
    for entry, (_, _, keep) in zip(entries, spans):
        if keep:
            kept.append(entry)
        else:
            index.remove(entry)
    for x in (Fraction(n, 6) for n in range(-1, 925, 5)):
        expected = sorted(e[6] for e in kept if e[2] < x < e[5])
        assert sorted(index.stab(stages.line_key(x))) == expected


def test_span_index_remove_of_a_missing_entry_raises_key_error():
    entry = stages._line_entry(Fraction(0), Fraction(1), 1)
    index = stages._SpanIndex()
    with pytest.raises(KeyError):
        index.remove(entry)
    index.add(entry)
    for lo in (-1, 1):  # before and after the one entry held
        with pytest.raises(KeyError):
            index.remove(stages._line_entry(Fraction(lo), Fraction(lo + 1), 2))
    index.remove(entry)
    with pytest.raises(KeyError):
        index.remove(entry)

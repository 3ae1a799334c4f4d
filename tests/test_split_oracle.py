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

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadicmeasure import stages
from dyadicmeasure.adapters import BasisHandle, make_adapter
from dyadicmeasure.regions import cantor_region, interval
from dyadicmeasure.stages import StageBuilder

ORACLE = settings(derandomize=True, deadline=None, max_examples=30)


@st.composite
def line_sequences(draw):
    """Up to 300 distinct intervals with endpoints of denominator 4..64.

    Half of the endpoints reuse an earlier one, so intervals share and
    touch endpoints; pairs of far-apart endpoints give wide intervals.
    """
    count = draw(st.integers(1, 300))
    used: list[Fraction] = []
    seen: set = set()
    out = []
    for _ in range(count):
        ends = []
        for _ in range(2):
            if used and draw(st.booleans()):
                ends.append(draw(st.sampled_from(used)))
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
        outside = adapter.meet_exterior(cells[cid], region)
        if inside.is_empty or outside.is_empty:
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


def test_line_splits_match_oracle(monkeypatch):
    stabs = []
    original = stages._SpanIndex.stab

    def counting_stab(self, x_f, x):
        stabs.append(x)
        return original(self, x_f, x)

    monkeypatch.setattr(stages._SpanIndex, "stab", counting_stab)

    @ORACLE
    @given(line_sequences())
    @example(DONUT + [interval(Fraction(5, 4), Fraction(7, 4))])  # in the gap
    @example(DONUT + [interval(1, Fraction(3, 2))])  # in the gap, touching
    @example(DONUT + [interval(-1, Fraction(3, 2))])  # span holds b, not a
    @example(DONUT + [interval(-1, 3)])  # the donut ends at b
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
        entries.append((float(lo), lo, float(hi), hi, cid))
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
        expected = sorted(cid for _, lo, _, hi, cid in kept if lo < x < hi)
        assert sorted(index.stab(float(x), x)) == expected

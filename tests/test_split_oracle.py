"""Differential oracle for the cells an insertion splits.

``StageBuilder.insert`` asks the cell index of its space for the cells
it splits: on the line two bisects of the cell parts at the ends of the
new interval and a stabbing query on the spans of multi-part cells, on
Cantor space a walk over the ancestors and one range of the descendants
of the new cylinder.  The oracle here checks every cell of the stage
with ``meet`` and ``meet_exterior``: a cell splits exactly when both are
nonempty.  Before each insertion the index's candidate cells must equal
the oracle's on both spaces; after it, the cells that disappeared must
be the oracle's, and their children must be numbered in ascending
parent order.
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


def split_by_oracle(builder: StageBuilder, region) -> list[int]:
    adapter = builder.adapter
    return sorted(
        cid
        for cid, cell in builder.cells.items()
        if not adapter.meet(cell.region, region).is_empty
        and not adapter.meet_exterior(cell.region, region).is_empty
    )


def insert_against_oracle(adapter_name: str, regions) -> None:
    builder = StageBuilder(make_adapter(adapter_name))
    for k, region in enumerate(regions, start=1):
        expected = split_by_oracle(builder, region)
        # the split loop gets no cell that persists
        assert builder._index.split_cells(region) == expected
        before = set(builder.cells)
        first_new = builder._next_id
        builder.insert(BasisHandle(k, region))
        assert sorted(before - set(builder.cells)) == expected
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

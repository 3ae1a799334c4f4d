"""Stateful differential test of the stage engine against a reference engine.

Hypothesis drives a ``StageBuilder`` with short random sequences of
insertions on each space, mixed with host lookups and decompositions.  The
reference engine beside it keeps every cell as an explicit region with an
exact ``Fraction`` mass, and refines by brute force: a cell splits exactly
when ``meet`` and ``meet_exterior`` of the new set are both nonempty, each
child gets half its parent's mass, and the new set minus the closure of
every earlier one, when nonempty, is a fresh cell of mass ``2**-k`` at
stage k.  After every step the builder must agree with it on the cells
(region, mass, kind, parent, birth), the step records, the snapshot's mass
audit and ``locate_host`` against a scan of every cell; on Cantor space also
on ``_holder``, ``_under`` and the words the host walk looks at.  ``decompose`` of unions of cells,
edited or not, must agree with a brute-force rule.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from dyadicmeasure import stages
from dyadicmeasure.adapters import BasisHandle, make_adapter
from dyadicmeasure.errors import NotRepresentable
from dyadicmeasure.regions import cantor_region, interval, line_contains_point
from dyadicmeasure.stages import StageBuilder, decompose

STATEFUL = settings(
    derandomize=True, deadline=None, max_examples=80, stateful_step_count=25
)

# Few values, so that intervals share and touch endpoints.  Next to 0 and 1
# the offsets 2**-k with k >= 53 tie in float with 0 or 1, and the nudges
# tie the float error term too, so only the exact part of the key decides.
LINE_POINTS = tuple(
    sorted(
        {Fraction(n, 4) for n in range(-2, 7)}
        | {
            t + s * (1 + nudge) * Fraction(1, 2**k)
            for k in (2, 53, 60, 600)
            for t in (0, 1)
            for s in (-1, 1)
            for nudge in (0, Fraction(1, 2**60))
        }
    )
)

line_intervals = (
    st.tuples(st.sampled_from(LINE_POINTS), st.sampled_from(LINE_POINTS))
    .filter(lambda ab: ab[0] != ab[1])
    .map(lambda ab: interval(*sorted(ab)))
)
cylinders = st.text(alphabet="01", max_size=6).map(lambda w: cantor_region((w,)))


class _RecordingDict(dict):
    """A dict that records every key it is asked about."""

    def __init__(self) -> None:
        super().__init__()
        self.asked: list = []

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)

    def __contains__(self, key) -> bool:
        self.asked.append(key)
        return super().__contains__(key)


class EngineMachine(RuleBasedStateMachine):
    """A builder and the reference engine, stepped together."""

    adapter_name = ""

    def __init__(self) -> None:
        super().__init__()
        self.builder = StageBuilder(make_adapter(self.adapter_name))
        self.adapter = self.builder.adapter
        # id -> (region, mass, kind, parent id, birth stage)
        self.cells: dict[int, tuple] = {}
        self.inserted: list = []
        # (position, basis index, grant, splits, total after)
        self.records: list[tuple] = []
        self.total = Fraction(0)
        self.next_id = 1

    def insert(self, region) -> None:
        if region in self.inserted:
            return  # a repeat raises DuplicateInsertion, tested elsewhere
        adapter = self.adapter
        k = len(self.inserted) + 1
        refined = {}
        splits = 0
        for cid in sorted(self.cells):
            cell = self.cells[cid]
            inside = adapter.meet(cell[0], region)
            outside = adapter.meet_exterior(cell[0], region)
            if inside.is_empty or outside.is_empty:
                refined[cid] = cell
                continue
            splits += 1
            for piece in (inside, outside):
                refined[self.next_id] = (piece, cell[1] / 2, "split", cid, k)
                self.next_id += 1
        fresh = region
        for earlier in self.inserted:
            fresh = adapter.meet_exterior(fresh, earlier)
        grant = None
        if not fresh.is_empty:
            grant = Fraction(1, 2**k)
            kind = "root" if k == 1 else "new_region"
            refined[self.next_id] = (fresh, grant, kind, None, k)
            self.next_id += 1
            self.total += grant
        self.cells = refined
        self.inserted.append(region)
        self.records.append((k, k, grant, splits, self.total))
        self.builder.insert(BasisHandle(k, region))

    def expected_host(self, probe) -> int | None:
        hosts = [
            cid
            for cid, cell in self.cells.items()
            if self.adapter.closure_strictly_inside(probe, cell[0])
        ]
        assert len(hosts) <= 1
        return hosts[0] if hosts else None

    def check_host(self, probe) -> None:
        assert self.builder.locate_host(probe) == self.expected_host(probe)

    def decompose_by_scan(self, region, boundary_points):
        """``(open cells, residue points)`` of region, or None."""
        adapter = self.adapter
        cells = {cid: cell[0] for cid, cell in self.cells.items()}
        meeting = [c for c, r in cells.items() if not adapter.meet(r, region).is_empty]
        if not all(adapter.subset(cells[c], region) for c in meeting):
            return None
        covered = adapter.union_all(cells[c] for c in meeting)
        if not adapter.meet_exterior(region, covered).is_empty:
            return None
        residue = set()
        if self.adapter_name == "rational-line":
            residue = {
                x
                for part in covered.parts
                for x in part
                if line_contains_point(region, x)
            }
        if not residue <= boundary_points:
            return None
        return frozenset(meeting), frozenset(residue)

    def check_decompose(self, region) -> None:
        if region.is_empty:
            return
        stage = self.builder.snapshot()
        expected = self.decompose_by_scan(region, stage.boundary_points)
        try:
            d = decompose(region, stage)
        except NotRepresentable:
            assert expected is None
        else:
            assert expected == (d.open_cells, d.boundary_points)

    @rule(data=st.data())
    def decompose_cells(self, data) -> None:
        """A union of some cells, which decomposes; its first piece (part or
        cylinder), which does not when that piece's cell has others; or
        the union with a random set added or cut out, which may not."""
        if not self.cells:
            return
        chosen = data.draw(
            st.lists(st.sampled_from(sorted(self.cells)), min_size=1, unique=True)
        )
        region = self.adapter.union_all(self.cells[c][0] for c in chosen)
        edit = data.draw(st.sampled_from((None, "first", "union", "meet_exterior")))
        if edit == "first":
            region = self.first_piece(region)
        elif edit is not None:
            other = data.draw(self.basis_sets)
            region = getattr(self.adapter, edit)(region, other)
        self.check_decompose(region)

    @invariant()
    def agrees_with_reference(self) -> None:
        builder = self.builder
        assert {
            cid: (
                c.region,
                c.mass.as_fraction(),
                c.kind,
                c.parent_id,
                c.birth_stage,
            )
            for cid, c in builder.cells.items()
        } == self.cells
        assert builder._index.regions == {
            cid: cell[0] for cid, cell in self.cells.items()
        }
        assert [
            (
                r.position,
                r.basis_index,
                None if r.grant is None else r.grant.as_fraction(),
                r.splits,
                r.total_after.as_fraction(),
            )
            for r in builder.records
        ] == self.records
        stage = builder.snapshot()  # raises if the mass audit fails
        assert stage.cells == builder.cells
        assert stage.total_mass.as_fraction() == self.total


class LineMachine(EngineMachine):
    adapter_name = "rational-line"
    basis_sets = line_intervals

    def first_piece(self, region):
        return interval(*region.parts[0])

    @rule(region=line_intervals)
    def insert_interval(self, region) -> None:
        self.insert(region)

    @rule(probe=line_intervals)
    def host_of(self, probe) -> None:
        self.check_host(probe)

    @invariant()
    def hosts_between_endpoints(self) -> None:
        """Every gap between consecutive endpoints in use lies in at most
        one cell part; its middle half has that cell as host, and its
        halves, which touch an end, have none."""
        points = sorted({x for r in self.inserted for x in r.parts[0]})
        for u, v in zip(points, points[1:]):
            w = (u + v) / 2
            self.check_host(interval((u + w) / 2, (w + v) / 2))
            self.check_host(interval(u, w))
            self.check_host(interval(w, v))


class CantorMachine(EngineMachine):
    adapter_name = "cantor"
    basis_sets = cylinders

    def first_piece(self, region):
        return cantor_region(region.prefixes[:1])

    def __init__(self) -> None:
        super().__init__()
        index = self.builder._index
        index._members = _RecordingDict()

    @rule(region=cylinders)
    def insert_cylinder(self, region) -> None:
        self.insert(region)

    @rule(probe=cylinders)
    def host_of(self, probe) -> None:
        self.check_host(probe)

    @invariant()
    def host_walk_stops_early(self) -> None:
        """``_holder`` and ``_under`` agree with a scan of the keys, and the
        host walk looks at no word above the deepest prefix of w that is a
        key or lies above one."""
        index = self.builder._index
        keys = {p: cid for cid, cell in self.cells.items() for p in cell[0].prefixes}
        words = {"", "0", "1", "00", "01", "10", "11"}
        for p in keys:
            words.update((p, p[:-1], p + "0", p + "1"))
        for w in sorted(words):
            index._members.asked.clear()
            holder = [cid for p, cid in keys.items() if w.startswith(p)]
            assert index._holder(w) == (holder[0] if holder else None)
            deepest = max(
                (k for k in range(len(w) + 1) if any(p.startswith(w[:k]) for p in keys)),
                default=0,
            )
            asked = set(index._members.asked)
            assert asked == {w[:k] for k in range(deepest, len(w) + 1)}
            assert index._under(w) == sorted(p for p in keys if p.startswith(w))
            self.check_host(cantor_region((w,)))


TestLineEngine = LineMachine.TestCase
TestLineEngine.settings = STATEFUL
TestCantorEngine = CantorMachine.TestCase
TestCantorEngine.settings = STATEFUL


def test_line_engine_in_blocks_of_two(monkeypatch):
    """The line machine again, with the part list and the span index in
    blocks that split at their fifth entry, so most reads cross blocks."""
    monkeypatch.setattr(stages._Blocks, "_LOAD", 2)
    run_state_machine_as_test(LineMachine, settings=STATEFUL)

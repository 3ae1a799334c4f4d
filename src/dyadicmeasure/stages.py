"""Stage engine: cells, insertion, decomposition and the finite set ring.

A stage is the state after inserting basis elements W_1..W_k.  Its cells
are the nonempty signature classes: each cell records, implicitly, which
inserted sets it lies inside and which it lies exterior to.  Cells are kept
as explicit regions; a cell's signature is recomputed on demand because for
signature classes membership and nonempty intersection coincide.

Mass bookkeeping follows the halving rules exactly:

* the first inserted set gets mass 1/2;
* a cell split by a later insertion passes half its mass to each child;
* untouched cells keep their mass;
* the part of the new set outside the closures of everything inserted
  before it, when nonempty, becomes a fresh cell with mass 2**-k at stage k.

``StageBuilder`` is the mutable engine used for long runs; ``refine`` and
``init_stage`` wrap it in a pure interface that returns immutable ``Stage``
snapshots.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from sortedcontainers import SortedList

from .adapters import BasisHandle, BoundaryDescriptor, SpaceAdapter
from .dyadic import DyadicMass, ZERO, dyadic_sum
from .errors import (
    DuplicateInsertion,
    EmptyStage,
    InvariantViolation,
    NotRepresentable,
    StageMismatch,
    UnknownCell,
)
from .regions import (
    CantorRegion,
    LineRegion,
    cantor_minus,
    cantor_region,
    line_minus_closure,
    line_subset,
)

Signature = tuple[bool, ...]


@dataclass(frozen=True)
class Cell:
    """One signature class: a region with its dyadic mass and provenance.

    ``kind`` is how the cell was born: "root" (the first insertion),
    "split" (child of a refined cell, ``parent_id`` set) or "new_region"
    (mass grant at ``birth_stage``).  A cell that persists through later
    insertions is represented by the same object at every stage.
    """

    cell_id: int
    region: object
    mass: DyadicMass
    kind: str
    parent_id: int | None
    birth_stage: int


@dataclass(frozen=True)
class Classification:
    """Outcome of inserting v into a single cell."""

    kind: str  # "persist_exterior" | "persist_inside" | "split"
    in_region: object | None = None
    ext_region: object | None = None


@dataclass(frozen=True)
class StepRecord:
    """Exact mass accounting for one insertion, kept for long traces."""

    position: int
    basis_index: int
    grant: DyadicMass | None
    splits: int
    total_after: DyadicMass


class Stage:
    """Immutable snapshot after k insertions."""

    __slots__ = (
        "index",
        "inserted",
        "cells",
        "boundary_points",
        "boundary_descriptors",
        "total_mass",
        "adapter",
        "_sig_cache",
        "_sig_map",
        "_line_parts",
        "_cantor_members",
    )

    def __init__(
        self,
        index: int,
        inserted: tuple[BasisHandle, ...],
        cells: dict[int, Cell],
        boundary_points: frozenset,
        boundary_descriptors: tuple[BoundaryDescriptor, ...],
        total_mass: DyadicMass,
        adapter: SpaceAdapter,
    ) -> None:
        self.index = index
        self.inserted = inserted
        self.cells = cells
        self.boundary_points = boundary_points
        self.boundary_descriptors = boundary_descriptors
        self.total_mass = total_mass
        self.adapter = adapter
        self._sig_cache: dict[int, Signature] = {}
        self._sig_map: dict[Signature, int] | None = None
        self._line_parts = None
        self._cantor_members = None

    def __repr__(self) -> str:
        return (
            f"Stage(k={self.index}, cells={len(self.cells)}, "
            f"total={self.total_mass})"
        )

    def signature_of(self, cell_id: int) -> Signature:
        """IN/EXT flags of a cell against W_1..W_k.

        Cells are signature classes, so nonempty intersection with W_m is
        the same as containment in W_m; flags are recomputed from regions
        instead of being stored per stage.
        """
        cached = self._sig_cache.get(cell_id)
        if cached is not None:
            return cached
        cell = self.cells.get(cell_id)
        if cell is None:
            raise UnknownCell(f"no cell {cell_id} at stage {self.index}")
        sig = tuple(
            not self.adapter.meet(cell.region, h.region).is_empty
            for h in self.inserted
        )
        self._sig_cache[cell_id] = sig
        return sig

    def cell_for_signature(self, signature: Signature) -> Cell:
        if self._sig_map is None:
            self._sig_map = {
                self.signature_of(cid): cid for cid in self.cells
            }
        cid = self._sig_map.get(tuple(signature))
        if cid is None:
            raise UnknownCell(
                f"no cell with signature {signature!r} at stage {self.index}"
            )
        return self.cells[cid]

    # geometric indexes, built lazily for decomposition ------------------

    def _parts_index(self) -> SortedList:
        if self._line_parts is None:
            idx = SortedList()
            for cid, cell in self.cells.items():
                for lo, hi in cell.region.parts:
                    idx.add((lo, hi, cid))
            self._line_parts = idx
        return self._line_parts

    def _members_index(self) -> dict[str, int]:
        if self._cantor_members is None:
            self._cantor_members = {
                p: cid
                for cid, cell in self.cells.items()
                for p in cell.region.prefixes
            }
        return self._cantor_members


@dataclass(frozen=True)
class RingElement:
    """A finite-stage ring member: whole cells plus inserted boundary points.

    Only ids are stored; regions and signatures are recovered through the
    owning stage.  Stage boundary points never lie inside any cell, so the
    two components never interact under set operations.
    """

    stage_index: int
    open_cells: frozenset[int]
    boundary_points: frozenset

    def open_part(self, stage: Stage) -> frozenset[Signature]:
        _check_stage(self, stage)
        return frozenset(stage.signature_of(cid) for cid in self.open_cells)

    def open_region(self, stage: Stage) -> object:
        _check_stage(self, stage)
        return stage.adapter.union_all(
            stage.cells[cid].region for cid in sorted(self.open_cells)
        )

    @property
    def is_empty(self) -> bool:
        return not self.open_cells and not self.boundary_points


def _check_stage(d: RingElement, stage: Stage) -> None:
    if d.stage_index != stage.index:
        raise StageMismatch(
            f"ring element of stage {d.stage_index} used at stage {stage.index}"
        )
    for cid in d.open_cells:
        if cid not in stage.cells:
            raise UnknownCell(f"cell {cid} is not a cell of stage {stage.index}")


def ring_union(d1: RingElement, d2: RingElement) -> RingElement:
    if d1.stage_index != d2.stage_index:
        raise StageMismatch(
            f"cannot combine stages {d1.stage_index} and {d2.stage_index}"
        )
    return RingElement(
        d1.stage_index,
        d1.open_cells | d2.open_cells,
        d1.boundary_points | d2.boundary_points,
    )


def ring_difference(d1: RingElement, d2: RingElement) -> RingElement:
    if d1.stage_index != d2.stage_index:
        raise StageMismatch(
            f"cannot combine stages {d1.stage_index} and {d2.stage_index}"
        )
    return RingElement(
        d1.stage_index,
        d1.open_cells - d2.open_cells,
        d1.boundary_points - d2.boundary_points,
    )


class _SpanIndex:
    """Stabbing index over the spans of multi-part line cells.

    A span runs from a cell's first ``lo`` to its last ``hi``.  Entries
    ``(lo_float, lo, hi_float, hi, cell_id)`` sit sorted in blocks of
    bounded size, and each block caches the largest float ``hi`` it holds,
    so a query only opens blocks that hold a span reaching past the point.
    """

    _LOAD = 64

    def __init__(self) -> None:
        self._blocks: list[list[tuple]] = []
        self._firsts: list[tuple] = []
        self._max_hi: list[float] = []

    def add(self, entry: tuple) -> None:
        if not self._blocks:
            self._blocks.append([entry])
            self._firsts.append(entry)
            self._max_hi.append(entry[2])
            return
        i = max(bisect_right(self._firsts, entry) - 1, 0)
        block = self._blocks[i]
        insort(block, entry)
        self._firsts[i] = block[0]
        if entry[2] > self._max_hi[i]:
            self._max_hi[i] = entry[2]
        if len(block) > 2 * self._LOAD:
            tail = block[self._LOAD:]
            del block[self._LOAD:]
            self._blocks.insert(i + 1, tail)
            self._firsts.insert(i + 1, tail[0])
            self._max_hi[i] = max(e[2] for e in block)
            self._max_hi.insert(i + 1, max(e[2] for e in tail))

    def remove(self, entry: tuple) -> None:
        i = bisect_right(self._firsts, entry) - 1
        block = self._blocks[i]
        del block[bisect_left(block, entry)]
        if not block:
            del self._blocks[i], self._firsts[i], self._max_hi[i]
            return
        self._firsts[i] = block[0]
        if entry[2] == self._max_hi[i]:
            self._max_hi[i] = max(e[2] for e in block)

    def stab(self, x_f: float, x: Fraction) -> list[int]:
        """Ids of cells whose span strictly contains x."""
        key = (x_f, x)
        out = []
        for i in range(bisect_left(self._firsts, key)):
            if self._max_hi[i] < x_f:
                continue
            for lo_f, lo, hi_f, hi, cid in self._blocks[i]:
                if lo_f > x_f or (lo_f == x_f and lo >= x):
                    break
                if hi_f > x_f or (hi_f == x_f and hi > x):
                    out.append(cid)
        return out


def classify(cell: Cell, v: BasisHandle, adapter: SpaceAdapter) -> Classification:
    """How one insertion acts on one cell."""
    in_region = adapter.meet(cell.region, v.region)
    if in_region.is_empty:
        return Classification("persist_exterior")
    ext_region = adapter.meet_exterior(cell.region, v)
    if ext_region.is_empty:
        return Classification("persist_inside")
    return Classification("split", in_region, ext_region)


def _span_entry(cid: int, region: LineRegion) -> tuple:
    lo = region.parts[0][0]
    hi = region.parts[-1][1]
    return (float(lo), lo, float(hi), hi, cid)


class StageBuilder:
    """Mutable insertion engine with per-space geometric indexes."""

    def __init__(self, adapter: SpaceAdapter) -> None:
        self.adapter = adapter
        self._is_line = adapter.name == "rational-line"
        self.inserted: list[BasisHandle] = []
        self._inserted_regions: set = set()
        self.cells: dict[int, Cell] = {}
        self.total = ZERO
        self.boundary_points: set = set()
        self.boundary_descriptors: list[BoundaryDescriptor] = []
        self.records: list[StepRecord] = []
        self._next_id = 1
        if self._is_line:
            # (lo_float, lo, hi_float, hi, cell_id); parts disjoint
            self._parts = SortedList()
            self._spans = _SpanIndex()  # cells with two or more parts
            self._closures = SortedList()  # merged closed intervals (lo, hi)
        else:
            self._members: dict[str, int] = {}
            self._member_keys = SortedList()
            self._covered = cantor_region(())

    @classmethod
    def from_stage(cls, stage: Stage) -> "StageBuilder":
        b = cls(stage.adapter)
        b.inserted = list(stage.inserted)
        b._inserted_regions = {h.region for h in stage.inserted}
        b.cells = dict(stage.cells)
        b.total = stage.total_mass
        b.boundary_points = set(stage.boundary_points)
        b.boundary_descriptors = list(stage.boundary_descriptors)
        b._next_id = max(stage.cells, default=0) + 1
        for cid, cell in stage.cells.items():
            b._register(cid, cell.region)
        if b._is_line:
            for h in stage.inserted:
                b._absorb_closure(h.region)
        else:
            for h in stage.inserted:
                b._covered = b.adapter.union(b._covered, h.region)
        return b

    @property
    def count(self) -> int:
        return len(self.inserted)

    # geometric index maintenance ----------------------------------------

    def _register(self, cid: int, region) -> None:
        if self._is_line:
            for lo, hi in region.parts:
                self._parts.add((float(lo), lo, float(hi), hi, cid))
            if len(region.parts) > 1:
                self._spans.add(_span_entry(cid, region))
        else:
            for p in region.prefixes:
                self._members[p] = cid
                self._member_keys.add(p)

    def _unregister(self, cid: int, region) -> None:
        if self._is_line:
            for lo, hi in region.parts:
                self._parts.remove((float(lo), lo, float(hi), hi, cid))
            if len(region.parts) > 1:
                self._spans.remove(_span_entry(cid, region))
        else:
            for p in region.prefixes:
                del self._members[p]
                self._member_keys.remove(p)

    def _affected_cells(self, region) -> list[int]:
        """Ids of the cells the insertion may split, ascending.

        On Cantor space these are all cells meeting the new cylinder, and
        ``insert`` skips the ones lying inside it.  On the line they are
        exactly the cells that split, that is, the cells meeting the new
        interval (a, b) that also have points outside [a, b].  Such a cell
        has a part straddling a or b, or it has several parts, its span
        (first lo to last hi) strictly contains a or b, and one of its
        parts meets (a, b).  The two bisects at a and b find the straddling
        parts, and the span index answers the rest: a stab at a point scans
        the entries of every span block whose largest hi passes it, which
        is far fewer than the parts inside a wide interval, though not
        bounded by the cells it returns.  Floats guard the exact
        comparisons: float conversion of a rational is monotone, so strict
        float inequality already decides, and only float ties pay for exact
        arithmetic.
        """
        seen: set[int] = set()
        if self._is_line:
            a, b = region.parts[0]
            a_f, b_f = float(a), float(b)
            parts = self._parts
            start = parts.bisect_left((a_f, a))
            stop = parts.bisect_left((b_f, b))
            if start > 0:
                _, _, hi_f, hi, cid = parts[start - 1]
                # parts are disjoint, so at most this one contains a
                if hi_f > a_f or (hi_f == a_f and hi > a):
                    seen.add(cid)
            # with no part starting in [a, b), only the straddler of a
            # meets (a, b)
            if stop > start:
                _, _, hi_f, hi, cid = parts[stop - 1]
                if hi_f > b_f or (hi_f == b_f and hi > b):
                    seen.add(cid)  # straddles b
                for x_f, x in ((a_f, a), (b_f, b)):
                    for cid in self._spans.stab(x_f, x):
                        if cid in seen:
                            continue
                        cell_parts = self.cells[cid].region.parts
                        # the span ends past a, so some part does; the
                        # first such part meets (a, b) if it starts before b
                        k = bisect_right(cell_parts, a, key=itemgetter(1))
                        if cell_parts[k][0] < b:
                            seen.add(cid)
        else:
            w = region.prefixes[0]
            for i in range(len(w) + 1):
                cid = self._members.get(w[:i])
                if cid is not None:
                    seen.add(cid)
            for key in self._member_keys.irange(w, w + "2", inclusive=(True, False)):
                seen.add(self._members[key])
        return sorted(seen)

    def locate_host(self, region) -> int | None:
        """Cell id strictly containing the closure of region, if any."""
        if self._is_line:
            a, b = region.parts[0]
            idx = self._parts.bisect_left((float(a), a))
            if idx == 0:
                return None
            _, lo, _, hi, cid = self._parts[idx - 1]
            if lo < a and b < hi:
                return cid
            return None
        w = region.prefixes[0]
        for i in range(len(w) + 1):
            cid = self._members.get(w[:i])
            if cid is None:
                continue
            cell = self.cells[cid]
            if len(w) > len(w[:i]) or len(cell.region.prefixes) > 1:
                return cid
            return None
        return None

    def _absorb_closure(self, region) -> None:
        a, b = region.parts[0]
        lo, hi = a, b
        doomed = []
        idx = self._closure_scan_start(a)
        while idx < len(self._closures):
            clo, chi = self._closures[idx]
            if clo > b:
                break
            # touching closed intervals merge
            doomed.append((clo, chi))
            lo = min(lo, clo)
            hi = max(hi, chi)
            idx += 1
        for item in doomed:
            self._closures.remove(item)
        self._closures.add((lo, hi))

    def _closure_scan_start(self, a: Fraction) -> int:
        idx = self._closures.bisect_left((a,))
        if idx > 0 and self._closures[idx - 1][1] >= a:
            idx -= 1
        return idx

    def _new_region(self, region):
        """Part of region outside the closure of everything inserted before."""
        if self._is_line:
            a, b = region.parts[0]
            overlapping = []
            idx = self._closure_scan_start(a)
            while idx < len(self._closures):
                clo, chi = self._closures[idx]
                if clo >= b:
                    break
                if chi > a:
                    overlapping.append((clo, chi))
                idx += 1
            return line_minus_closure(region, overlapping)
        return cantor_minus(region, self._covered)

    # insertion -----------------------------------------------------------

    def insert(self, handle: BasisHandle) -> None:
        if handle.region in self._inserted_regions:
            raise DuplicateInsertion(
                f"basis element {handle.region!r} already inserted"
            )
        k = len(self.inserted) + 1
        splits = 0
        for cid in self._affected_cells(handle.region):
            cell = self.cells[cid]
            in_region = self.adapter.meet(cell.region, handle.region)
            if in_region.is_empty:
                continue
            ext_region = self.adapter.meet_exterior(cell.region, handle)
            if ext_region.is_empty:
                continue  # persists inside, nothing changes
            self._unregister(cid, cell.region)
            del self.cells[cid]
            half = cell.mass.halve()
            for piece in (in_region, ext_region):
                self._spawn(piece, half, "split", cid, k)
            splits += 1
        fresh = self._new_region(handle.region)
        grant = None
        if not fresh.is_empty:
            grant = DyadicMass.pow2(k)
            kind = "root" if k == 1 else "new_region"
            self._spawn(fresh, grant, kind, None, k)
            self.total = self.total + grant
        if self._is_line:
            self._absorb_closure(handle.region)
        else:
            self._covered = self.adapter.union(self._covered, handle.region)
        descriptor = self.adapter.boundary(handle)
        self.boundary_descriptors.append(descriptor)
        self.boundary_points.update(descriptor.points)
        self.inserted.append(handle)
        self._inserted_regions.add(handle.region)
        self.records.append(
            StepRecord(k, handle.index, grant, splits, self.total)
        )

    def _spawn(self, region, mass: DyadicMass, kind: str, parent: int | None,
               birth: int) -> None:
        cid = self._next_id
        self._next_id += 1
        self.cells[cid] = Cell(cid, region, mass, kind, parent, birth)
        self._register(cid, region)

    def snapshot(self) -> Stage:
        audit = dyadic_sum(c.mass for c in self.cells.values())
        if audit != self.total:
            raise InvariantViolation(
                f"mass audit failed at stage {self.count}: "
                f"cells sum to {audit}, ledger says {self.total}"
            )
        return Stage(
            index=len(self.inserted),
            inserted=tuple(self.inserted),
            cells=dict(self.cells),
            boundary_points=frozenset(self.boundary_points),
            boundary_descriptors=tuple(self.boundary_descriptors),
            total_mass=self.total,
            adapter=self.adapter,
        )


def init_stage(adapter: SpaceAdapter, v1: BasisHandle) -> Stage:
    """Stage 1: the root cell with mass 1/2."""
    builder = StageBuilder(adapter)
    builder.insert(v1)
    return builder.snapshot()


def refine(stage: Stage, v: BasisHandle) -> Stage:
    """Pure insertion step: returns the next stage, leaving stage intact."""
    builder = StageBuilder.from_stage(stage)
    builder.insert(v)
    return builder.snapshot()


def build_stages(adapter: SpaceAdapter, handles) -> list[Stage]:
    """Insert handles in order, snapshotting after each step."""
    builder = StageBuilder(adapter)
    out = []
    for h in handles:
        builder.insert(h)
        out.append(builder.snapshot())
    return out


# -- decomposition ------------------------------------------------------------


def decompose(region, stage: Stage) -> RingElement:
    """Write region as whole cells plus finitely many boundary points.

    Raises NotRepresentable when region is not such a union, including when
    any cell straddles it.
    """
    if getattr(region, "is_empty", False):
        return RingElement(stage.index, frozenset(), frozenset())
    if isinstance(region, LineRegion):
        return _decompose_line(region, stage)
    return _decompose_cantor(region, stage)


def _decompose_line(region: LineRegion, stage: Stage) -> RingElement:
    parts = stage._parts_index()
    cells_in: set[int] = set()
    residue: set[Fraction] = set()
    for p, q in region.parts:
        idx = parts.bisect_left((p,))
        if idx > 0 and parts[idx - 1][1] > p:
            raise NotRepresentable(
                f"a cell straddles the left endpoint {p} of {region!r}"
            )
        cursor = p
        while idx < len(parts):
            lo, hi, cid = parts[idx]
            if lo >= q:
                break
            if lo > cursor:
                raise NotRepresentable(
                    f"the open gap ({cursor},{lo}) of {region!r} is covered "
                    f"by no cell at stage {stage.index}"
                )
            if cursor != p:
                residue.add(cursor)
            if hi > q:
                raise NotRepresentable(
                    f"a cell straddles the right endpoint {q} of {region!r}"
                )
            cells_in.add(cid)
            cursor = hi
            idx += 1
        if cursor != q:
            raise NotRepresentable(
                f"the open gap ({cursor},{q}) of {region!r} is covered by "
                f"no cell at stage {stage.index}"
            )
    for cid in cells_in:
        if not line_subset(stage.cells[cid].region, region):
            raise NotRepresentable(
                f"cell {cid} pokes outside {region!r} at stage {stage.index}"
            )
    for point in residue:
        if point not in stage.boundary_points:
            raise NotRepresentable(
                f"residue point {point} is not an inserted boundary point"
            )
    return RingElement(stage.index, frozenset(cells_in), frozenset(residue))


def _decompose_cantor(region: CantorRegion, stage: Stage) -> RingElement:
    members = stage._members_index()
    keys = sorted(members)
    cells_in: set[int] = set()
    for q in region.prefixes:
        for i in range(len(q) + 1):
            cid = members.get(q[:i])
            if cid is not None:
                cells_in.add(cid)
        start = bisect_left(keys, q)
        for key in keys[start:]:
            if not key.startswith(q):
                break
            cells_in.add(members[key])
    covered: list[str] = []
    for cid in cells_in:
        cell = stage.cells[cid]
        if not stage.adapter.subset(cell.region, region):
            raise NotRepresentable(
                f"cell {cid} pokes outside {region!r} at stage {stage.index}"
            )
        covered.extend(cell.region.prefixes)
    if cantor_region(covered) != region:
        raise NotRepresentable(
            f"{region!r} is not a union of stage-{stage.index} cells"
        )
    return RingElement(stage.index, frozenset(cells_in), frozenset())

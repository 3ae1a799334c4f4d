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

The geometry of each space sits behind the cell index its adapter class
names as ``cell_index``: ``_LineCells`` or ``_CantorCells``.  An index owns
the cell regions and ids: ``refine`` splits the cells a new set splits and
carves the set outside the closure of everything inserted before.  The
line keeps its cell parts, and the spans of its multi-part cells, in
sorted blocks (``_Blocks``).  It refines a set that lies strictly inside
one cell part, as every hole does, by splitting that cell alone; any other
set takes three steps, the last of them one walk (``carve``) that also
records the set's closure.  Cantor space refines in one walk up from the
new cylinder to the cell holding it, if any.  ``locate_host`` finds
hole hosts and ``decompose`` writes regions as whole cells.  An index
holds regions and ids, never an adapter, so a stage, a builder or a line
stream that keeps one forms no reference cycle with its adapter and is
freed by reference counting once dropped.
``StageBuilder`` keeps the masses over its index; ``snapshot`` returns an
immutable ``Stage``, which builds an index from its own cells when
``decompose`` first needs one, holding only what ``decompose`` reads, and
``run`` inserts a sequence of handles, yielding the stage after each.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from operator import itemgetter, or_, sub
from typing import TYPE_CHECKING, NamedTuple

from .dyadic import DyadicMass, ZERO, dyadic_sum
from .errors import (
    DuplicateInsertion,
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
    line_minus_closure,  # unused here: the benchmark tracer patches this name
)

if TYPE_CHECKING:
    from .adapters import BasisHandle, SpaceAdapter

Signature = tuple[bool, ...]


class Cell(NamedTuple):
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


class StepRecord(NamedTuple):
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
        "total_mass",
        "adapter",
        "_boundary_points",
        "_sig_map",
        "_index",
    )

    def __init__(
        self,
        index: int,
        inserted: tuple[BasisHandle, ...],
        cells: dict[int, Cell],
        total_mass: DyadicMass,
        adapter: SpaceAdapter,
    ) -> None:
        self.index = index
        self.inserted = inserted
        self.cells = cells
        self.total_mass = total_mass
        self.adapter = adapter
        self._boundary_points: frozenset | None = None
        self._sig_map: dict[Signature, int] | None = None
        self._index = None

    def __repr__(self) -> str:
        return (
            f"Stage(k={self.index}, cells={len(self.cells)}, "
            f"total={self.total_mass})"
        )

    @property
    def boundary_points(self) -> frozenset:
        """Boundary points of the ``inserted`` sets, gathered on first read."""
        if self._boundary_points is None:
            self._boundary_points = frozenset(
                p for h in self.inserted for p in self.adapter.boundary(h)
            )
        return self._boundary_points

    def signature_of(self, cell_id: int) -> Signature:
        """IN/EXT flags of a cell against W_1..W_k.

        Cells are signature classes, so nonempty intersection with W_m is
        the same as containment in W_m; flags are recomputed from regions
        instead of being stored per stage.
        """
        cell = self.cells.get(cell_id)
        if cell is None:
            raise UnknownCell(f"no cell {cell_id} at stage {self.index}")
        return tuple(
            not self.adapter.meet(cell.region, h.region).is_empty
            for h in self.inserted
        )

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

    def _cell_index(self):
        """The cell index of this stage, built on first use, never copied."""
        if self._index is None:
            self._index = self.adapter.cell_index(
                {cid: cell.region for cid, cell in self.cells.items()}
            )
        return self._index


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


def _combine(d1: RingElement, d2: RingElement, op) -> RingElement:
    if d1.stage_index != d2.stage_index:
        raise StageMismatch(
            f"cannot combine stages {d1.stage_index} and {d2.stage_index}"
        )
    return RingElement(
        d1.stage_index,
        op(d1.open_cells, d2.open_cells),
        op(d1.boundary_points, d2.boundary_points),
    )


def ring_union(d1: RingElement, d2: RingElement) -> RingElement:
    return _combine(d1, d2, or_)


def ring_difference(d1: RingElement, d2: RingElement) -> RingElement:
    return _combine(d1, d2, sub)


def line_key(x: Fraction) -> tuple[float, float, Fraction]:
    """Exact sort key of a rational x: ``(h, e, x)``.

    h is float(x) and e is float(x - h): a two-term float expansion of x
    (Shewchuk, 1997) used as a filter (Fortune and Van Wyk, 1996).  Both
    are correctly rounded from integer ratios, so h is a non-strictly
    monotone function of x, and so is e among the values that share h.
    The triple therefore orders exactly like x: unequal float pairs decide
    at float speed, and only equal pairs compare x itself.  A zero error
    term is the one ``0.0`` constant of this function, shared by all keys.
    """
    n, d = x.numerator, x.denominator
    h = n / d
    hn, hd = h.as_integer_ratio()
    r = n * hd - hn * d
    return h, (r / (d * hd) if r else 0.0), x


def _line_entry(lo: Fraction, hi: Fraction, cid: int) -> tuple:
    """Flat keyed entry ``(lo_h, lo_e, lo, hi_h, hi_e, hi, cid)``."""
    return line_key(lo) + line_key(hi) + (cid,)


def _span_entry(entries) -> tuple:
    """Span entry of a cell from its part entries: first lo to last hi."""
    return (*entries[0][:3], *entries[-1][3:])


class _Blocks:
    """A sorted list of distinct entries, kept in sorted blocks.

    Blocks hold at most ``2 * _LOAD`` entries, and ``_firsts`` holds the
    first entry of each, so an ``insort`` moves the entries of one block,
    not of the whole list.  A position ``(i, j)`` is entry ``j`` of block
    ``i``, with ``j`` inside the block, or ``(len(blocks), 0)`` past the
    end, so positions order like indices of the flat list.  Entries may be
    mutated in place as long as their order stays.
    """

    _LOAD = 64

    def __init__(self, entries: list | tuple = ()) -> None:
        load = self._LOAD
        self._blocks = [entries[k:k + load] for k in range(0, len(entries), load)]
        self._firsts = [block[0] for block in self._blocks]

    def __iter__(self):
        return chain.from_iterable(self._blocks)

    def locate(self, key) -> tuple[int, int]:
        """Position of the first entry not below key."""
        i = bisect_right(self._firsts, key) - 1
        if i < 0:
            return 0, 0
        block = self._blocks[i]
        j = bisect_left(block, key)
        return (i + 1, 0) if j == len(block) else (i, j)

    def before(self, pos: tuple[int, int]):
        """The entry just before pos, or None at the start."""
        i, j = pos
        if j:
            return self._blocks[i][j - 1]
        return self._blocks[i - 1][-1] if i else None

    def walk(self, pos: tuple[int, int]):
        """The entries from pos on, ascending."""
        i, j = pos
        return islice(chain.from_iterable(islice(self._blocks, i, None)), j, None)

    def insort(self, entry) -> int:
        """Add entry; returns the index of the block it went into, which
        splits in two past ``2 * _LOAD`` entries."""
        blocks, firsts = self._blocks, self._firsts
        if not blocks:
            blocks.append([entry])
            firsts.append(entry)
            return 0
        i = max(bisect_right(firsts, entry) - 1, 0)
        block = blocks[i]
        insort(block, entry)
        firsts[i] = block[0]
        load = self._LOAD
        if len(block) > 2 * load:
            blocks.insert(i + 1, block[load:])
            del block[load:]
            firsts.insert(i + 1, blocks[i + 1][0])
        return i

    def remove(self, entry) -> int:
        """Drop entry, raising KeyError if it is not held; returns the index
        of its block, which goes away when it empties."""
        i, j = self.locate(entry)
        blocks = self._blocks
        if i == len(blocks) or blocks[i][j] != entry:
            raise KeyError(entry)
        block = blocks[i]
        del block[j]
        if block:
            self._firsts[i] = block[0]
        else:
            del blocks[i], self._firsts[i]
        return i


class _SpanIndex(_Blocks):
    """Stabbing index over the spans of multi-part line cells.

    A span runs from a cell's first ``lo`` to its last ``hi``.  Keyed
    entries ``(lo_h, lo_e, lo, hi_h, hi_e, hi, cell_id)`` sit in sorted
    blocks, and each block caches the largest ``hi_h`` it holds, so a query
    only opens blocks that hold a span reaching past the point.
    """

    def __init__(self) -> None:
        super().__init__()
        self._max_hi: list[float] = []

    def add(self, entry: tuple) -> None:
        i = self.insort(entry)
        if len(self._max_hi) == len(self._blocks):
            if entry[3] > self._max_hi[i]:
                self._max_hi[i] = entry[3]
        else:  # the first block, or block i split in two
            self._max_hi[i:i + 1] = [
                max(e[3] for e in block) for block in self._blocks[i:i + 2]
            ]

    def remove(self, entry: tuple) -> None:
        """Drop entry; raise KeyError if the index does not hold it."""
        i = super().remove(entry)
        if len(self._max_hi) != len(self._blocks):
            del self._max_hi[i]
        elif entry[3] == self._max_hi[i]:
            self._max_hi[i] = max(e[3] for e in self._blocks[i])

    def stab(self, key: tuple) -> list[int]:
        """Ids of cells whose span strictly contains the point of key."""
        out = []
        for i in range(bisect_left(self._firsts, key)):
            if self._max_hi[i] < key[0]:
                continue
            for entry in self._blocks[i]:
                if entry[:3] >= key:
                    break
                if entry[3:6] > key:
                    out.append(entry[6])
        return out


class _LineCells:
    """Cell index of the rational line.

    Every cell part is one mutable keyed entry ``[lo_h, lo_e, lo, hi_h, hi_e,
    hi, cell_id]``, where ``(lo_h, lo_e, lo)`` is ``line_key(lo)``.  Parts
    are disjoint open intervals, so their starts are unique and the sorted
    part list (``_parts``, in ``_Blocks``) is ordered by ``lo`` alone; a
    bisect probes it with a bare key ``[lo_h, lo_e, lo]``, and adding a part
    moves the entries of one block only.  A cell filed by refinement also keeps
    its own entries, ascending; an index built from a stage's cells holds
    the part list alone.  Refinement only makes the partition finer, so no
    start ever goes away: a split shortens the entries that straddle the
    ends of the new interval in place, adds one entry per cut-off tail and
    relabels the cell's entries, and the list never loses an entry.  Cells
    with two or more parts also sit in a ``_SpanIndex``.  The closures of
    the inserted intervals are kept merged, as a sorted list of disjoint
    closed intervals ``[lo_h, lo_e, lo, hi_h, hi_e, hi]``, and ``carve``
    reads the gaps between those that meet a new interval and merges them
    with its closure in the same walk.  A new interval strictly inside one
    part, which ``_host`` finds as ``locate_host`` does, skips both
    ``split_cells`` and ``carve``: it splits that part's cell alone, and
    the inside cell takes the inserted region as its own.

    Every comparison goes through the keys, which order exactly like the
    rationals.  A key of one float is not enough: the straddlers around 0
    and 1 have half-widths ``4**-(P*P)`` that round away, so their
    endpoints tie in float with 0 or 1 (or with each other) exactly in the
    hottest comparisons.  The float error term separates them, and only
    values that agree to about 106 bits pay for a ``Fraction`` comparison.
    """

    def __init__(self, regions: dict[int, LineRegion]):
        self.regions = regions
        self.next_id = max(regions, default=0) + 1
        self._entries: dict[int, tuple] = {}
        self._parts = _Blocks(sorted(
            list(_line_entry(lo, hi, cid))
            for cid, region in regions.items()
            for lo, hi in region.parts
        ))
        self._spans = _SpanIndex()  # cells with two or more parts
        self._closures: list[list] = []

    def refine(self, region: LineRegion) -> tuple[list, int | None]:
        """Split the cells interval (a, b) splits and carve its fresh part.

        Returns ``(old, inside, outside)`` ids per split cell, ascending by
        old id, then the fresh cell's id or None; new ids follow that order.
        The steps take the keys of a and b, made here once.

        A part that strictly contains [a, b] (a hole's host) is the only
        part (a, b) meets, and it lies inside the closures, so its cell is
        the only split, its inside piece is (a, b) itself and nothing is
        fresh: that case needs neither ``split_cells`` nor ``carve``.
        """
        a, b = region.parts[0]
        ka, kb = [*line_key(a)], [*line_key(b)]
        host = self._host(ka, b, kb)
        if host is not None:
            old = host[6]  # before ``_split`` relabels the entry
            return [(old, *self._split(old, ka, kb, region))], None
        splits = [(old, *self._split(old, ka, kb)) for old in self.split_cells(ka, kb)]
        fresh = self.carve(ka, kb)
        return splits, None if fresh.is_empty else self._spawn(fresh)

    def _host(self, ka: list, b: Fraction, kb: list | None = None) -> list | None:
        """The part entry strictly containing [a, b], if any: the part
        before the first that starts at a or later, when it ends past b.
        b is keyed only if there is such a part and kb is not its key."""
        entry = self._parts.before(self._parts.locate(ka))
        if entry is None:
            return None
        if kb is None:
            kb = [*line_key(b)]
        return entry if entry[3:6] > kb else None

    def _spawn(self, region: LineRegion) -> int:
        entries = [list(_line_entry(lo, hi, 0)) for lo, hi in region.parts]
        for entry in entries:
            self._parts.insort(entry)
        return self._file(entries, region)

    def _file(self, entries: list[list], region: LineRegion | None = None) -> int:
        """Make a new cell of entries already in the part list: relabel
        them, and file the cell's region (region when the caller has it)
        and span.  Returns its id."""
        cid = self.next_id
        self.next_id += 1
        for entry in entries:
            entry[6] = cid
        self._entries[cid] = entries = tuple(entries)
        if region is None:
            region = LineRegion(tuple((e[2], e[5]) for e in entries))
        self.regions[cid] = region
        if len(entries) > 1:
            self._spans.add(_span_entry(entries))
        return cid

    def split_cells(self, ka: list, kb: list) -> list[int]:
        """Ids of the cells that inserting (a, b) splits, ascending.

        These are the cells meeting the new interval (a, b) that also have
        points outside [a, b].  Such a cell has a part straddling a or b,
        or it has several parts, its span (first lo to last hi) strictly
        contains a or b, and one of its parts meets (a, b).  The two
        bisects at a and b find the straddling parts, and the span index
        answers the rest: a stab at a point scans the entries of every span
        block whose largest hi passes it, which is far fewer than the parts
        inside a wide interval, though not bounded by the cells it returns.
        """
        seen: set[int] = set()
        parts = self._parts
        start = parts.locate(ka)
        stop = parts.locate(kb)
        # parts are disjoint, so at most one part contains a
        entry = parts.before(start)
        if entry is not None and entry[3:6] > ka:
            seen.add(entry[6])
        # with no part starting in [a, b), only the straddler of a meets
        # (a, b)
        if stop > start:
            entry = parts.before(stop)
            if entry[3:6] > kb:
                seen.add(entry[6])  # straddles b
            a, b = ka[2], kb[2]
            for key in (ka, kb):
                for cid in self._spans.stab(tuple(key)):
                    if cid in seen:
                        continue
                    cell_parts = self.regions[cid].parts
                    # the span ends past a, so some part does; the first
                    # such part meets (a, b) if it starts before b
                    k = bisect_right(cell_parts, a, key=itemgetter(1))
                    if cell_parts[k][0] < b:
                        seen.add(cid)
        return sorted(seen)

    def _split(
        self, old: int, ka: list, kb: list, inside_region: LineRegion | None = None
    ) -> tuple[int, int]:
        """Refile cell old as two cells, its parts inside (a, b) and outside
        [a, b], and return their ids; the inside cell takes inside_region
        when the caller has it.

        At most two entries straddle a or b.  Each is cut in place at the
        end it straddles, and its tail past that end becomes one new entry
        that starts there; then the cell's entries are relabelled inside or
        outside.  No entry leaves the part list and no endpoint is keyed:
        the cuts are the keys of a and b.
        """
        del self.regions[old]
        entries = self._entries.pop(old)
        if len(entries) > 1:
            # the span entry holds the keys the cuts are about to change
            self._spans.remove(_span_entry(entries))
        parts = self._parts
        inside: list = []
        outside: list = []
        for entry in entries:
            if entry[3:6] <= ka or entry[:3] >= kb:
                outside.append(entry)
                continue
            if entry[:3] < ka:
                outside.append(entry)
                entry[3:6], entry = ka, ka + entry[3:]
                parts.insort(entry)
            inside.append(entry)
            if entry[3:6] > kb:
                entry[3:6], tail = kb, kb + entry[3:]
                parts.insort(tail)
                outside.append(tail)
        return self._file(inside, inside_region), self._file(outside)

    def locate_host(self, region: LineRegion) -> int | None:
        a, b = region.parts[0]
        entry = self._host([*line_key(a)], b)
        return None if entry is None else entry[6]

    def carve(self, ka: list, kb: list) -> LineRegion:
        """(a, b) minus the closures, in the one walk that merges them with
        [a, b] where they meet or touch it; only the first starts before a."""
        closures = self._closures
        first = idx = bisect_left(closures, ka)
        if idx > 0 and closures[idx - 1][3:6] >= ka:
            first = idx = idx - 1
        out = []
        lo = cursor = ka
        while idx < len(closures):
            c = closures[idx]
            if c[:3] > kb:
                break
            if c[:3] > cursor:
                out.append((cursor[2], c[2]))
            elif c[:3] < lo:
                lo = c[:3]
            if c[3:6] > cursor:
                cursor = c[3:6]
            idx += 1
        if cursor < kb:
            out.append((cursor[2], kb[2]))
        closures[first:idx] = [lo + max(cursor, kb)]
        return LineRegion(tuple(out))

    def decompose(self, region: LineRegion, stage: Stage) -> RingElement:
        """Whole cells and boundary points making up region, by one keyed
        walk per part of region.

        The walk visits every cell part that starts inside a part of
        region, and rejects a part that ends past it, so a cell lies inside
        region exactly when the walk visits all its parts; it counts them.
        """
        if not isinstance(region, LineRegion):
            raise NotRepresentable(
                f"{region!r} is not a line region like stage {stage.index}'s cells"
            )
        parts = self._parts
        visits: dict[int, int] = {}
        residue: set[Fraction] = set()
        for p, q in region.parts:
            kp, kq = [*line_key(p)], [*line_key(q)]
            # a part straddling p leaves the open gap after p uncovered
            cursor = kp
            for entry in parts.walk(parts.locate(kp)):
                if entry[:3] >= kq:
                    break
                if entry[:3] > cursor:
                    raise NotRepresentable(
                        f"the open gap ({cursor[2]},{entry[2]}) of {region!r} "
                        f"is covered by no cell at stage {stage.index}"
                    )
                # every part from the bisect on starts at p or later, so
                # the cursor leaves p for good at the first part
                if cursor is not kp:
                    residue.add(cursor[2])
                if entry[3:6] > kq:
                    raise NotRepresentable(
                        f"a cell straddles the right endpoint {q} of {region!r}"
                    )
                visits[entry[6]] = visits.get(entry[6], 0) + 1
                cursor = entry[3:6]
            if cursor != kq:
                raise NotRepresentable(
                    f"the open gap ({cursor[2]},{q}) of {region!r} is covered "
                    f"by no cell at stage {stage.index}"
                )
        for cid, count in visits.items():
            if count < len(self.regions[cid].parts):
                raise NotRepresentable(
                    f"cell {cid} pokes outside {region!r} at stage {stage.index}"
                )
        for point in residue:
            if point not in stage.boundary_points:
                raise NotRepresentable(
                    f"residue point {point} is not an inserted boundary point"
                )
        return RingElement(stage.index, frozenset(visits), frozenset(residue))


class _CantorCells:
    """Cell index of Cantor space.

    One dict takes every prefix of every cell to its cell id, and every
    proper prefix of those keys (a populated word) to 0; ids start at 1.
    Cells are disjoint, so all their prefixes together form an antichain of
    keys: a word is a key, populated, or neither.  Refinement only makes
    cells finer, so a split's pieces file keys at or under each key it
    drops, which marks that key again, and a populated word stays
    populated: filing a key walks up only until it meets a populated word.
    Walking up from w, the first word in the dict decides: a key holds w,
    and a populated word means no key does; walking down from w through
    populated words reaches exactly the keys under w.  ``refine`` walks up
    from a new cylinder once, and down only when no key holds it.
    """

    def __init__(self, regions: dict[int, CantorRegion]):
        self.regions = regions
        self.next_id = max(regions, default=0) + 1
        self._members: dict[str, int] = {}
        for cid, region in regions.items():
            self.add(cid, region)

    def _spawn(self, region: CantorRegion) -> int:
        cid = self.next_id
        self.next_id += 1
        self.regions[cid] = region
        self.add(cid, region)
        return cid

    def add(self, cid: int, region: CantorRegion) -> None:
        members = self._members
        for p in region.prefixes:
            members[p] = cid
            while p:
                p = p[:-1]
                if members.get(p) == 0:
                    break
                members[p] = 0

    def _holder(self, w: str) -> int | None:
        """The cell with a prefix of w (w itself included), if any.

        At most one key is a prefix of w, and the cylinder w lies inside
        that key's cell.  A populated prefix of w lies above some key, so
        no shorter prefix of w is a key.
        """
        members = self._members
        for k in range(len(w), -1, -1):
            cid = members.get(w[:k])
            if cid is not None:
                return cid or None
        return None

    def _under(self, w: str) -> list[str]:
        """Keys that have w as a prefix, w included, ascending."""
        out = []
        stack = [w]
        while stack:
            u = stack.pop()
            cid = self._members.get(u)
            if cid:
                out.append(u)
            elif cid == 0:
                stack += (u + "1", u + "0")
        return out

    def refine(self, region: CantorRegion) -> tuple[list, int | None]:
        """Split the cells cylinder w splits and carve its fresh part, in
        one walk up from w; returns what ``_LineCells.refine`` returns.

        A cell holding a prefix of w contains the cylinder w, so it is the
        only cell w meets: it splits into w and the rest unless it is w,
        and nothing is fresh.  Otherwise no prefix of a cell is a proper
        prefix of w, so a cell with a key under w splits into its prefixes
        under w and the others, if it has any, and the fresh part is w
        minus the keys under it.  Such a cell lies inside exactly the
        inserted ancestors of w and outside every other inserted set, so
        at most one cell has its signature and splits.  A split's pieces
        file keys at or under each key it drops, which re-marks it as a key
        or as populated.
        """
        w = region.prefixes[0]
        cid = self._holder(w)
        if cid is not None:
            cell = self.regions[cid]
            if cell.prefixes == (w,):
                return [], None
            del self.regions[cid]
            inside = self._spawn(region)
            return [(cid, inside, self._spawn(cantor_minus(cell, region)))], None
        under = self._under(w)
        if not under:
            return [], self._spawn(region)
        splits = []
        for old in {self._members[key] for key in under}:
            prefixes = self.regions[old].prefixes
            outside = tuple(p for p in prefixes if not p.startswith(w))
            if outside:
                del self.regions[old]
                inside = tuple(p for p in prefixes if p.startswith(w))
                splits = [(
                    old,
                    self._spawn(CantorRegion(inside)),
                    self._spawn(CantorRegion(outside)),
                )]
                break
        fresh = cantor_minus(region, CantorRegion(tuple(under)))
        return splits, None if fresh.is_empty else self._spawn(fresh)

    def locate_host(self, region: CantorRegion) -> int | None:
        w = region.prefixes[0]
        cid = self._holder(w)
        if cid is None or self.regions[cid].prefixes == (w,):
            return None
        return cid

    def decompose(self, region: CantorRegion, stage: Stage) -> RingElement:
        if not isinstance(region, CantorRegion):
            raise NotRepresentable(
                f"{region!r} is not a Cantor region like stage {stage.index}'s cells"
            )
        cells_in = {
            self._members[key] for q in region.prefixes for key in self._under(q)
        }
        # canonical forms are unique, so the cells' union is the region only
        # if no cell pokes out of it and no part of it is missed (a cell
        # holding a proper prefix of q has no key under q)
        covered = [p for cid in cells_in for p in self.regions[cid].prefixes]
        if cantor_region(covered) != region:
            raise NotRepresentable(
                f"{region!r} is not a union of stage-{stage.index} cells"
            )
        return RingElement(stage.index, frozenset(cells_in), frozenset())


class StageBuilder:
    """Mutable insertion engine: a cell index and the masses of its cells."""

    def __init__(self, adapter: SpaceAdapter) -> None:
        self.adapter = adapter
        self.inserted: list[BasisHandle] = []
        self._inserted_regions: set = set()
        self.cells: dict[int, Cell] = {}
        self.total = ZERO
        self.records: list[StepRecord] = []
        self._index = adapter.cell_index({})

    @property
    def count(self) -> int:
        return len(self.inserted)

    def locate_host(self, region) -> int | None:
        """Cell id strictly containing the closure of region, if any."""
        return self._index.locate_host(region)

    def insert(self, handle: BasisHandle) -> None:
        """Insert one basis element; NotABasisElement for any other region
        and DuplicateInsertion for one already inserted."""
        self.adapter._validate_basis(handle.region)
        if handle.region in self._inserted_regions:
            raise DuplicateInsertion(
                f"basis element {handle.region!r} already inserted"
            )
        k = len(self.inserted) + 1
        splits, fresh = self._index.refine(handle.region)
        regions = self._index.regions
        for old, inside, outside in splits:
            half = self.cells.pop(old).mass.halve()
            for cid in (inside, outside):
                self.cells[cid] = Cell(cid, regions[cid], half, "split", old, k)
        grant = None
        if fresh is not None:
            grant = DyadicMass.pow2(k)
            kind = "root" if k == 1 else "new_region"
            self.cells[fresh] = Cell(fresh, regions[fresh], grant, kind, None, k)
            self.total = self.total + grant
        self.inserted.append(handle)
        self._inserted_regions.add(handle.region)
        self.records.append(
            StepRecord(k, handle.index, grant, len(splits), self.total)
        )

    def run(self, handles):
        """Insert each handle in turn, yielding the snapshot after each."""
        for handle in handles:
            self.insert(handle)
            yield self.snapshot()

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
            total_mass=self.total,
            adapter=self.adapter,
        )


def decompose(region, stage: Stage) -> RingElement:
    """Write region as whole cells plus finitely many boundary points.

    Raises NotRepresentable when region is not such a union, including when
    any cell straddles it, and when it is a region of another space, even
    an empty one.
    """
    return stage._cell_index().decompose(region, stage)

"""Space adapters: enumerated bases of regular open sets plus scan helpers.

Two spaces ship with the package.

``RationalLine`` enumerates bounded open rational intervals.  The canonical
order interleaves two deterministic streams:

* a completeness stream at every index divisible by 16, walking all
  rational intervals via the Calkin-Wilf order (left endpoint over all
  rationals, length over positive rationals, combined with the Cantor
  pairing) and skipping intervals that already appeared;
* a refinement stream everywhere else: six fixed seed intervals, then one
  pack per position of ``diagonal_walk`` over pairs (i, j), the walk a
  schedule of blocks takes too.  The pack for (i, j) with j >= 2 first emits
  one interval per signature class of the emissions made so far (the
  middle half of the class's leftmost component), and every pack for
  i <= 6 ends with a pair of intervals straddling the two endpoints of
  seed i at a width specific to (i, j) and shrinking fast enough in j to
  fit inside any residual gap left around those endpoints by the earlier
  middles.

The signature classes depend only on the set of emissions, not on any
insertion order, so they are the cells of any stage that inserted exactly
the emissions made so far.  ``build_schedule`` hands each block-boundary
stage to its adapter (``note_stage``), and the packs of a schedule over
this basis read their classes just after such a stage, so the stream
takes the leftmost parts of its cells.  The adapter checks that the stage
is its own and that it has no injected prefix, then hands the stream only
the stage's index, inserted handles and cells: neither the stream nor its
cell index refers back to the adapter or to a stage, so a build's state
holds no reference cycle and is freed as soon as it is dropped.  Without
such a stage (a bare enumeration, an injected prefix, the ``build``
command) the stream keeps a massless line cell index of its own and
refines it by the emissions made so far when a pack reads it.
Emitting one interior interval per class instead of one per arrangement
gap, in the rhythm the diagonal walk consumes them, keeps the basis
growth linear in the number of cells a schedule has to drill, which is
what makes deep schedules affordable.  Rows past the sixth have no
straddler pairs, so schedules over this basis are practical up to six
levels deep; beyond that, scans must fall through to the completeness
stream.

Both streams skip duplicates, and the completeness stream visits every
interval at a slot bounded by its Calkin-Wilf rank, so the interleave is a
bijection onto all bounded rational intervals and ``index_of`` terminates.
The refinement stream exists purely to keep scans cheap: fresh straddlers
and class middles appear close to the scan frontier instead of at the
astronomic indices a plain pairing order would give them.

``CantorSpace`` enumerates binary cylinders in length-then-lexicographic
order; index k maps to the binary digits of k with the leading 1 removed,
so index 1 is the whole space.

Either adapter can be built with an injected prefix: explicitly listed
basis elements occupy indices 1..n and the canonical order continues after
them, skipping values equal to an injected element.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from itertools import count
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DuplicateInsertion,
    InfeasibleCover,
    InvariantViolation,
    NotABasisElement,
    ScanExhausted,
)
from .regions import (
    CantorRegion,
    LineRegion,
    cantor_closure_strictly_inside,
    cantor_contains_point,
    cantor_meet,
    cantor_minus,
    cantor_region,
    cantor_subset,
    cantor_union,
    interval,
    line_closure_strictly_inside,
    line_contains_point,
    line_meet,
    line_meet_exterior,
    line_subset,
    line_union,
)
from .stages import Stage, _CantorCells, _LineCells, line_key

DEFAULT_SCAN_CAP = 10**6


class BasisHandle(NamedTuple):
    """An enumerated basis element: its 1-based index and its region."""

    index: int
    region: object

    def __repr__(self) -> str:
        return f"BasisHandle({self.index}, {self.region!r})"


# -- Calkin-Wilf machinery ---------------------------------------------------


def cw_value(n: int) -> Fraction:
    """n-th positive rational in Calkin-Wilf order, 1-based."""
    if n < 1:
        raise InvariantViolation(f"Calkin-Wilf rank must be >= 1, got {n}")
    num, den = 1, 1
    for bit in bin(n)[3:]:
        if bit == "0":
            den = num + den
        else:
            num = num + den
    return Fraction(num, den)


def cw_rank(q: Fraction) -> int:
    """Inverse of ``cw_value``; q must be a positive rational."""
    if q <= 0:
        raise InvariantViolation(f"Calkin-Wilf rank needs q > 0, got {q}")
    num, den = q.numerator, q.denominator
    bits: list[str] = []
    while (num, den) != (1, 1):
        if num > den:
            bits.append("1")
            num -= den
        else:
            bits.append("0")
            den -= num
    return int("1" + "".join(reversed(bits)), 2)


def rational_value(m: int) -> Fraction:
    """m-th rational over all of Q: 0, then the Calkin-Wilf order with
    alternating signs (odd ranks positive, even ranks negative)."""
    if m < 0:
        raise InvariantViolation(f"rational rank must be >= 0, got {m}")
    if m == 0:
        return Fraction(0)
    if m % 2 == 1:
        return cw_value((m + 1) // 2)
    return -cw_value(m // 2)


def rational_rank(x: Fraction) -> int:
    if x == 0:
        return 0
    if x > 0:
        return 2 * cw_rank(x) - 1
    return 2 * cw_rank(-x)


def cantor_pair(i: int, j: int) -> int:
    return (i + j) * (i + j + 1) // 2 + j


def cantor_unpair(n: int) -> tuple[int, int]:
    w = (isqrt(8 * n + 1) - 1) // 2
    j = n - w * (w + 1) // 2
    return w - j, j


def diagonal_walk() -> Iterator[tuple[int, int]]:
    """Yield (1,1), (2,1), (1,2), (3,1), (2,2), (1,3), ... without end.

    Diagonal s holds the pairs with i + j = s, from (s - 1, 1) down to
    (1, s - 1); the first d diagonals are the first d * (d + 1) / 2 terms.
    """
    for s in count(2):
        for j in range(1, s):
            yield s - j, j


# -- base adapter -------------------------------------------------------------


class SpaceAdapter:
    """Shared enumeration cache and scan loops; subclasses supply the space.

    ``injected`` puts explicitly chosen basis elements at indices 1..n; the
    canonical order continues afterwards with injected values filtered out,
    so the full enumeration stays a bijection.

    ``tests/test_adapter_laws.py`` is the contract an adapter must pass.
    """

    name: str = ""
    cell_index: type  # the stage engine's index of this space
    # deepest schedule that builds in seconds (README "Depth guidance")
    practical_depth: int

    def __init__(self, injected: Sequence[object] = ()) -> None:
        for r in injected:
            self._validate_basis(r)
        if len(set(injected)) != len(injected):
            raise DuplicateInsertion("injected basis elements must be distinct")
        self._injected = tuple(injected)
        self._injected_pos = {r: i + 1 for i, r in enumerate(injected)}
        # handle k at k - 1: the injected ones, then the canonical order
        self._handles = [BasisHandle(i + 1, r) for i, r in enumerate(injected)]
        self._canonical_cursor = 0

    # subclass hooks ---------------------------------------------------

    def _validate_basis(self, region: object) -> None:
        raise NotImplementedError

    def _canonical_value(self, k: int) -> object:
        """k-th member of the canonical (injection-free) order."""
        raise NotImplementedError

    def _canonical_index(self, region: object) -> int:
        raise NotImplementedError

    def _canonical_at_most(self, region: object, p: int) -> bool:
        """Whether region's canonical position is <= p.

        Subclasses may answer without forcing a deep position; the default
        just computes it.
        """
        return self._canonical_index(region) <= p

    # enumeration -------------------------------------------------------

    @property
    def injected(self) -> tuple[object, ...]:
        return self._injected

    def with_injected(self, regions: Sequence[object]) -> "SpaceAdapter":
        return type(self)(injected=tuple(regions))

    def enumerate(self, index: int) -> BasisHandle:
        handles = self._handles
        if 0 < index <= len(handles):
            return handles[index - 1]
        if index < 1:
            raise InvariantViolation(f"basis indices start at 1, got {index}")
        while len(handles) < index:
            self._canonical_cursor += 1
            candidate = self._canonical_value(self._canonical_cursor)
            if candidate not in self._injected_pos:
                handles.append(BasisHandle(len(handles) + 1, candidate))
        return handles[index - 1]

    def note_stage(self, stage: Stage) -> None:
        """Hear of a stage a schedule snapshotted at a block boundary.

        The default ignores it; an enumeration that reads the cells of its
        own earlier elements may take them from the stage instead.  It
        should keep only what it reads, not the stage: a stage refers to
        its adapter, so keeping one makes a reference cycle that only the
        cyclic collector can free.
        """

    def index_of(self, region: object) -> int:
        self._validate_basis(region)
        pos = self._injected_pos.get(region)
        if pos is not None:
            return pos
        p = self._canonical_index(region)
        skipped = sum(1 for r in self._injected if self._canonical_at_most(r, p))
        return len(self._injected) + p - skipped

    # region operations ---------------------------------------------------

    def meet(self, a: object, b: object) -> object:
        raise NotImplementedError

    def meet_exterior(self, a: object, v: object) -> object:
        raise NotImplementedError

    def closure_strictly_inside(self, a: object, b: object) -> bool:
        raise NotImplementedError

    def boundary(self, v: BasisHandle) -> tuple:
        """The finitely many boundary points of a basis element, in order."""
        raise NotImplementedError

    def union(self, a: object, b: object) -> object:
        raise NotImplementedError

    def union_all(self, regions: Iterable[object]) -> object:
        raise NotImplementedError

    def subset(self, a: object, b: object) -> bool:
        raise NotImplementedError

    def contains_point(self, a: object, point: object) -> bool:
        raise NotImplementedError

    def parse_region(self, text: str) -> object:
        raise NotImplementedError

    def format_region(self, region: object) -> str:
        raise NotImplementedError

    def probe_points(self, region: object, against: Iterable[object]) -> list:
        """A few points of region, exact and deterministic.

        ``against`` lists the other regions the points will be tested in;
        a space whose points are finite words makes them long enough to
        decide membership in each of those regions.
        """
        raise NotImplementedError

    def point_hosts(
        self, points: Sequence[object], regions: Sequence[object]
    ) -> list[list[int]]:
        """For each point, the ascending positions in ``regions`` of the
        regions that contain it; the regions may overlap.

        The default tests every point in every region.
        """
        return [
            [n for n, r in enumerate(regions) if self.contains_point(r, x)]
            for x in points
        ]

    # scans ----------------------------------------------------------------

    def finite_subcover(
        self,
        points: Sequence[object],
        constraint: object | None = None,
        forbidden: frozenset[int] | set[int] = frozenset(),
        min_index: int = 1,
        scan_cap: int = DEFAULT_SCAN_CAP,
    ) -> tuple[BasisHandle, ...]:
        """Greedy minimal-index cover of finitely many points.

        Every chosen element must lie inside ``constraint`` when one is
        given; ``None`` means unconstrained, which is how first-level covers
        run because the whole space is not itself a region.
        """
        if constraint is not None:
            for p in points:
                if not self.contains_point(constraint, p):
                    raise InfeasibleCover(
                        f"point {p!r} lies outside the constraint region"
                    )
        uncovered = list(points)
        chosen: list[BasisHandle] = []
        if not uncovered:
            return ()
        for k in range(min_index, min_index + scan_cap):
            if k in forbidden:
                continue
            h = self.enumerate(k)
            if constraint is not None and not self.subset(h.region, constraint):
                continue
            hit = [p for p in uncovered if self.contains_point(h.region, p)]
            if not hit:
                continue
            chosen.append(h)
            uncovered = [p for p in uncovered if p not in hit]
            if not uncovered:
                return tuple(chosen)
        raise ScanExhausted(
            f"cover of {points!r} incomplete after {scan_cap} indices"
        )


# -- rational line ------------------------------------------------------------

_SEEDS = (
    (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(2)),
    (Fraction(-1), Fraction(0)),
    (Fraction(1, 4), Fraction(3, 4)),
    (Fraction(-3, 4), Fraction(-1, 4)),
    (Fraction(5, 4), Fraction(7, 4)),
)

def _straddle_width(position: int) -> Fraction:
    """Half-width of the straddler pair in the pack at this walk position.

    Each pack of middles quarters the gap flanking a seed endpoint, so a
    straddler emitted at position P fits inside the gap left by one
    emitted at position Q < P as long as d(P) < d(Q) * 4**(Q-P), no
    matter which rows the two packs belong to (endpoints 0 and 1 are
    shared across rows).  d(P) = 4**(-P*P) satisfies that for every pair
    P > Q because P*P - P is strictly increasing.
    """
    return Fraction(1, 4 ** (position * position))


def _middle_half(lo: Fraction, hi: Fraction) -> LineRegion:
    """The interval (lo + w, hi - w) for w = (hi - lo) / 4.

    With lo = p/q and hi = r/s both ends share the denominator 4qs:
    (3ps + rq) / 4qs and (ps + 3rq) / 4qs.  They are ordered as lo and hi
    are, which is the check ``interval`` makes, in integers: ps < rq.
    """
    p, q = lo.numerator, lo.denominator
    r, s = hi.numerator, hi.denominator
    ps, rq = p * s, r * q
    if not ps < rq:
        raise InvariantViolation(f"interval needs a < b, got ({lo}, {hi})")
    den = 4 * q * s
    a, b = Fraction(3 * ps + rq, den), Fraction(ps + 3 * rq, den)
    return LineRegion(((a, b),))


_COMPLETENESS_STRIDE = 16


class _LineStream:
    """Lazy canonical emission order for the rational line.

    Slot k emits from the completeness stream when 16 divides k and from
    the refinement stream otherwise.  Both skip regions already emitted,
    and every queue refresh is a pure function of the emissions made so
    far, so the order is deterministic.
    """

    def __init__(self) -> None:
        self._emitted: list[LineRegion] = []
        self._position: dict[LineRegion, int] = {}
        # seeds, then the members of each pack
        self._queue = deque(interval(a, b) for a, b in _SEEDS)
        self._walk = enumerate(diagonal_walk(), 1)  # (position, (i, j))
        self._b_rank = 1
        self._classes = _LineCells({})
        self._refined = 0  # emissions the class index holds
        # (index, inserted, cells) of a schedule's last block stage
        self._noted: tuple | None = None

    def __len__(self) -> int:
        return len(self._emitted)

    def value(self, k: int) -> LineRegion:
        while len(self._emitted) < k:
            self._emit_next()
        return self._emitted[k - 1]

    def position(self, region: LineRegion) -> int | None:
        return self._position.get(region)

    def _emit_next(self) -> None:
        if (len(self._emitted) + 1) % _COMPLETENESS_STRIDE == 0:
            region = self._next_completeness()
        else:
            region = self._next_refinement()
        self._emitted.append(region)
        self._position[region] = len(self._emitted)

    def _next_completeness(self) -> LineRegion:
        while True:
            i, j = cantor_unpair(self._b_rank - 1)
            self._b_rank += 1
            left = rational_value(i)
            cand = interval(left, left + cw_value(j + 1))
            if cand not in self._position:
                return cand

    def _next_refinement(self) -> LineRegion:
        while True:
            while not self._queue:
                self._advance_pack()
            cand = self._queue.popleft()
            if cand not in self._position:
                return cand

    def _advance_pack(self) -> None:
        """Queue the pack for the next position of ``diagonal_walk``.

        The pack for (i, j) with j >= 2 starts with the class middles, and
        for i <= 6 it ends with the straddlers of seed i, whose width the
        walk position sets.
        """
        position, (i, j) = next(self._walk)
        pack = self._class_middles() if j >= 2 else []
        if i <= len(_SEEDS):
            d = _straddle_width(position)
            pack.extend(interval(t - d, t + d) for t in _SEEDS[i - 1])
        self._queue.extend(pack)

    def note_stage(
        self, index: int, inserted: tuple[BasisHandle, ...], cells: dict
    ) -> None:
        """Keep what a stage of this stream's adapter holds, for the next
        pack read: its index, its inserted handles and its cells."""
        self._noted = (index, inserted, cells)

    def _holds_emissions(
        self, index: int, inserted: tuple[BasisHandle, ...], n: int
    ) -> bool:
        """Whether a stage inserted exactly the first n emissions.

        A stage holds one distinct region per position, so n of them that
        each sit at their own index among the first n emissions are those
        n emissions.
        """
        emitted = self._emitted
        return index == n and all(
            0 < h.index <= n and h.region == emitted[h.index - 1]
            for h in inserted
        )

    def _class_middles(self) -> list[LineRegion]:
        """Middle half of the leftmost component of every signature class.

        The classes depend only on the set of emissions, so a noted stage
        that inserted exactly the emissions made so far has them as its
        cells.  Any other stage is ignored, and the class index refines the
        emissions it does not hold yet, in order.  Either way the classes'
        leftmost parts are taken in ascending order of their left ends.
        """
        noted, self._noted = self._noted, None
        n = len(self._emitted)
        if noted is not None and self._holds_emissions(noted[0], noted[1], n):
            regions = (cell.region for cell in noted[2].values())
        else:
            for region in self._emitted[self._refined:]:
                self._classes.refine(region)
            self._refined = n
            regions = self._classes.regions.values()
        lefts = sorted(
            (region.parts[0] for region in regions),
            key=lambda part: line_key(part[0]),
        )
        return [_middle_half(lo, hi) for lo, hi in lefts]

    def rank_bound(self, region: LineRegion) -> int:
        """Completeness rank of region; its slot is at most 16 times this."""
        (a, b) = region.parts[0]
        return cantor_pair(rational_rank(a), cw_rank(b - a) - 1) + 1

    def index_of(self, region: LineRegion) -> int:
        pos = self._position.get(region)
        if pos is not None:
            return pos
        stop = self.rank_bound(region)
        while self._b_rank <= stop:
            self._emit_next()
            pos = self._position.get(region)
            if pos is not None:
                return pos
        raise InvariantViolation(
            f"canonical line order failed to reach {region!r}"
        )


class RationalLine(SpaceAdapter):
    """Bounded open rational intervals on the line."""

    name = "rational-line"
    cell_index = _LineCells
    practical_depth = 5

    def __init__(self, injected: Sequence[object] = ()) -> None:
        super().__init__(injected)
        self._stream = _LineStream()

    def _validate_basis(self, region: object) -> None:
        if not isinstance(region, LineRegion) or len(region.parts) != 1:
            raise NotABasisElement(
                f"line basis elements are single bounded intervals, got {region!r}"
            )

    def _canonical_value(self, k: int) -> object:
        return self._stream.value(k)

    def _canonical_index(self, region: object) -> int:
        return self._stream.index_of(region)

    def _canonical_at_most(self, region: object, p: int) -> bool:
        # index_of resolves the query's position first, which extends the
        # stream past p; injected regions absent from the first p slots
        # therefore sit strictly beyond p and need no deep unroll
        pos = self._stream.position(region)
        return pos is not None and pos <= p

    def note_stage(self, stage: Stage) -> None:
        # the stream's slots are this adapter's indices only without an
        # injected prefix
        if stage.adapter is self and not self.injected:
            self._stream.note_stage(stage.index, stage.inserted, stage.cells)

    def meet(self, a: object, b: object) -> object:
        return line_meet(a, b)

    def meet_exterior(self, a: object, v: object) -> object:
        return line_meet_exterior(a, v)

    def closure_strictly_inside(self, a: object, b: object) -> bool:
        return line_closure_strictly_inside(a, b)

    def boundary(self, v: BasisHandle) -> tuple:
        return v.region.parts[0]

    def union(self, a: object, b: object) -> object:
        return line_union(a, b)

    def union_all(self, regions: Iterable[object]) -> object:
        # the parts are canonical already: sort them by key, merge those
        # that overlap and keep touching ones apart, as line_region does
        merged: list[list[tuple]] = []
        for k_lo, k_hi in sorted(
            (line_key(lo), line_key(hi)) for r in regions for lo, hi in r.parts
        ):
            if merged and k_lo < merged[-1][1]:
                if k_hi > merged[-1][1]:
                    merged[-1][1] = k_hi
            else:
                merged.append([k_lo, k_hi])
        return LineRegion(tuple((k_lo[2], k_hi[2]) for k_lo, k_hi in merged))

    def subset(self, a: object, b: object) -> bool:
        return line_subset(a, b)

    def contains_point(self, a: object, point: object) -> bool:
        return line_contains_point(a, point)

    def parse_region(self, text: str) -> object:
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise NotABasisElement(f"expected (p,q), got {text!r}")
        try:
            lo, hi = (Fraction(part.strip()) for part in body[1:-1].split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise NotABasisElement(f"bad interval literal {text!r}: {exc}") from exc
        if not lo < hi:
            raise NotABasisElement(f"interval needs p < q, got {text!r}")
        return interval(lo, hi)

    def format_region(self, region: object) -> str:
        return " u ".join(f"({a},{b})" for a, b in region.parts) or "(empty)"

    def probe_points(self, region: object, against: Iterable[object]) -> list:
        # the quarter points of the first four parts
        probes = []
        for a, b in region.parts[:4]:
            probes.extend(((3 * a + b) / 4, (a + b) / 2, (a + 3 * b) / 4))
        return probes

    def point_hosts(
        self, points: Sequence[object], regions: Sequence[object]
    ) -> list[list[int]]:
        # sort the few points once and bisect each part (a, b) into them:
        # every point strictly inside a part gets the part's region, so
        # overlapping regions each count
        order = sorted(range(len(points)), key=points.__getitem__)
        ordered = [points[k] for k in order]
        hosts: list[list[int]] = [[] for _ in points]
        for n, region in enumerate(regions):
            for a, b in region.parts:
                inside = order[bisect_right(ordered, a):bisect_left(ordered, b)]
                for k in inside:
                    hosts[k].append(n)
        return hosts


# -- Cantor space --------------------------------------------------------------


class CantorSpace(SpaceAdapter):
    """Binary cylinders of the Cantor space, length-then-lexicographic."""

    name = "cantor"
    cell_index = _CantorCells
    practical_depth = 6

    def _validate_basis(self, region: object) -> None:
        if not isinstance(region, CantorRegion) or len(region.prefixes) != 1:
            raise NotABasisElement(
                f"Cantor basis elements are single cylinders, got {region!r}"
            )

    def _canonical_value(self, k: int) -> object:
        return CantorRegion((bin(k)[3:],))

    def _canonical_index(self, region: object) -> int:
        return int("1" + region.prefixes[0], 2)

    def meet(self, a: object, b: object) -> object:
        return cantor_meet(a, b)

    def meet_exterior(self, a: object, v: object) -> object:
        return cantor_minus(a, v)

    def closure_strictly_inside(self, a: object, b: object) -> bool:
        return cantor_closure_strictly_inside(a, b)

    def boundary(self, v: BasisHandle) -> tuple:
        return ()

    def union(self, a: object, b: object) -> object:
        return cantor_union(a, b)

    def union_all(self, regions: Iterable[object]) -> object:
        return cantor_region(p for r in regions for p in r.prefixes)

    def subset(self, a: object, b: object) -> bool:
        return cantor_subset(a, b)

    def contains_point(self, a: object, point: object) -> bool:
        return cantor_contains_point(a, point)

    def parse_region(self, text: str) -> object:
        body = text.strip()
        if body == "-":
            return cantor_region(("",))
        if body and set(body) <= {"0", "1"}:
            return cantor_region((body,))
        raise NotABasisElement(
            f"Cantor literals are 0/1 words or '-' for the whole space, got {text!r}"
        )

    def format_region(self, region: object) -> str:
        if not region.prefixes:
            return "(empty)"
        return " u ".join(p if p else "-" for p in region.prefixes)

    def probe_points(self, region: object, against: Iterable[object]) -> list:
        # the first six prefixes, padded with zeros past every prefix in
        # sight, so each word decides its membership in every cylinder
        words = region.prefixes[:6]
        pad = 8 + max(
            (len(p) for r in (region, *against) for p in r.prefixes), default=0
        )
        return [p + "0" * (pad - len(p)) for p in words]


ADAPTERS = {
    RationalLine.name: RationalLine,
    CantorSpace.name: CantorSpace,
}


def make_adapter(name: str, injected: Iterable[object] = ()) -> SpaceAdapter:
    try:
        cls = ADAPTERS[name]
    except KeyError:
        raise NotABasisElement(f"unknown adapter {name!r}") from None
    return cls(injected=tuple(injected))

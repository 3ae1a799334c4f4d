"""Exact open-region payloads for the two shipped spaces.

A line region is a finite union of open intervals with rational endpoints,
stored sorted and pairwise disjoint.  Intervals that share only an endpoint
are kept separate: (0,1) union (1,2) misses the point 1 and is a different
set from (0,2).

A Cantor-space region is a finite union of cylinders, stored as the unique
canonical antichain of binary prefixes: no member is a prefix of another and
no two siblings w0, w1 are both present (they merge into w).  Cylinders are
clopen, so complements are exact and boundaries are empty.  Antichains are
kept sorted, where a prefix's descendants follow it directly, so each
operation is one walk: a stack pass canonicalizes, meet walks both
antichains side by side, and minus walks x with one bisect into y per
prefix.  Meet and minus build canonical output as they go.

All functions are total and exact; nothing here approximates.  Line
regions compare their ``Fraction`` endpoints directly, with no float
filter: this module is the plain reference that the keyed line cell index
in ``stages`` is checked against (``tests/test_split_oracle.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import InvariantViolation

Interval = tuple[Fraction, Fraction]


class LineRegion:
    """Finite union of disjoint open rational intervals, sorted ascending.

    The hash is computed on first use and kept, since hashing a ``Fraction``
    computes a modular inverse and regions are looked up in dicts and sets
    many times over.
    """

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: tuple[Interval, ...]) -> None:
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LineRegion is immutable")

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LineRegion):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # the slot stays unset until the first hash
            h = hash(self.parts)
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        if not self.parts:
            return "LineRegion(empty)"
        body = " u ".join(f"({a},{b})" for a, b in self.parts)
        return f"LineRegion[{body}]"


def line_region(intervals: Iterable[tuple[Fraction, Fraction]]) -> LineRegion:
    """Build a canonical line region from arbitrary open intervals.

    Degenerate intervals are dropped, overlapping ones are merged; intervals
    that merely touch stay separate because their union misses the shared
    endpoint.
    """
    cleaned = sorted((Fraction(a), Fraction(b)) for a, b in intervals if a < b)
    merged: list[Interval] = []
    for lo, hi in cleaned:
        if merged and lo < merged[-1][1]:
            last_lo, last_hi = merged[-1]
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return LineRegion(tuple(merged))


def interval(a, b) -> LineRegion:
    a = Fraction(a)
    b = Fraction(b)
    if not a < b:
        raise InvariantViolation(f"interval needs a < b, got ({a}, {b})")
    return LineRegion(((a, b),))


def line_meet(x: LineRegion, y: LineRegion) -> LineRegion:
    """Intersection of two unions of open intervals."""
    out: list[Interval] = []
    i = j = 0
    px, py = x.parts, y.parts
    while i < len(px) and j < len(py):
        lo = max(px[i][0], py[j][0])
        hi = min(px[i][1], py[j][1])
        if lo < hi:
            out.append((lo, hi))
        if px[i][1] <= py[j][1]:
            i += 1
        else:
            j += 1
    return LineRegion(tuple(out))


def line_meet_exterior(x: LineRegion, v: LineRegion) -> LineRegion:
    """Intersection of x with the exterior of v.

    The exterior of a finite interval union is the complement of its
    closure, so this is exactly closure subtraction.
    """
    return line_minus_closure(x, v.parts)


def line_minus_closure(x: LineRegion, closed: Sequence[Interval]) -> LineRegion:
    """x minus a union of closed intervals [a, b] sorted by a; exact and open.

    One merge walk: each part of x is cut by the closed intervals that start
    before it ends, from the first one that ends after it starts.
    """
    out: list[Interval] = []
    j = 0
    for lo, hi in x.parts:
        # an interval ending at or before lo misses this part and every later one
        while j < len(closed) and closed[j][1] <= lo:
            j += 1
        cursor = lo
        k = j
        while k < len(closed) and closed[k][0] < hi:
            a, b = closed[k]
            if a > cursor:
                out.append((cursor, a))
            if b > cursor:
                cursor = b
            k += 1
        if cursor < hi:
            out.append((cursor, hi))
    return LineRegion(tuple(out))


def line_union(x: LineRegion, y: LineRegion) -> LineRegion:
    """Union as a point set; overlapping intervals merge, touching ones
    stay separate."""
    return line_region(list(x.parts) + list(y.parts))


def line_subset(x: LineRegion, y: LineRegion) -> bool:
    """x subset of y.  Each x part must sit inside a single y part: y parts
    that merely touch leave the shared endpoint uncovered."""
    for lo, hi in x.parts:
        k = bisect_right(y.parts, lo, key=itemgetter(0)) - 1
        if k < 0 or not (y.parts[k][0] <= lo and hi <= y.parts[k][1]):
            return False
    return True


def line_closure_strictly_inside(x: LineRegion, y: LineRegion) -> bool:
    """closure(x) contained in y with nonempty leftover y \\ closure(x)."""
    if y.is_empty:
        return False
    for lo, hi in x.parts:
        k = bisect_right(y.parts, lo, key=itemgetter(0)) - 1
        if k < 0 or not (y.parts[k][0] < lo and hi < y.parts[k][1]):
            return False
    return True


def line_contains_point(x: LineRegion, p: Fraction) -> bool:
    k = bisect_right(x.parts, p, key=itemgetter(0)) - 1
    return k >= 0 and x.parts[k][0] < p < x.parts[k][1]


# -- Cantor space ----------------------------------------------------------


class CantorRegion:
    """Finite union of cylinders as a canonical antichain of prefixes."""

    __slots__ = ("prefixes",)

    def __init__(self, prefixes: tuple[str, ...]) -> None:
        object.__setattr__(self, "prefixes", prefixes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CantorRegion is immutable")

    @property
    def is_empty(self) -> bool:
        return not self.prefixes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CantorRegion):
            return NotImplemented
        return self.prefixes == other.prefixes

    def __hash__(self) -> int:
        return hash(self.prefixes)

    def __repr__(self) -> str:
        if not self.prefixes:
            return "CantorRegion(empty)"
        body = ", ".join(repr(p) for p in self.prefixes)
        return f"CantorRegion[{body}]"


def cantor_region(prefixes: Iterable[str]) -> CantorRegion:
    """Canonicalize: one stack pass over the sorted words drops those under
    the top and merges a top with its sibling below, cascading."""
    stack: list[str] = []
    for p in sorted(set(prefixes)):
        if p.strip("01"):
            raise InvariantViolation(f"prefix must be over 0/1, got {p!r}")
        if stack and p.startswith(stack[-1]):
            continue
        stack.append(p)
        while (
            len(stack) > 1
            and stack[-1].endswith("1")
            and stack[-2] == stack[-1][:-1] + "0"
        ):
            stack.pop()
            stack[-1] = stack[-1][:-1]
    return CantorRegion(tuple(stack))


def cantor_meet(x: CantorRegion, y: CantorRegion) -> CantorRegion:
    """Intersection by one walk over both antichains; the smaller of two
    nested cylinders is their meet.  The output is canonical as built: no
    word has both children in it, as neither x nor y does."""
    out = []
    px, py = x.prefixes, y.prefixes
    i = j = 0
    while i < len(px) and j < len(py):
        p, q = px[i], py[j]
        if p.startswith(q):
            out.append(p)
            i += 1
        elif q.startswith(p):
            out.append(q)
            j += 1
        elif p < q:
            i += 1
        else:
            j += 1
    return CantorRegion(tuple(out))


def cantor_minus(x: CantorRegion, y: CantorRegion) -> CantorRegion:
    """x minus y by one walk over the prefixes p of x.

    The y prefixes are an antichain, so only the greatest one <= p can hold
    p, and the ones under p follow it directly.  A held p is dropped; any
    other p splits down the trie into the cylinders those ones miss.
    """
    py = y.prefixes
    out: list[str] = []
    for p in x.prefixes:
        k = bisect_right(py, p)
        if k and p.startswith(py[k - 1]):
            continue
        # (w, lo, hi): py[lo:hi] are the y prefixes under w; 0-side first
        todo = [(p, k, bisect_left(py, p + "2", k))]
        while todo:
            w, lo, hi = todo.pop()
            if lo == hi:
                out.append(w)
            elif py[lo] != w:
                mid = bisect_left(py, w + "1", lo, hi)
                todo += [(w + "1", mid, hi), (w + "0", lo, mid)]
    return CantorRegion(tuple(out))


def cantor_union(x: CantorRegion, y: CantorRegion) -> CantorRegion:
    return cantor_region(x.prefixes + y.prefixes)


def cantor_subset(x: CantorRegion, y: CantorRegion) -> bool:
    return cantor_meet(x, y) == x


def cantor_closure_strictly_inside(x: CantorRegion, y: CantorRegion) -> bool:
    """Cylinders are closed, so this is subset plus strictness."""
    return cantor_subset(x, y) and x != y


def cantor_contains_point(x: CantorRegion, point: str) -> bool:
    """Membership for a point given as a long binary word (a finite stand-in
    for an infinite sequence; callers supply words longer than any prefix)."""
    return any(point.startswith(p) for p in x.prefixes)

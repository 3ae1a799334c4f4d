"""Boundary-annihilating insertion schedules.

``build_schedule`` arranges the basis into blocks R(i, j) in the order of
``adapters.diagonal_walk``: R(1,1), R(2,1), R(1,2), R(3,1), R(2,2), R(1,3),
...; depth d takes the first d diagonals.  Every block covers the boundary
of V_i with one finite subcover.  Block (i, 1) covers it unconstrained.
Block (i, j) for j >= 2 first selects one hole per current cell (a basis
element whose closure sits strictly inside the cell) and covers inside the
previous cover minus the hole closures, a constraint it forms only when
V_i has boundary points (Cantor cylinders have none).  Every block also
sweeps in the unselected indices of its contiguous range, so the flattened
schedule is a permutation of an initial segment of the basis.

Within a block the holes are inserted first, in ascending index order, and
the cover and remainder indices follow, merged ascending.  Holes must land
before anything else can split their host cells: that is what makes the
exact identity "mass outside the hole closures = half the cover mass" hold,
which the boundary certificates rely on.

Ranges are contiguous: block bound g is the largest selected index (never
below the previous bound, and at least i so V_i itself always enters the
stream no later than its first cover block).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import wraps
from itertools import islice

from .adapters import BasisHandle, DEFAULT_SCAN_CAP, SpaceAdapter, diagonal_walk
from .errors import ConfigError, ScanExhausted, StageTooEarly
from .stages import Stage, StageBuilder, StepRecord
from .stages import decompose  # unused here: the benchmark tracer patches this name


@dataclass(frozen=True)
class ScheduleBlock:
    """One block R(i, j): selected families and its contiguous index range.

    ``cover``, ``holes`` and ``remainder`` are original basis indices in
    ascending order, and ``g`` is the block's range bound.
    """

    i: int
    j: int
    cover: tuple[int, ...]
    holes: tuple[int, ...]
    remainder: tuple[int, ...]
    g: int


@dataclass(frozen=True)
class Schedule:
    """All blocks of a finished run plus the flattened insertion stream."""

    adapter: SpaceAdapter
    depth: int
    blocks: tuple[ScheduleBlock, ...]
    stream: tuple[BasisHandle, ...]

    def block(self, i: int, j: int) -> ScheduleBlock:
        for b in self.blocks:
            if b.i == i and b.j == j:
                return b
        raise StageTooEarly(
            f"schedule of depth {self.depth} has no block ({i},{j})"
        )

    @property
    def permutation(self) -> tuple[int, ...]:
        return tuple(h.index for h in self.stream)


class Trace:
    """Stage sequence of a schedule run.

    Full snapshots are kept at block boundaries; any other stage is rebuilt
    on demand by replaying the stream from the first insertion.  Step
    records carry the exact per-insertion mass accounting for the whole
    run, so conservation can be audited without materializing every stage.
    """

    def __init__(
        self,
        adapter: SpaceAdapter,
        stream: tuple[BasisHandle, ...],
        records: tuple[StepRecord, ...],
        snapshots: dict[int, Stage],
    ) -> None:
        self.adapter = adapter
        self.stream = stream
        self.records = records
        self._snapshots = snapshots

    def __len__(self) -> int:
        return len(self.stream)

    @property
    def final(self) -> Stage:
        return self._snapshots[len(self.stream)]

    @property
    def snapshot_positions(self) -> tuple[int, ...]:
        return tuple(sorted(self._snapshots))

    def stage_at(self, position: int) -> Stage:
        if position < 1 or position > len(self.stream):
            raise StageTooEarly(
                f"trace has stages 1..{len(self.stream)}, asked for {position}"
            )
        cached = self._snapshots.get(position)
        if cached is not None:
            return cached
        builder = StageBuilder(self.adapter)
        for h in self.stream[:position]:
            builder.insert(h)
        return builder.snapshot()

    def stages(self, stop: int | None = None):
        """Stages 1..stop, or all, one at a time, replayed from the first
        insertion by ``StageBuilder.run``; meant for short traces."""
        if stop is not None and not 0 <= stop <= len(self.stream):
            raise StageTooEarly(
                f"trace has stages 1..{len(self.stream)}, asked for 1..{stop}"
            )
        yield from StageBuilder(self.adapter).run(self.stream[:stop])


def _hole_sweep(
    adapter: SpaceAdapter,
    builder: StageBuilder,
    min_index: int,
) -> list[BasisHandle]:
    """One hole per current cell, in the ascending order of one index scan.

    A candidate's closure fits strictly inside at most one cell because
    cells are disjoint, so assigning each admissible candidate to its host
    as the scan walks upward selects exactly the least admissible index for
    every cell, the same family a cell-by-cell rescan would pick.
    """
    pending = set(builder.cells)
    found: list[BasisHandle] = []
    k = min_index
    stop = min_index + DEFAULT_SCAN_CAP
    while pending:
        if k >= stop:
            raise ScanExhausted(
                f"{len(pending)} cells still holeless after {DEFAULT_SCAN_CAP} indices"
            )
        h = adapter.enumerate(k)
        host = builder.locate_host(h.region)
        if host is not None and host in pending:
            found.append(h)
            pending.discard(host)
        k += 1
    return found


def _collector_paused(fn):
    """Run fn with the cyclic garbage collector off, then restore it.

    The collector is switched back on afterwards only if it was on before,
    also when fn raises.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


@_collector_paused
def build_schedule(adapter: SpaceAdapter, depth: int) -> tuple[Schedule, Trace]:
    """Run the diagonal block construction to the given depth.

    Each block ends in a snapshot, which the adapter hears of through
    ``note_stage``.  Every hole and cover scan inspects at most
    ``DEFAULT_SCAN_CAP`` indices and raises ScanExhausted past them.

    The build runs with CPython's cyclic garbage collector paused.  The
    shipped adapters and the stage engine build no reference cycles, so
    reference counting frees everything a build drops, and a deep build
    no longer pays for collections that walk its growing heap and find
    nothing.  The pause is process-wide: other threads run without the
    collector until the build returns, and cyclic garbage that a
    third-party adapter makes during a build waits until then too.  A
    collector that was disabled before the call stays disabled.

    Raises ConfigError for a depth below 1.
    """
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    builder = StageBuilder(adapter)
    blocks: list[ScheduleBlock] = []
    stream: list[BasisHandle] = []
    snapshots: dict[int, Stage] = {}
    prev_cover_region: dict[int, object] = {}
    frontier = 0
    for i, j in islice(diagonal_walk(), depth * (depth + 1) // 2):
        holes: list[BasisHandle] = []
        if j >= 2:
            holes = _hole_sweep(adapter, builder, frontier + 1)
        hole_set = {h.index for h in holes}
        points = adapter.boundary(adapter.enumerate(i))
        constraint = None
        if points and j >= 2:
            # the exterior of a finite union is the meet of the exteriors
            constraint = adapter.meet_exterior(
                prev_cover_region[i], adapter.union_all(h.region for h in holes)
            )
        cover = adapter.finite_subcover(
            points, constraint, hole_set, frontier + 1, DEFAULT_SCAN_CAP
        )
        cover_set = {h.index for h in cover}
        selected = hole_set | cover_set
        g = max([frontier, i, *selected])
        remainder = tuple(
            k for k in range(frontier + 1, g + 1) if k not in selected
        )
        order = sorted(hole_set) + sorted(cover_set | set(remainder))
        for k in order:
            handle = adapter.enumerate(k)
            builder.insert(handle)
            stream.append(handle)
        blocks.append(
            ScheduleBlock(
                i=i,
                j=j,
                cover=tuple(sorted(cover_set)),
                holes=tuple(sorted(hole_set)),
                remainder=remainder,
                g=g,
            )
        )
        prev_cover_region[i] = adapter.union_all(h.region for h in cover)
        stage = snapshots[len(stream)] = builder.snapshot()
        adapter.note_stage(stage)
        frontier = g
    schedule = Schedule(
        adapter=adapter,
        depth=depth,
        blocks=tuple(blocks),
        stream=tuple(stream),
    )
    trace = Trace(adapter, schedule.stream, tuple(builder.records), snapshots)
    return schedule, trace


"""Diagonal block schedule: contiguous ranges, hole sweeps, trace replay."""

import gc
from itertools import islice

import pytest

from dyadicmeasure.adapters import RationalLine, diagonal_walk, make_adapter
from dyadicmeasure.dyadic import DyadicMass
from dyadicmeasure.errors import ConfigError, ScanExhausted, StageTooEarly
from dyadicmeasure.scheduling import build_schedule


@pytest.fixture(scope="module")
def line_d2():
    adapter = make_adapter("rational-line")
    schedule, trace = build_schedule(adapter, 2)
    return adapter, schedule, trace


@pytest.fixture(scope="module")
def cantor_d3():
    adapter = make_adapter("cantor")
    schedule, trace = build_schedule(adapter, 3)
    return adapter, schedule, trace


# -- frozen structure ---------------------------------------------------------


@pytest.mark.parametrize("name", ["rational-line", "cantor"])
def test_depth3_blocks_follow_the_diagonal_walk(name):
    schedule, _ = build_schedule(make_adapter(name), 3)
    assert [(b.i, b.j) for b in schedule.blocks] == list(
        islice(diagonal_walk(), 6)
    )


def test_line_depth2_blocks(line_d2):
    _, schedule, _ = line_d2
    assert [(b.i, b.j) for b in schedule.blocks] == [(1, 1), (2, 1), (1, 2)]
    b11 = schedule.block(1, 1)
    assert b11.cover == (7, 8)
    assert b11.holes == ()
    assert b11.remainder == (1, 2, 3, 4, 5, 6)
    assert b11.g == 8
    b21 = schedule.block(2, 1)
    assert b21.cover == (9, 10)
    assert b21.remainder == ()
    assert b21.g == 10
    b12 = schedule.block(1, 2)
    assert b12.holes == (11, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22, 23, 24)
    assert b12.cover == (25, 26)
    assert b12.remainder == (16,)
    assert b12.g == 26


def test_renamed_adapter_subclass_builds_the_same_blocks(line_d2):
    """The stage engine takes its cell index from the adapter class, so a
    subclass under another name needs no registration."""

    class MyLine(RationalLine):
        name = "my-line"

    schedule, trace = build_schedule(MyLine(), 2)
    assert schedule.blocks == line_d2[1].blocks
    assert len(trace) == len(line_d2[2])


# -- the cyclic collector ------------------------------------------------------


@pytest.mark.parametrize("name, depth", [("rational-line", 4), ("cantor", 5)])
def test_a_dropped_build_leaves_no_cyclic_garbage(name, depth):
    """A build's state holds no reference cycle, so reference counting
    frees all of it once the schedule, trace and adapter are dropped."""
    gc.collect()
    adapter = make_adapter(name)
    schedule, trace = build_schedule(adapter, depth)
    assert len(trace) == {"rational-line": 1526, "cantor": 4094}[name]
    del adapter, schedule, trace
    assert gc.collect() == 0


class _CollectorWatch(RationalLine):
    """A line adapter that records whether the collector runs at each
    block boundary."""

    def __init__(self):
        super().__init__()
        self.collector_on: list[bool] = []

    def note_stage(self, stage):
        self.collector_on.append(gc.isenabled())
        super().note_stage(stage)


@pytest.mark.parametrize("enabled", [True, False])
def test_build_pauses_the_collector_and_restores_it(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        adapter = _CollectorWatch()
        build_schedule(adapter, 2)
        assert adapter.collector_on == [False, False, False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_a_failed_build_restores_the_collector(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(ScanExhausted):
            build_schedule(make_adapter("rational-line"), 2, scan_cap=1)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("name", ["rational-line", "cantor"])
@pytest.mark.parametrize("depth", [0, -1, -3])
def test_a_depth_below_one_is_a_config_error(name, depth):
    with pytest.raises(ConfigError, match=f"depth must be >= 1, got {depth}"):
        build_schedule(make_adapter(name), depth)


@pytest.mark.parametrize("name", ["rational-line", "cantor"])
def test_a_scan_cap_below_one_is_a_config_error(name):
    with pytest.raises(ConfigError, match="scan_cap must be >= 1, got 0"):
        build_schedule(make_adapter(name), 2, scan_cap=0)


def test_line_depth2_permutation(line_d2):
    _, schedule, _ = line_d2
    assert schedule.permutation == (
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
        11, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22, 23, 24, 16, 25, 26,
    )


def test_line_depth2_final_stage(line_d2):
    _, schedule, trace = line_d2
    assert len(trace) == 26
    assert trace.snapshot_positions == (8, 10, 26)
    assert len(trace.final.cells) == 32
    assert trace.final.total_mass == DyadicMass(897, 10)


def test_cantor_depth3_blocks(cantor_d3):
    _, schedule, trace = cantor_d3
    assert [(b.i, b.j) for b in schedule.blocks] == [
        (1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3),
    ]
    assert [b.g for b in schedule.blocks] == [1, 2, 6, 6, 14, 30]
    # no boundary points, so every cover is empty
    assert all(b.cover == () for b in schedule.blocks)
    assert schedule.block(1, 2).holes == (4, 6)
    assert schedule.block(1, 2).remainder == (3, 5)
    assert schedule.block(2, 2).holes == (8, 10, 12, 14)
    assert schedule.block(1, 3).holes == tuple(range(16, 31, 2))
    assert len(trace.final.cells) == 16
    assert trace.final.total_mass == DyadicMass.pow2(1)


# -- structural invariants ----------------------------------------------------


def _assert_partition(schedule):
    prev_g = 0
    last = 0
    for b in schedule.blocks:
        members = set(b.holes) | set(b.cover) | set(b.remainder)
        assert members == set(range(prev_g + 1, b.g + 1))
        assert b.g >= prev_g
        prev_g = b.g
        last = b.g
    assert sorted(schedule.permutation) == list(range(1, last + 1))


def test_blocks_partition_index_ranges(line_d2, cantor_d3):
    _assert_partition(line_d2[1])
    _assert_partition(cantor_d3[1])


def test_block_internal_order(line_d2):
    _, schedule, _ = line_d2
    b = schedule.block(1, 2)
    start = schedule.permutation.index(b.holes[0])
    segment = schedule.permutation[start:start + b.g - 10]
    # holes go in first, ascending; cover and remainder merge after
    assert segment[:len(b.holes)] == b.holes
    assert segment[len(b.holes):] == tuple(sorted(b.cover + b.remainder))


def test_hole_hosts_are_pending_cells(line_d2):
    adapter, schedule, trace = line_d2
    b = schedule.block(1, 2)
    before = trace.stage_at(10)
    hosts = []
    for hole_index in b.holes:
        hole = adapter.enumerate(hole_index).region
        inside = [
            cid
            for cid, cell in before.cells.items()
            if adapter.closure_strictly_inside(hole, cell.region)
        ]
        assert len(inside) == 1
        hosts += inside
    # one hole per cell of the stage before the block
    assert sorted(hosts) == sorted(before.cells)


def test_missing_block_raises(line_d2):
    _, schedule, _ = line_d2
    with pytest.raises(StageTooEarly):
        schedule.block(3, 1)
    with pytest.raises(StageTooEarly):
        schedule.block(2, 2)


# -- trace --------------------------------------------------------------------


def test_stage_at_matches_sequential_replay(line_d2, cantor_d3):
    """Every stage, a snapshot or a replay, is the stage the sequential
    run reaches there, cell for cell."""
    for _, _, trace in (line_d2, cantor_d3):
        for position, stage in enumerate(trace.stages(), start=1):
            direct = trace.stage_at(position)
            assert direct.index == position
            assert direct.inserted == stage.inserted
            assert direct.total_mass == stage.total_mass
            # cells compare by id, region, mass, kind, parent and birth
            assert direct.cells == stage.cells
        assert position == len(trace)


def test_stage_at_bounds(line_d2):
    _, _, trace = line_d2
    with pytest.raises(StageTooEarly):
        trace.stage_at(0)
    with pytest.raises(StageTooEarly):
        trace.stage_at(27)


def test_stages_stop_bounds(line_d2):
    """A stop is a stage count: 0..len(trace), never a slice from the end."""
    _, _, trace = line_d2
    assert list(trace.stages(0)) == []
    assert [s.index for s in trace.stages(len(trace))] == list(
        range(1, len(trace) + 1)
    )
    for stop in (-1, len(trace) + 1):
        with pytest.raises(StageTooEarly):
            list(trace.stages(stop))


def test_records_cover_every_position(line_d2):
    _, _, trace = line_d2
    assert [r.position for r in trace.records] == list(range(1, 27))
    assert trace.records[-1].total_after == trace.final.total_mass


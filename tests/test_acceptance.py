"""Acceptance suite: the eleven certified claims, exact arithmetic throughout.

Each test prints one pass line on success; a failed assertion keeps the
line from printing, so the printed list is the scoreboard.  Everything is
checked at tolerance zero: dyadic equality or exact Fraction comparison.
The last three tests pin the depth-5 line schedule and basis by digest,
the basis both as a schedule reads it and as a bare enumeration makes it,
and check the enumeration's signature classes against an insertion run.
"""

import hashlib
import random
import time
from fractions import Fraction as F

import pytest

from dyadicmeasure import cli
from dyadicmeasure.adapters import BasisHandle, make_adapter
from dyadicmeasure.certificates import (
    build_partition,
    certify_boundary,
    certify_max_decay,
    check_additivity,
    check_conservation,
    check_consistency,
    check_permutation_invariance,
    check_positivity,
)
from dyadicmeasure.dyadic import DyadicMass
from dyadicmeasure.regions import interval
from dyadicmeasure.scheduling import build_schedule
from dyadicmeasure.stages import StageBuilder

T1_PREFIX = [interval(0, 2), interval(1, 3), interval(F(9, 4), F(11, 4))]

# sha256 of `dyadicmeasure schedule --adapter rational-line --depth 5`, the
# digest the benchmark's line-build-d5 gate holds
LINE_SCHEDULE_D5 = (
    "ef3f95db37df948ee7483ed5faf188ca49cff03acdb52a6dba01169d07a3d391"
)
# sha256 of the first 27,436 line regions, one formatted region per line
LINE_REGIONS_27436 = (
    "2f9319abd6aa1b757c9f26350d6fddcb0f3d64ec739eb53cc7924a668fda6f29"
)


def _report(number: int, text: str) -> None:
    print(f"criterion {number:02d} PASS: {text}")


@pytest.fixture(scope="module")
def line_d5():
    adapter = make_adapter("rational-line")
    started = time.perf_counter()
    schedule, trace = build_schedule(adapter, 5)
    return adapter, schedule, trace, time.perf_counter() - started


@pytest.fixture(scope="module")
def cantor_d5():
    adapter = make_adapter("cantor")
    schedule, trace = build_schedule(adapter, 5)
    return adapter, schedule, trace


def test_criterion_01_figure_reproduction():
    started = time.perf_counter()
    adapter = make_adapter("rational-line", injected=T1_PREFIX)
    builder = StageBuilder(adapter)
    multisets = []
    for index in (1, 2, 3):
        builder.insert(adapter.enumerate(index))
        stage = builder.snapshot()
        multisets.append(
            sorted((c.mass.as_fraction() for c in stage.cells.values()),
                   reverse=True)
        )
    assert multisets == [
        [F(1, 2)],
        [F(1, 4), F(1, 4), F(1, 4)],
        [F(1, 4), F(1, 4), F(1, 8), F(1, 8)],
    ]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"stage masses {{1/2}}, {{1/4 x3}}, {{1/4 x2, 1/8 x2}} "
               f"in {elapsed:.3f}s")


def test_criterion_02_halving_chain(line_d5):
    _, schedule, trace, build_seconds = line_d5
    started = time.perf_counter()
    for i in (1, 2):
        cert = certify_boundary(schedule, trace, i)
        for prev, nxt in zip(cert.links, cert.links[1:]):
            assert nxt.bound.as_fraction() <= prev.bound.as_fraction() / 2
            # hole identity: boring the next sweep's holes removes exactly half
            assert prev.trimmed == prev.bound.halve()
        assert cert.links[-1].trimmed is None
    chain1 = [str(k.bound) for k in certify_boundary(schedule, trace, 1).links]
    assert chain1 == ["11/2^5", "1/2^4", "1/2^8", "1/2^13", "1/2^19"]
    elapsed = build_seconds + (time.perf_counter() - started)
    assert elapsed < 60.0
    _report(2, f"halving chains exact for i=1,2 through m=5; "
               f"{elapsed:.1f}s incl. build")


def test_criterion_03_boundary_bound(line_d5):
    _, schedule, trace, _ = line_d5
    cert = certify_boundary(schedule, trace, 1, j_max=5)
    assert cert.j_max == 5
    assert cert.derived_bound == cert.links[0].bound.scaled_down(4)
    assert cert.final_bound.as_fraction() <= (
        cert.links[0].bound.as_fraction() / 16
    )
    _report(3, f"kappa*(bd V_1) <= {cert.final_bound} <= "
               f"{cert.links[0].bound} / 2^4")


def test_criterion_04_max_decay(line_d5):
    _, schedule, trace, _ = line_d5
    values = [certify_max_decay(schedule, trace, m) for m in (1, 2, 3, 4)]
    for m, value in enumerate(values, start=1):
        assert value.as_fraction() <= F(1, 2 ** (m - 1))
    assert [str(v) for v in values] == ["1/2^2", "1/2^4", "1/2^6", "1/2^9"]
    _report(4, "max cell mass <= 2^(1-m) for m=1..4: " +
               ", ".join(str(v) for v in values))


def test_criterion_05_additivity(line_d5, cantor_d5):
    _, _, line_trace, _ = line_d5
    _, _, cantor_trace = cantor_d5
    for trace, name in ((line_trace, "line"), (cantor_trace, "cantor")):
        report = check_additivity(trace.stage_at(12), 1000, seed=0)
        assert report.disjoint_pairs == 1000
        assert report.covers == 1000
    _report(5, "1000 seeded disjoint pairs and covers exact on both adapters")


def test_criterion_06_consistency(line_d5, cantor_d5):
    _, _, line_trace, _ = line_d5
    _, _, cantor_trace = cantor_d5
    for trace in (line_trace, cantor_trace):
        report = check_consistency(
            list(trace.stages(12)), per_stage=200, seed=0
        )
        assert report.elements_checked == 12 * 200
    _report(6, "2400 sampled elements per adapter keep kappa at all later "
               "stages")


def _audit_split_window(trace, stop):
    prev = None
    for stage in trace.stages(stop):
        if prev is not None:
            by_parent = {}
            for cell in stage.cells.values():
                if cell.birth_stage != stage.index:
                    continue
                if cell.parent_id is None:
                    # a fresh grant is exactly 2^-k
                    assert cell.mass.as_fraction() == F(1, 2 ** stage.index)
                    continue
                by_parent.setdefault(cell.parent_id, []).append(
                    cell.mass.as_fraction()
                )
            for parent_id, masses in by_parent.items():
                assert sum(masses) == prev.cells[parent_id].mass.as_fraction()
        prev = stage


def test_criterion_07_conservation(line_d5, cantor_d5):
    _, _, line_trace, _ = line_d5
    _, _, cantor_trace = cantor_d5
    line_report = check_conservation(line_trace)
    assert line_report.positions == len(line_trace)
    assert line_report.final_total == line_trace.final.total_mass
    cantor_report = check_conservation(cantor_trace)
    assert cantor_report.positions == len(cantor_trace)
    assert cantor_report.final_total == DyadicMass.pow2(1)
    _audit_split_window(line_trace, 12)
    _audit_split_window(cantor_trace, 12)
    _report(7, f"ledgers exact over {line_report.positions} + "
               f"{cantor_report.positions} insertions; split children sum "
               f"to parents")


def test_criterion_08_partition(line_d5):
    _, schedule, trace, _ = line_d5
    epsilon = DyadicMass.pow2(3)
    cert = build_partition(schedule, trace, epsilon)
    assert cert.m == 4
    bound = F(1, 8)
    assert cert.max_piece.as_fraction() <= bound
    assert all(p.mass.as_fraction() <= bound for p in cert.pieces)
    assert cert.tail_bound.as_fraction() <= bound
    assert cert.boundary_bound.as_fraction() <= bound
    assert len(cert.pieces) == len(trace.stage_at(cert.stage_index).cells)
    _report(8, f"partition at stage {cert.stage_index}: {len(cert.pieces)} "
               f"pieces <= 1/8, tail {cert.tail_bound}, boundary "
               f"{cert.boundary_bound}")


def test_criterion_09_positivity():
    line = check_positivity(make_adapter("rational-line"), 50)
    cantor = check_positivity(make_adapter("cantor"), 50)
    assert not line.min_kappa.is_zero
    assert not cantor.min_kappa.is_zero
    _report(9, f"first 50 insertions positive; minima {line.min_kappa} "
               f"(line), {cantor.min_kappa} (cantor)")


def test_criterion_10_cantor_degenerate(cantor_d5):
    _, schedule, trace = cantor_d5
    # every boundary certificate is exactly zero at every j
    for i in (1, 2, 3, 4, 5):
        cert = certify_boundary(schedule, trace, i)
        assert all(link.bound.is_zero for link in cert.links)
        assert all(
            link.trimmed.is_zero for link in cert.links if link.trimmed
        )
    # stage totals obey total <= 1 - 2^-k exactly, at every position
    for rec in trace.records:
        assert rec.total_after.as_fraction() <= 1 - F(1, 2 ** rec.position)
    for m in (1, 2, 3, 4):
        value = certify_max_decay(schedule, trace, m)
        assert value.as_fraction() <= F(1, 2 ** (m - 1))
    cert = build_partition(schedule, trace, DyadicMass.pow2(3))
    assert cert.boundary_bound.is_zero
    assert all(p.mass.as_fraction() <= F(1, 8) for p in cert.pieces)
    assert check_additivity(trace.stage_at(12), 1000, seed=0).covers == 1000
    assert check_consistency(
        list(trace.stages(12)), per_stage=200, seed=0
    ).elements_checked == 2400
    assert check_conservation(trace).final_total == DyadicMass.pow2(1)
    assert not check_positivity(make_adapter("cantor"), 50).min_kappa.is_zero
    _report(10, f"cantor rerun: zero boundary bounds, exact totals across "
                f"{len(trace.records)} stages, partition boundary 0")


def test_criterion_11_permutation_invariance():
    adapter = make_adapter("rational-line")
    prefix = [adapter.enumerate(i).region for i in range(1, 7)]
    probes = [
        interval(0, 1),
        interval(1, 2),
        interval(F(-3, 4), F(-1, 4)),
        interval(0, F(1, 2)),  # stays outside the ring in every order
        interval(0, 2),
    ]
    rng = random.Random(2026)
    checked = 0
    for _ in range(10):
        permutation = tuple(rng.sample(range(1, 7), 6))
        report = check_permutation_invariance(
            adapter, prefix, permutation, probes
        )
        for entry in report.entries:
            assert (entry.stage_original is None) == (
                entry.stage_permuted is None
            )
        unrep = [e for e in report.entries if e.region_text == "(0,1/2)"]
        assert unrep[0].stage_original is None
        checked += len(report.entries)
    _report(11, f"{checked} probe memberships agree across 10 seeded "
                f"permutations")


def _stream_indices(name, depth):
    _, trace = build_schedule(make_adapter(name), depth)
    return [h.index for h in trace.stream]


def test_line_streams_are_prefixes_of_deeper_ones(line_d5):
    """verify samples its first stages from the shallowest schedule that
    has them, which holds because a depth-d stream starts every deeper
    one: line depths 1-4, each against the next."""
    streams = [_stream_indices("rational-line", d) for d in range(1, 5)]
    streams.append([h.index for h in line_d5[2].stream])
    assert [len(s) for s in streams] == [8, 26, 155, 1526, 27436]
    for short, deep in zip(streams, streams[1:]):
        assert deep[: len(short)] == short


def test_cantor_streams_are_prefixes_of_deeper_ones(cantor_d5):
    """Cantor depths 1-5, each against the next."""
    streams = [_stream_indices("cantor", d) for d in range(1, 5)]
    streams.append([h.index for h in cantor_d5[2].stream])
    streams.append(_stream_indices("cantor", 6))
    assert len(streams[2]) == 30 and len(streams[4]) == 4094
    for short, deep in zip(streams, streams[1:]):
        assert len(deep) > len(short) and deep[: len(short)] == short


def test_cantor_depth5_splits_pinned(cantor_d5):
    """2,047 splits over 4,094 insertions, never two in one insertion:
    nested or disjoint cylinders split at most one cell each."""
    splits = [rec.splits for rec in cantor_d5[2].records]
    assert sum(splits) == 2047 and max(splits) == 1


def test_line_depth5_outputs_pinned(line_d5, monkeypatch, tmp_path):
    adapter, schedule, trace, _ = line_d5
    # the schedule command prints the fixture's schedule instead of a rebuild
    monkeypatch.setattr(cli, "build_schedule", lambda *args: (schedule, trace))
    out = tmp_path / "schedule.json"
    assert cli.main(["schedule", "--depth", "5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LINE_SCHEDULE_D5
    assert len(trace) == 27436
    regions = "".join(
        adapter.format_region(adapter.enumerate(k).region) + "\n"
        for k in range(1, 27437)
    )
    digest = hashlib.sha256(regions.encode("utf-8")).hexdigest()
    assert digest == LINE_REGIONS_27436
    # every pack read its classes from a stage the schedule noted
    assert adapter._stream._refined == 0


def test_line_depth5_regions_pinned_without_a_schedule():
    """A bare enumeration has no schedule stages to read its classes from,
    so its stream refines its own class index: the same 27,436 regions."""
    adapter = make_adapter("rational-line")
    regions = "".join(
        adapter.format_region(adapter.enumerate(k).region) + "\n"
        for k in range(1, 27437)
    )
    digest = hashlib.sha256(regions.encode("utf-8")).hexdigest()
    assert digest == LINE_REGIONS_27436
    assert adapter._stream._refined == 13370


def test_line_stream_classes_are_stage_cells():
    """The enumeration's massless classes are the cells of an insertion.

    Emitting slot 1,529 opens the (4,2) pack, which reads the classes of
    the first 1,528 emissions.
    """
    adapter = make_adapter("rational-line")
    stream = adapter._stream
    stream.value(1529)
    builder = StageBuilder(adapter)
    for k in range(1, 1529):
        builder.insert(BasisHandle(k, stream.value(k)))
    assert stream._refined == 1528
    assert stream._classes.regions == {
        cid: cell.region for cid, cell in builder.cells.items()
    }

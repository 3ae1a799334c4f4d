"""Certified bounds: boundary chains, decay, additivity, partitions."""

from dataclasses import replace
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import dyadicmeasure.certificates as certs
from dyadicmeasure.adapters import RationalLine, make_adapter
from dyadicmeasure.certificates import (
    build_partition,
    certify_boundary,
    certify_max_decay,
    check_additivity,
    check_conservation,
    check_consistency,
    check_permutation_invariance,
    check_positivity,
    fragmentation_level,
    to_json,
)
from dyadicmeasure.dyadic import ONE, ZERO, DyadicMass
from dyadicmeasure.errors import (
    AdditivityViolation,
    ChainViolation,
    ConfigError,
    DecayViolation,
    EmptyStage,
    InsufficientDepth,
    InvariantViolation,
    MembershipViolation,
    StageTooEarly,
    VerificationViolation,
)
from dyadicmeasure.regions import cantor_region, interval
from dyadicmeasure.scheduling import build_schedule
from dyadicmeasure.stages import (
    Cell,
    RingElement,
    Stage,
    StageBuilder,
    StepRecord,
    decompose,
)


@pytest.fixture(scope="module")
def line_d3():
    adapter = make_adapter("rational-line")
    schedule, trace = build_schedule(adapter, 3)
    return adapter, schedule, trace


@pytest.fixture(scope="module")
def cantor_d3():
    adapter = make_adapter("cantor")
    schedule, trace = build_schedule(adapter, 3)
    return adapter, schedule, trace


# -- boundary chains ----------------------------------------------------------


def test_boundary_chain_row1(line_d3):
    _, schedule, trace = line_d3
    cert = certify_boundary(schedule, trace, 1)
    assert cert.j_max == 3
    rows = [(k.j, str(k.bound), str(k.trimmed) if k.trimmed else None)
            for k in cert.links]
    assert rows == [
        (1, "11/2^5", "11/2^6"),
        (2, "1/2^4", "1/2^5"),
        (3, "1/2^8", None),
    ]
    assert cert.final_bound == DyadicMass(1, 8)
    assert cert.derived_bound == DyadicMass(11, 7)
    assert cert.probe_points == 18


def test_boundary_chain_deeper_rows(line_d3):
    _, schedule, trace = line_d3
    cert2 = certify_boundary(schedule, trace, 2)
    assert [str(k.bound) for k in cert2.links] == ["129/2^10", "81/2^13"]
    assert cert2.probe_points == 12
    cert3 = certify_boundary(schedule, trace, 3)
    assert [str(k.bound) for k in cert3.links] == ["3670017/2^27"]
    assert cert3.derived_bound == cert3.final_bound


def test_boundary_chain_halving_is_checked(line_d3, monkeypatch):
    _, schedule, trace = line_d3
    monkeypatch.setattr(certs, "kappa", lambda stage, d: DyadicMass(3, 6))
    with pytest.raises(ChainViolation):
        certify_boundary(schedule, trace, 1)


def test_chain_violation_names_stage_and_block(line_d3, monkeypatch):
    # a constant kappa: trimming the first cover does not halve it
    _, schedule, trace = line_d3
    monkeypatch.setattr(certs, "kappa", lambda stage, d: DyadicMass(3, 6))
    with pytest.raises(ChainViolation) as err:
        certify_boundary(schedule, trace, 2)
    assert err.value.block == (2, 1)
    assert err.value.stage == trace.final.index


def _with_block(schedule, i, j, **changes):
    """The schedule with block (i, j)'s fields changed as given."""
    blocks = tuple(
        replace(b, **changes) if (b.i, b.j) == (i, j) else b
        for b in schedule.blocks
    )
    return replace(schedule, blocks=blocks)


def test_hole_identity_is_checked_on_its_own(line_d3):
    """Without the (1,2) holes the first cover is not halved, though every
    cover is still at most half the one before: only the hole identity
    fails."""
    _, schedule, trace = line_d3
    doctored = _with_block(schedule, 1, 2, holes=())
    with pytest.raises(ChainViolation, match="hole identity failed") as err:
        certify_boundary(doctored, trace, 1)
    assert (err.value.stage, err.value.block) == (trace.final.index, (1, 1))


def test_chain_inequality_is_checked_on_its_own(line_d3):
    """With the (1,1) cover repeated as the (1,2) cover, each hole family
    still halves the cover before it, but the second cover is not at most
    half the first: only the chain inequality fails."""
    _, schedule, trace = line_d3
    doctored = _with_block(schedule, 1, 2, cover=schedule.block(1, 1).cover)
    with pytest.raises(ChainViolation, match="halving chain broken") as err:
        certify_boundary(doctored, trace, 1)
    assert (err.value.stage, err.value.block) == (trace.final.index, (1, 1))


def test_boundary_chain_cantor_is_exactly_zero(cantor_d3):
    _, schedule, trace = cantor_d3
    for i in (1, 2, 3):
        cert = certify_boundary(schedule, trace, i)
        assert all(k.bound.is_zero for k in cert.links)
        assert cert.final_bound.is_zero
        assert cert.probe_points == 0


def test_probe_agreement_on_cantor_cells():
    # Cantor covers are empty, so certify_boundary never probes a Cantor
    # region; a word must reach past the 12-digit cell to land in one cell
    adapter = make_adapter(
        "cantor",
        injected=[cantor_region([""]), cantor_region(["00"]),
                  cantor_region(["0" * 12])],
    )
    builder = StageBuilder(adapter)
    for index in (1, 2, 3):
        builder.insert(adapter.enumerate(index))
    stage = builder.snapshot()
    region = cantor_region([""])
    element = decompose(region, stage)
    assert certs._probe_agreement(stage, region, element) == 1


def _doctored_stage(adapter, regions):
    """A stage whose cells 1..n are the given regions, overlapping or not."""
    cells = {
        cid: Cell(cid, region, DyadicMass.pow2(cid), "new_region", None, cid)
        for cid, region in enumerate(regions, 1)
    }
    return Stage(len(regions), (), cells, ZERO, adapter)


@pytest.mark.parametrize(
    "name, region, cells",
    [
        ("rational-line", interval(0, 2), [interval(0, 2), interval(1, 2)]),
        (
            "cantor",
            cantor_region([""]),
            [cantor_region([""]), cantor_region(["0"])],
        ),
    ],
)
def test_probe_agreement_refuses_overlapping_cells(name, region, cells):
    # the second cell lies inside the first: a probe in both has two hosts,
    # which a host finder that dropped one would miss
    stage = _doctored_stage(make_adapter(name), cells)
    alone = RingElement(stage.index, frozenset({1}), frozenset())
    assert certs._probe_agreement(stage, region, alone) >= 1
    both = RingElement(stage.index, frozenset({1, 2}), frozenset())
    with pytest.raises(InvariantViolation, match=r"in cells \[1, 2\] at once"):
        certs._probe_agreement(stage, region, both)


@pytest.mark.parametrize(
    "name, region, cells, residue",
    [
        # probes 1/2 (in the cell), 1 (a residue point) and 3/2 (neither)
        ("rational-line", interval(0, 2), [interval(0, 1)], {F(1)}),
        ("cantor", cantor_region([""]), [cantor_region(["1"])], set()),
    ],
)
def test_probe_agreement_refuses_a_probe_in_no_cell(name, region, cells, residue):
    stage = _doctored_stage(make_adapter(name), cells)
    element = RingElement(stage.index, frozenset({1}), frozenset(residue))
    with pytest.raises(InvariantViolation, match="in no cell and no residue"):
        certs._probe_agreement(stage, region, element)


def test_probe_agreement_refuses_a_probe_outside_its_region():
    """A probe point outside the region is refused even when it lies in
    exactly one cell of the element."""

    class StrayProbes(RationalLine):
        def probe_points(self, region, against):
            return [F(3, 2)]

    stage = _doctored_stage(StrayProbes(), [interval(0, 2)])
    element = RingElement(stage.index, frozenset({1}), frozenset())
    with pytest.raises(InvariantViolation, match="escaped its own region"):
        certs._probe_agreement(stage, interval(0, 1), element)


# -- decay --------------------------------------------------------------------


def test_max_decay_values(line_d3, cantor_d3):
    _, schedule, trace = line_d3
    assert [str(certify_max_decay(schedule, trace, m)) for m in (1, 2, 3)] == [
        "1/2^2", "1/2^4", "1/2^6",
    ]
    _, cschedule, ctrace = cantor_d3
    assert [str(certify_max_decay(cschedule, ctrace, m)) for m in (1, 2, 3)] == [
        "1/2^1", "1/2^3", "1/2^5",
    ]


def test_max_decay_rejects_bad_level(line_d3):
    _, schedule, trace = line_d3
    with pytest.raises(ConfigError):
        certify_max_decay(schedule, trace, 0)
    with pytest.raises(StageTooEarly):
        certify_max_decay(schedule, trace, 4)


def test_max_decay_violation_path(line_d3, monkeypatch):
    _, schedule, trace = line_d3
    monkeypatch.setattr(certs, "max_cell_mass", lambda stage: ONE)
    with pytest.raises(DecayViolation):
        certify_max_decay(schedule, trace, 2)


# -- additivity ---------------------------------------------------------------


def test_additivity_report(line_d3):
    _, _, trace = line_d3
    report = check_additivity(trace.stage_at(12), 200, seed=0)
    assert report.stage_index == 12
    assert report.sample_count == 200
    assert report.disjoint_pairs == 200
    assert report.covers == 200


def test_additivity_deterministic(line_d3):
    _, _, trace = line_d3
    stage = trace.stage_at(12)
    a = check_additivity(stage, 50, seed=7)
    b = check_additivity(stage, 50, seed=7)
    assert a == b


def test_additivity_needs_two_cells(cantor_d3):
    _, _, trace = cantor_d3
    with pytest.raises(EmptyStage):
        check_additivity(trace.stage_at(1), 10, seed=0)


def test_additivity_violation_path(line_d3, monkeypatch):
    _, _, trace = line_d3
    stage = trace.stage_at(12)
    monkeypatch.setattr(certs, "kappa", lambda s, d: DyadicMass(1, 5))
    with pytest.raises(AdditivityViolation):
        check_additivity(stage, 10, seed=0)


# -- conservation -------------------------------------------------------------


def test_conservation_reports(line_d3, cantor_d3):
    _, _, trace = line_d3
    report = check_conservation(trace)
    assert (report.positions, report.grants, report.splits) == (155, 6, 163)
    assert report.final_total == trace.final.total_mass
    _, _, ctrace = cantor_d3
    creport = check_conservation(ctrace)
    assert (creport.positions, creport.grants, creport.splits) == (30, 1, 15)
    assert creport.final_total == DyadicMass.pow2(1)


def test_conservation_rejects_foreign_grant(line_d3):
    """A first grant of 1/4 instead of 1/2, with every total replayed from
    it, keeps the ledger in step and under its bound: only the grant check
    can refuse it."""
    _, _, trace = line_d3
    total = ZERO
    rows = []
    for rec in trace.records:
        grant = DyadicMass.pow2(2) if rec.position == 1 else rec.grant
        if grant is not None:
            total = total + grant
        rows.append(rec._replace(grant=grant, total_after=total))
    with pytest.raises(InvariantViolation, match="grant at position 1"):
        check_conservation(SimpleNamespace(records=tuple(rows)))


def test_conservation_rejects_ledger_drift(line_d3):
    _, _, trace = line_d3
    rows = list(trace.records)
    last = rows[-1]
    rows[-1] = StepRecord(last.position, last.basis_index, last.grant,
                          last.splits, DyadicMass.pow2(1))
    with pytest.raises(InvariantViolation):
        check_conservation(SimpleNamespace(records=tuple(rows)))


# -- consistency --------------------------------------------------------------


def test_consistency_counts(line_d3):
    _, _, trace = line_d3
    report = check_consistency(list(trace.stages(8)), per_stage=20, seed=0)
    assert report.stages == 8
    assert report.elements_checked == 160


@pytest.mark.parametrize("count", [0, -5])
@pytest.mark.parametrize("check", ["additivity", "consistency"])
def test_a_count_below_one_is_a_config_error(line_d3, check, count):
    """A check asked for no samples checks nothing, so it is refused
    rather than reported as passed."""
    _, _, trace = line_d3
    run = {
        "additivity": lambda: check_additivity(trace.stage_at(12), count),
        "consistency": lambda: check_consistency(
            list(trace.stages(3)), per_stage=count
        ),
    }[check]
    with pytest.raises(ConfigError, match=">= 1"):
        run()


def test_consistency_of_no_stages_is_a_config_error():
    """With no stage there is nothing to sample, so no report of success."""
    with pytest.raises(ConfigError, match="at least one stage"):
        check_consistency([])


def test_consistency_refuses_a_stage_with_no_cells():
    """A stage with no cells has no element to sample, as for additivity."""
    empty = StageBuilder(make_adapter("rational-line")).snapshot()
    with pytest.raises(EmptyStage, match="stage 0 has no cells"):
        check_consistency([empty], 5)


# -- partitions ---------------------------------------------------------------


def test_partition_line(line_d3):
    _, schedule, trace = line_d3
    cert = build_partition(schedule, trace, DyadicMass.pow2(2))
    assert cert.m == 3
    assert cert.stage_index == 155
    assert len(cert.pieces) == 169
    assert cert.max_piece == DyadicMass(1, 6)
    assert cert.tail_bound == DyadicMass(1, 155)
    assert str(cert.boundary_bound) == "5521409/2^27"
    assert len(cert.boundary_certificates) == 3
    eps = F(1, 4)
    assert all(p.mass.as_fraction() <= eps for p in cert.pieces)
    assert sum(p.mass.as_fraction() for p in cert.pieces) == (
        trace.stage_at(155).total_mass.as_fraction()
    )


def test_partition_trivial_epsilon(line_d3):
    _, schedule, trace = line_d3
    cert = build_partition(schedule, trace, ONE)
    assert cert.m == 1
    assert cert.stage_index == 8
    assert len(cert.pieces) == 9


def test_partition_cantor(cantor_d3):
    _, schedule, trace = cantor_d3
    cert = build_partition(schedule, trace, DyadicMass.pow2(2))
    assert (cert.m, cert.stage_index, len(cert.pieces)) == (3, 30, 16)
    assert cert.max_piece == DyadicMass(1, 5)
    assert cert.tail_bound == DyadicMass(1, 30)
    assert cert.boundary_bound.is_zero


def test_partition_depth_exhausted(line_d3):
    _, schedule, trace = line_d3
    with pytest.raises(InsufficientDepth) as err:
        build_partition(schedule, trace, DyadicMass.pow2(3))
    assert err.value.required_m == 4


def test_partition_cell_above_epsilon_names_stage_and_block(
    line_d3, monkeypatch
):
    # read at level 1, stage g(1, 1) = 8 passes the decay bound 1 but has
    # a cell of mass 1/4, above epsilon 1/16
    _, schedule, trace = line_d3
    monkeypatch.setattr(certs, "fragmentation_level", lambda epsilon: 1)
    with pytest.raises(DecayViolation, match="> epsilon") as err:
        build_partition(schedule, trace, DyadicMass.pow2(4))
    assert (err.value.stage, err.value.block) == (8, (1, 1))


def test_partition_epsilon_must_be_positive(line_d3):
    _, schedule, trace = line_d3
    with pytest.raises(ConfigError):
        build_partition(schedule, trace, ZERO)


def test_fragmentation_level_matches_the_least_level():
    for s in range(11):
        for k in range(1, 2**s + 1):
            epsilon = DyadicMass(k, s)
            m = 1
            while DyadicMass.pow2(m - 1) > epsilon:
                m += 1
            assert fragmentation_level(epsilon) == m, (k, s)


def test_fragmentation_level_of_zero_is_a_config_error():
    with pytest.raises(ConfigError, match="positive"):
        fragmentation_level(ZERO)


# -- permutation sensitivity --------------------------------------------------

T1_PREFIX = [interval(0, 2), interval(1, 3), interval(F(9, 4), F(11, 4))]


def test_permutation_membership_agrees():
    adapter = make_adapter("rational-line")
    probes = [interval(0, 2), interval(1, 2), interval(0, 1),
              interval(F(1, 2), 1)]
    report = check_permutation_invariance(adapter, T1_PREFIX, (2, 1, 3), probes)
    got = [
        (e.region_text, e.stage_original, e.stage_permuted, e.kappa_agrees)
        for e in report.entries
    ]
    assert got == [
        ("(0,2)", 1, 2, True),
        ("(1,2)", 2, 2, True),
        ("(0,1)", 2, 2, True),
        ("(1/2,1)", None, None, None),
    ]


def _mass(mantissa, scale):
    return {"mantissa": mantissa, "scale": scale}


def test_permutation_report_json():
    # the output of the former per-class to_json methods, which no golden
    # file covers; the entries have kappa_agrees true, false and null
    adapter = make_adapter("rational-line")
    probes = [interval(0, 2), interval(1, 3), interval(0, 1),
              interval(F(1, 2), 1)]
    report = check_permutation_invariance(adapter, T1_PREFIX, (2, 3, 1), probes)

    def entry(region, stages, masses, agrees):
        return {
            "region": region,
            "stage_original": stages[0],
            "stage_permuted": stages[1],
            "kappa_original": masses[0],
            "kappa_permuted": masses[1],
            "kappa_agrees": agrees,
        }

    assert to_json(report) == {
        "kind": "permutation",
        "prefix_length": 3,
        "permutation": [2, 3, 1],
        "entries": [
            entry("(0,2)", (1, 3), (_mass(1, 1), _mass(1, 2)), False),
            entry("(1,3)", (2, 1), (_mass(1, 1), _mass(1, 1)), True),
            entry("(0,1)", (2, 3), (_mass(1, 2), _mass(1, 3)), False),
            entry("(1/2,1)", (None, None), (None, None), None),
        ],
    }


def test_permutation_kappa_not_forced_equal():
    # masses legitimately depend on order: (0,1) before (0,2) grants the
    # root 1/2 to (0,1), the reverse order reaches it only via a split
    adapter = make_adapter("rational-line")
    report = check_permutation_invariance(
        adapter, [interval(0, 1), interval(0, 2)], (2, 1), [interval(0, 1)]
    )
    (entry,) = report.entries
    assert entry.kappa_original == DyadicMass.pow2(1)
    assert entry.kappa_permuted == DyadicMass.pow2(2)
    assert entry.kappa_agrees is False


def test_permutation_config_errors():
    adapter = make_adapter("rational-line")
    with pytest.raises(ConfigError):
        check_permutation_invariance(adapter, [], (1,), [])
    with pytest.raises(ConfigError):
        check_permutation_invariance(adapter, T1_PREFIX, (1, 1, 3), [])


def test_permutation_membership_violation(monkeypatch):
    adapter = make_adapter("rational-line")
    calls = {"n": 0}

    def lopsided(stages, region):
        calls["n"] += 1
        return (1, object()) if calls["n"] % 2 else (None, None)

    monkeypatch.setattr(certs, "_first_decomposable", lopsided)
    with pytest.raises(MembershipViolation):
        check_permutation_invariance(
            adapter, T1_PREFIX, (2, 1, 3), [interval(0, 2)]
        )


# -- positivity ---------------------------------------------------------------


def test_positivity_minima():
    line = check_positivity(make_adapter("rational-line"), 50)
    assert line.count == 50
    assert line.min_kappa == DyadicMass(1, 28)
    cantor = check_positivity(make_adapter("cantor"), 50)
    assert cantor.min_kappa == DyadicMass(1, 6)


def test_positivity_rejects_bad_count():
    with pytest.raises(ConfigError):
        check_positivity(make_adapter("cantor"), 0)


def test_positivity_flags_a_zero_mass_cell(monkeypatch):
    class ZeroingBuilder(StageBuilder):
        """Snapshots whose cell outside the newest set weighs zero from
        stage 3 on."""

        def snapshot(self):
            stage = super().snapshot()
            if stage.index >= 3:
                inside = decompose(stage.inserted[-1].region, stage).open_cells
                cid = min(set(stage.cells) - inside)
                stage.cells[cid] = stage.cells[cid]._replace(mass=ZERO)
            return stage

    monkeypatch.setattr(certs, "StageBuilder", ZeroingBuilder)
    with pytest.raises(VerificationViolation, match="zero-mass cell") as err:
        check_positivity(make_adapter("cantor"), 5)
    assert err.value.stage == 3

"""Mass assignment: mu on signatures, kappa on ring elements, stage bounds."""

from fractions import Fraction as F

import pytest

from dyadicmeasure.adapters import make_adapter
from dyadicmeasure.dyadic import ZERO, DyadicMass
import dyadicmeasure.masses as masses
from dyadicmeasure.errors import (
    ConsistencyViolation,
    EmptyStage,
    StageMismatch,
    UnknownCell,
)
from dyadicmeasure.masses import kappa, kappa_lifted, max_cell_mass, mu, tail_budget
from dyadicmeasure.regions import interval
from dyadicmeasure.stages import RingElement, Stage, StageBuilder, decompose

T1_INJECTED = [interval(0, 2), interval(1, 3), interval(F(9, 4), F(11, 4))]


@pytest.fixture(scope="module")
def t1():
    adapter = make_adapter("rational-line", injected=T1_INJECTED)
    builder = StageBuilder(adapter)
    stages = []
    for i in (1, 2, 3):
        builder.insert(adapter.enumerate(i))
        stages.append(builder.snapshot())
    return adapter, stages


def test_mu_by_signature(t1):
    _, stages = t1
    s3 = stages[2]
    assert mu(s3, (True, True, False)) == DyadicMass.pow2(2)
    assert mu(s3, (False, True, True)) == DyadicMass.pow2(3)
    assert mu(s3, None) == ZERO


def test_mu_unknown_signature(t1):
    _, stages = t1
    with pytest.raises(UnknownCell):
        mu(stages[2], (False, False, False))


def test_kappa_counts_open_cells_only(t1):
    _, stages = t1
    s3 = stages[2]
    d = decompose(interval(1, 3), s3)
    assert kappa(s3, d) == DyadicMass.pow2(1)
    bare = RingElement(s3.index, d.open_cells, frozenset())
    assert kappa(s3, bare) == kappa(s3, d)
    assert kappa(s3, RingElement(s3.index, frozenset(), frozenset())).is_zero


def test_kappa_stage_mismatch(t1):
    _, stages = t1
    d = decompose(interval(0, 2), stages[1])
    with pytest.raises(StageMismatch):
        kappa(stages[2], d)


def test_kappa_unknown_cell(t1):
    _, stages = t1
    s3 = stages[2]
    with pytest.raises(UnknownCell):
        kappa(s3, RingElement(s3.index, frozenset({99}), frozenset()))


def test_kappa_lifted_is_stable(t1):
    _, stages = t1
    d = decompose(interval(0, 2), stages[1])
    assert kappa_lifted(stages[1:], d) == DyadicMass.pow2(1)
    assert kappa_lifted(stages[1:], d) == kappa(stages[1], d)


def test_kappa_lifted_needs_home_stage(t1):
    _, stages = t1
    d = decompose(interval(0, 2), stages[1])
    with pytest.raises(StageMismatch):
        kappa_lifted([stages[2]], d)


def test_kappa_lifted_violations_name_their_stage(t1, monkeypatch):
    _, stages = t1
    d = decompose(interval(0, 2), stages[1])
    # 7 is no boundary point of any stage
    stray = RingElement(d.stage_index, d.open_cells, frozenset({F(7)}))
    with pytest.raises(ConsistencyViolation, match="missing") as err:
        kappa_lifted(stages[1:], stray)
    assert err.value.stage == 3
    monkeypatch.setattr(masses, "kappa", lambda s, e: DyadicMass.pow2(s.index))
    with pytest.raises(ConsistencyViolation, match="moved") as err:
        kappa_lifted(stages[1:], d)
    assert err.value.stage == 3


def test_max_cell_mass(t1):
    _, stages = t1
    assert max_cell_mass(stages[0]) == DyadicMass.pow2(1)
    assert max_cell_mass(stages[2]) == DyadicMass.pow2(2)


def test_max_cell_mass_empty_stage(t1):
    adapter, _ = t1
    bare = Stage(
        index=0,
        inserted=(),
        cells={},
        total_mass=ZERO,
        adapter=adapter,
    )
    with pytest.raises(EmptyStage):
        max_cell_mass(bare)


def test_tail_budget(t1):
    _, stages = t1
    assert tail_budget(stages[0]) == DyadicMass.pow2(1)
    assert tail_budget(stages[2]) == DyadicMass.pow2(3)


def test_cell_masses_sum_to_total(t1):
    _, stages = t1
    for stage in stages:
        total = sum(c.mass.as_fraction() for c in stage.cells.values())
        assert total == stage.total_mass.as_fraction()
        assert total + tail_budget(stage).as_fraction() <= 1

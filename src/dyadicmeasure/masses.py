"""Mass evaluation on stages and ring elements.

``mu`` reads a single cell's mass by signature; ``kappa`` sums the cell
masses of a ring element, with boundary points contributing nothing.  Both
are exact.  ``kappa_lifted`` re-decomposes an element at every later stage
of a trace and insists the value never moves, which is the finite
additivity consistency the extension step leans on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .dyadic import DyadicMass, ZERO, dyadic_sum
from .errors import ConsistencyViolation, EmptyStage, StageMismatch, UnknownCell
from .stages import RingElement, Signature, Stage, decompose


def mu(stage: Stage, signature: Signature | None) -> DyadicMass:
    """Mass of one cell by signature; the empty set has mass zero."""
    if signature is None:
        return ZERO
    return stage.cell_for_signature(tuple(signature)).mass


def kappa(stage: Stage, d: RingElement) -> DyadicMass:
    """Mass of a ring element: the sum over its cells, boundary points free."""
    if d.stage_index != stage.index:
        raise StageMismatch(
            f"ring element of stage {d.stage_index} evaluated at stage "
            f"{stage.index}"
        )
    cells = stage.cells
    try:
        masses = [cells[cid].mass for cid in d.open_cells]
    except KeyError as exc:
        raise UnknownCell(
            f"cell {exc.args[0]} is not a cell of stage {stage.index}"
        ) from None
    return dyadic_sum(masses)


def kappa_lifted(trace: Iterable[Stage], d: RingElement) -> DyadicMass:
    """Evaluate d at its home stage and at every later stage in the trace.

    The open support is re-decomposed stage by stage; any change of value
    or a vanished boundary point raises ConsistencyViolation.
    """
    stages: Sequence[Stage] = sorted(trace, key=lambda s: s.index)
    home = next((s for s in stages if s.index == d.stage_index), None)
    if home is None:
        raise StageMismatch(
            f"trace does not contain home stage {d.stage_index}"
        )
    support = d.open_region(home)
    value = kappa(home, d)
    for stage in stages:
        if stage.index <= home.index:
            continue
        lifted = decompose(support, stage)
        for point in d.boundary_points:
            if point not in stage.boundary_points:
                raise ConsistencyViolation(
                    f"boundary point {point} missing at stage {stage.index}",
                    stage=stage.index,
                )
        again = kappa(stage, lifted)
        if again != value:
            raise ConsistencyViolation(
                f"mass of {d!r} moved from {value} to {again} at stage "
                f"{stage.index}",
                stage=stage.index,
            )
    return value


def max_cell_mass(stage: Stage) -> DyadicMass:
    if not stage.cells:
        raise EmptyStage(f"stage {stage.index} has no cells")
    return max(c.mass for c in stage.cells.values())


def tail_budget(stage: Stage) -> DyadicMass:
    """Unassigned mass bound 2**-k at stage k."""
    return DyadicMass.pow2(stage.index)

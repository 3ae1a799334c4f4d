"""Finite-stage certificates for the quantitative claims of a built run.

Every certificate is evaluated against a finished schedule with exact
arithmetic and either materializes with its claims checked or raises a
VerificationViolation subclass carrying reproduction data.  The outer
measure of a boundary is never computed: a BoundaryBoundCertificate's
claim is "this open cover of the boundary has exactly this mass", which
upper-bounds the infimum over all covers.

Values are read at a single late stage (the final one unless told
otherwise).  Cover masses do not move between stages once the cover is
decomposable, so the choice of stage only has to be late enough; the
consistency checker in masses.py is the audit of that stability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

from .adapters import SpaceAdapter
from .dyadic import DyadicMass, ONE, ZERO
from .errors import (
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
    NotRepresentable,
)
from .masses import kappa, kappa_lifted, max_cell_mass, tail_budget
from .scheduling import Schedule, Trace, cover_union
from .stages import RingElement, Stage, StageBuilder, decompose, ring_union

__all__ = [
    "AdditivityReport",
    "BoundaryBoundCertificate",
    "ChainLink",
    "ConservationReport",
    "ConsistencyReport",
    "PartitionCertificate",
    "PartitionPiece",
    "PermutationEntry",
    "PermutationReport",
    "PositivityReport",
    "build_partition",
    "certify_boundary",
    "certify_max_decay",
    "check_additivity",
    "check_conservation",
    "check_consistency",
    "check_permutation_invariance",
    "check_positivity",
    "fragmentation_level",
    "to_json",
]


# -- JSON ------------------------------------------------------------------------

# field or property name -> JSON key, where the two differ
_JSON_KEYS = {
    "stage_index": "stage",
    "sample_count": "samples",
    "cell_id": "cell",
    "region_text": "region",
    "links": "chain",
}


def to_json(value):
    """JSON form of a certificate, a report or any value held by one.

    A dataclass becomes an object of its fields and properties, keyed as
    in ``_JSON_KEYS``, plus ``"kind"`` when its class names one; a
    DyadicMass is its exact mantissa/scale pair; tuples become lists.
    """
    if isinstance(value, DyadicMass):
        return value.to_json()
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    if not is_dataclass(value):
        return value
    cls = type(value)
    names = [f.name for f in fields(value)]
    names += [n for n, attr in vars(cls).items() if isinstance(attr, property)]
    out = {"kind": cls.kind} if "kind" in vars(cls) else {}
    out.update((_JSON_KEYS.get(n, n), to_json(getattr(value, n))) for n in names)
    return out


# -- boundary bounds -----------------------------------------------------------


@dataclass(frozen=True)
class ChainLink:
    """One rung of a halving chain.

    ``bound`` is the exact mass of the j-th cover union; ``trimmed`` is the
    mass of that union minus the closures of the next block's holes, which
    the hole identity pins to exactly half of ``bound``.  The last link has
    no successor and carries ``trimmed = None``.
    """

    j: int
    bound: DyadicMass
    trimmed: DyadicMass | None


@dataclass(frozen=True)
class BoundaryBoundCertificate:
    """Certified upper bound on the outer measure of one basis boundary.

    The claim is existential: the (i, j_max) cover is an explicit open
    cover of the i-th boundary whose exact mass is ``final_bound``, and
    the chain shows each cover has at most half the mass of the previous
    one.  ``probe_points`` counts the grid points on which the region
    algebra was cross-checked against raw membership tests.
    """

    kind = "boundary-bound"

    i: int
    stage_index: int
    links: tuple[ChainLink, ...]
    probe_points: int

    @property
    def j_max(self) -> int:
        return self.links[-1].j

    @property
    def final_bound(self) -> DyadicMass:
        return self.links[-1].bound

    @property
    def derived_bound(self) -> DyadicMass:
        """bound_1 / 2**(j_max - 1), which final_bound is certified to meet."""
        return self.links[0].bound.scaled_down(self.j_max - 1)


def _probe_agreement(stage: Stage, region, element: RingElement) -> int:
    """Cross-check a decomposition against pointwise membership.

    Each probe point must lie in the region and in exactly one cell of the
    element, or be one of the element's residue boundary points.  This is
    the low-tech oracle backing the exact region algebra; a failure is an
    implementation bug, not a falsified bound.  The adapter's
    ``point_hosts`` finds the hosts from the cells' regions alone.
    """
    adapter = stage.adapter
    cids = list(element.open_cells)
    regions = [stage.cells[cid].region for cid in cids]
    probes = adapter.probe_points(region, regions)
    checked = 0
    for x, found in zip(probes, adapter.point_hosts(probes, regions)):
        if not adapter.contains_point(region, x):
            raise InvariantViolation(
                f"probe {x!r} escaped its own region {region!r}"
            )
        hosts = [cids[n] for n in found]
        if len(hosts) > 1:
            raise InvariantViolation(
                f"probe {x!r} lies in cells {sorted(hosts)} at once"
            )
        if not hosts and x not in element.boundary_points:
            raise InvariantViolation(
                f"probe {x!r} of {region!r} is in no cell and no residue "
                f"point at stage {stage.index}"
            )
        checked += 1
    return checked


def certify_boundary(
    schedule: Schedule,
    trace: Trace,
    i: int,
    j_max: int | None = None,
    stage: Stage | None = None,
) -> BoundaryBoundCertificate:
    """Evaluate the halving chain of row i and certify its final bound.

    Checks, exactly: the hole identity (trimming the j-th cover by the
    closures of the (j+1)-th holes halves its mass) and the chain
    inequality (each cover has at most half the previous mass).  Raises
    ChainViolation on the first failure.
    """
    built = sorted(b.j for b in schedule.blocks if b.i == i)
    if not built:
        raise StageTooEarly(f"schedule has no blocks for row {i}")
    if j_max is None:
        j_max = built[-1]
    elif j_max < 1:
        raise ConfigError(f"j_max must be >= 1, got {j_max}")
    if stage is None:
        stage = trace.final
    adapter = schedule.adapter
    links: list[ChainLink] = []
    probes = 0
    for j in range(1, j_max + 1):
        schedule.block(i, j)  # raises StageTooEarly when the row is short
        element = cover_union(schedule, i, j, stage)
        bound = kappa(stage, element)
        region = adapter.union_all(
            h.region for h in schedule.cover_handles(i, j)
        )
        probes += _probe_agreement(stage, region, element)
        trimmed: DyadicMass | None = None
        if j < j_max:
            holes = schedule.hole_handles(i, j + 1)
            region = adapter.meet_exterior(
                region, adapter.union_all(h.region for h in holes)
            )
            trimmed = kappa(stage, decompose(region, stage))
            if trimmed != bound.halve():
                raise ChainViolation(
                    f"hole identity failed at ({i},{j}): trimming the cover "
                    f"by the ({i},{j + 1}) holes left {trimmed}, expected "
                    f"{bound.halve()} (half of {bound})",
                    stage=stage.index, block=(i, j),
                )
        links.append(ChainLink(j=j, bound=bound, trimmed=trimmed))
    for prev, nxt in zip(links, links[1:]):
        if nxt.bound > prev.bound.halve():
            raise ChainViolation(
                f"halving chain broken at ({i},{prev.j}): {nxt.bound} > "
                f"half of {prev.bound}",
                stage=stage.index, block=(i, prev.j),
            )
    return BoundaryBoundCertificate(
        i=i, stage_index=stage.index, links=tuple(links), probe_points=probes
    )


# -- max-mass decay -------------------------------------------------------------


def certify_max_decay(schedule: Schedule, trace: Trace, m: int) -> DyadicMass:
    """Largest cell mass at stage g(1, m); certified to be <= 2**(1-m)."""
    if m < 1:
        raise ConfigError(f"decay level must be >= 1, got {m}")
    block = schedule.block(1, m)
    value = max_cell_mass(trace.stage_at(block.g))
    bound = DyadicMass.pow2(m - 1)
    if value > bound:
        raise DecayViolation(
            f"max cell mass at stage g(1,{m}) = {block.g} is {value}, "
            f"above the certified bound {bound}",
            stage=block.g, block=(1, m),
        )
    return value


def fragmentation_level(epsilon: DyadicMass) -> int:
    """Least m with 2**(1-m) <= epsilon, the level whose cells fit epsilon.

    For epsilon = k / 2**s that is 2**(s+1-m) <= k, which holds exactly
    when s + 1 - m is below the bit length of k.
    """
    if epsilon.is_zero:
        raise ConfigError("epsilon must be positive")
    return max(1, epsilon.scale + 2 - epsilon.mantissa.bit_length())


def check_partition_depth(epsilon: DyadicMass, depth: int) -> int:
    """Fragmentation level of epsilon; InsufficientDepth if depth is below it."""
    m = fragmentation_level(epsilon)
    if depth < m:
        raise InsufficientDepth(
            f"epsilon {epsilon} needs fragmentation level m={m}, but the "
            f"schedule is built only to depth {depth}",
            required_m=m,
        )
    return m


# -- additivity ------------------------------------------------------------------


@dataclass(frozen=True)
class AdditivityReport:
    kind = "additivity"

    stage_index: int
    sample_count: int
    seed: int
    disjoint_pairs: int
    covers: int


def _numerators(masses) -> list[int]:
    """The masses' numerators over their largest denominator 2**scale."""
    scale = max(m.scale for m in masses)
    return [m.mantissa << (scale - m.scale) for m in masses]


def check_additivity(
    stage: Stage, sample_count: int = 1000, seed: int = 0
) -> AdditivityReport:
    """Seeded random additivity and subadditivity checks, all exact.

    Disjoint pairs are built by splitting a shuffle of the stage's cells
    (plus a sprinkle of boundary points, which must contribute nothing);
    covers are built by inflating a partition of a random element with
    extra cells.  The comparisons are of exact integer numerators over a
    common power of two, because a violating sum could exceed one.
    """
    if sample_count < 1:
        raise ConfigError(f"sample_count must be >= 1, got {sample_count}")
    if len(stage.cells) < 2:
        raise EmptyStage(
            f"additivity sampling needs >= 2 cells, stage {stage.index} "
            f"has {len(stage.cells)}"
        )
    ids = sorted(stage.cells)
    points = sorted(stage.boundary_points)
    rng = random.Random(seed)
    pairs = 0
    covers = 0
    for round_no in range(sample_count):
        order = rng.sample(ids, len(ids))
        a = rng.randint(0, len(order))
        b = rng.randint(a, len(order))
        side = rng.randint(0, 1)
        chosen_points = (
            rng.sample(points, rng.randint(0, min(3, len(points))))
            if points
            else []
        )
        d1 = RingElement(
            stage.index,
            frozenset(order[:a]),
            frozenset(p for k, p in enumerate(chosen_points) if k % 2 == side),
        )
        d2 = RingElement(
            stage.index,
            frozenset(order[a:b]),
            frozenset(p for k, p in enumerate(chosen_points) if k % 2 != side),
        )
        masses = [kappa(stage, d) for d in (d1, d2, ring_union(d1, d2))]
        n1, n2, nu = _numerators(masses)
        if nu != n1 + n2:
            v1, v2, vu = (v.as_fraction() for v in masses)
            raise AdditivityViolation(
                f"kappa not additive at stage {stage.index}, seed {seed}, "
                f"round {round_no}: cells {sorted(d1.open_cells)} + "
                f"{sorted(d2.open_cells)} give {v1} + {v2} != {vu}",
                stage=stage.index,
            )
        pairs += 1
        # subadditivity: cover a random element by overlapping pieces
        target = rng.sample(ids, rng.randint(1, len(ids)))
        piece_count = rng.randint(1, min(3, len(target)))
        pieces = [set(target[k::piece_count]) for k in range(piece_count)]
        for piece in pieces:
            piece.update(rng.sample(ids, rng.randint(0, 2)))
        masses = [
            kappa(stage, RingElement(stage.index, frozenset(ids), frozenset()))
            for ids in (target, *pieces)
        ]
        nt, *ns = _numerators(masses)
        if nt > sum(ns):
            vt = masses[0].as_fraction()
            vs = sum(v.as_fraction() for v in masses[1:])
            raise AdditivityViolation(
                f"kappa not subadditive at stage {stage.index}, seed {seed}, "
                f"round {round_no}: element {sorted(target)} has mass {vt}, "
                f"cover pieces sum to {vs}",
                stage=stage.index,
            )
        covers += 1
    return AdditivityReport(
        stage_index=stage.index,
        sample_count=sample_count,
        seed=seed,
        disjoint_pairs=pairs,
        covers=covers,
    )


# -- conservation ----------------------------------------------------------------


@dataclass(frozen=True)
class ConservationReport:
    kind = "conservation"

    positions: int
    grants: int
    splits: int
    final_total: DyadicMass


def check_conservation(trace: Trace) -> ConservationReport:
    """Audit the exact mass ledger of a whole run.

    Each insertion may raise the total by exactly 2**-k (k its position)
    and never otherwise; totals must stay at or below 1 - 2**-k.  Split
    bookkeeping is exact by construction (halving is lossless) and every
    snapshot re-sums its cells, so this closes the loop on totals.
    """
    total = ZERO
    grants = 0
    splits = 0
    for rec in trace.records:
        if rec.grant is not None:
            if rec.grant != DyadicMass.pow2(rec.position):
                raise InvariantViolation(
                    f"grant at position {rec.position} is {rec.grant}, "
                    f"expected 2^-{rec.position}"
                )
            total = total + rec.grant
            grants += 1
        if rec.total_after != total:
            raise InvariantViolation(
                f"total after position {rec.position} is {rec.total_after}, "
                f"ledger replay says {total}"
            )
        # total <= 1 - 2^-k follows from total < 1 with scale <= k; the
        # exact comparison is the fallback for the impossible branch
        cheap = rec.total_after < ONE and rec.total_after.scale <= rec.position
        if not cheap and rec.total_after.as_fraction() > 1 - Fraction(
            1, 2 ** rec.position
        ):
            raise InvariantViolation(
                f"total {rec.total_after} at position {rec.position} "
                f"exceeds 1 - 2^-{rec.position}"
            )
        splits += rec.splits
    return ConservationReport(
        positions=len(trace.records),
        grants=grants,
        splits=splits,
        final_total=total,
    )


# -- extension consistency --------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    kind = "consistency"

    stages: int
    per_stage: int
    seed: int
    elements_checked: int


def check_consistency(
    stages, per_stage: int = 200, seed: int = 0
) -> ConsistencyReport:
    """Sample elements at every stage and re-evaluate them at all later ones.

    Meant for short stage sequences; the work is quadratic in their
    number.  Raises ConsistencyViolation (from kappa_lifted) when any
    sampled mass moves, ConfigError for no stages or a count below 1, and
    EmptyStage for a stage with no cells.
    """
    if per_stage < 1:
        raise ConfigError(f"per_stage must be >= 1, got {per_stage}")
    stages = sorted(stages, key=lambda s: s.index)
    if not stages:
        raise ConfigError("consistency needs at least one stage")
    for stage in stages:
        if not stage.cells:
            raise EmptyStage(f"stage {stage.index} has no cells")
    rng = random.Random(seed)
    checked = 0
    for stage in stages:
        ids = sorted(stage.cells)
        points = sorted(stage.boundary_points)
        for _ in range(per_stage):
            cells = frozenset(rng.sample(ids, rng.randint(1, len(ids))))
            residue = frozenset(
                rng.sample(points, rng.randint(0, min(2, len(points))))
            )
            d = RingElement(stage.index, cells, residue)
            kappa_lifted(stages, d)
            checked += 1
    return ConsistencyReport(
        stages=len(stages),
        per_stage=per_stage,
        seed=seed,
        elements_checked=checked,
    )


# -- non-atomicity partition -------------------------------------------------------


@dataclass(frozen=True)
class PartitionPiece:
    cell_id: int
    region_text: str
    mass: DyadicMass


@dataclass(frozen=True)
class PartitionCertificate:
    """A finite partition of the space into pieces of mass at most epsilon.

    The pieces are the cells of stage g(1, m), whose masses the decay
    certificate caps at 2**(1-m) <= epsilon; the tail piece (points no
    inserted set has reached) can absorb at most the undistributed grant
    budget 2**-n; the boundary piece carries the summed final bounds of
    one halving-chain certificate per built row.  Pieces are pairwise
    disjoint and exhaust the space by construction of the stage.
    """

    kind = "partition"

    epsilon: DyadicMass
    m: int
    stage_index: int
    pieces: tuple[PartitionPiece, ...]
    max_piece: DyadicMass
    tail_bound: DyadicMass
    boundary_bound: DyadicMass
    boundary_certificates: tuple[BoundaryBoundCertificate, ...]

    @property
    def piece_count(self) -> int:
        return len(self.pieces)


def build_partition(
    schedule: Schedule, trace: Trace, epsilon: DyadicMass
) -> PartitionCertificate:
    """Partition certificate for the smallest admissible fragmentation level.

    Picks the least m with 2**(1-m) <= epsilon and reads the partition off
    stage g(1, m).  Raises InsufficientDepth when the schedule lacks the
    (1, m) block, or when the built rows' boundary bounds are still too
    coarse, naming the depth that would be needed next.
    """
    m = check_partition_depth(epsilon, schedule.depth)
    block = schedule.block(1, m)
    max_piece = certify_max_decay(schedule, trace, m)
    stage = trace.stage_at(block.g)
    certificates = tuple(
        certify_boundary(schedule, trace, i)
        for i in sorted({b.i for b in schedule.blocks})
    )
    boundary_sum = sum(
        (c.final_bound.as_fraction() for c in certificates), Fraction(0)
    )
    if boundary_sum > epsilon.as_fraction():
        raise InsufficientDepth(
            f"boundary bounds sum to {boundary_sum} > epsilon {epsilon} at "
            f"depth {schedule.depth}; a deeper schedule is needed",
            required_m=m + 1,
        )
    tail = tail_budget(stage)
    if tail > epsilon:
        raise InvariantViolation(
            f"tail budget {tail} exceeds epsilon {epsilon} at stage "
            f"{stage.index}, which g(1,m) >= m should rule out"
        )
    pieces = []
    for cid in sorted(stage.cells):
        cell = stage.cells[cid]
        if cell.mass > epsilon:
            raise DecayViolation(
                f"cell {cid} of stage {stage.index} has mass {cell.mass} "
                f"> epsilon {epsilon}",
                stage=stage.index, block=(1, m),
            )
        pieces.append(
            PartitionPiece(
                cell_id=cid,
                region_text=stage.adapter.format_region(cell.region),
                mass=cell.mass,
            )
        )
    return PartitionCertificate(
        epsilon=epsilon,
        m=m,
        stage_index=stage.index,
        pieces=tuple(pieces),
        max_piece=max_piece,
        tail_bound=tail,
        boundary_bound=DyadicMass.from_fraction(boundary_sum),
        boundary_certificates=certificates,
    )


# -- permutation invariance ---------------------------------------------------------


@dataclass(frozen=True)
class PermutationEntry:
    region_text: str
    stage_original: int | None
    stage_permuted: int | None
    kappa_original: DyadicMass | None
    kappa_permuted: DyadicMass | None

    @property
    def kappa_agrees(self) -> bool | None:
        if self.kappa_original is None or self.kappa_permuted is None:
            return None
        return self.kappa_original == self.kappa_permuted


@dataclass(frozen=True)
class PermutationReport:
    kind = "permutation"

    prefix_length: int
    permutation: tuple[int, ...]
    entries: tuple[PermutationEntry, ...]


def _first_decomposable(stages, region):
    for stage in stages:
        try:
            element = decompose(region, stage)
        except NotRepresentable:
            continue
        return stage, element
    return None, None


def check_permutation_invariance(
    adapter: SpaceAdapter,
    prefix,
    permutation,
    probes,
) -> PermutationReport:
    """Ring membership must not depend on the order of a basis prefix.

    Runs the prefix in the given order and in the permuted order and
    demands every probe region decomposable in one run be decomposable in
    the other.  The kappa values are recorded for inspection but NOT
    asserted equal: mass grants depend on insertion order (insert (0,1)
    then (0,2) and the masses differ from the reverse order), only ring
    membership is order-insensitive.
    """
    prefix = tuple(prefix)
    if not 1 <= len(prefix) <= 8:
        raise ConfigError(
            f"prefix length must be between 1 and 8, got {len(prefix)}"
        )
    if sorted(permutation) != list(range(1, len(prefix) + 1)):
        raise ConfigError(
            f"{permutation!r} is not a permutation of 1..{len(prefix)}"
        )
    permuted = tuple(prefix[k - 1] for k in permutation)

    def run(regions):
        local = adapter.with_injected(regions)
        handles = (local.enumerate(k) for k in range(1, len(regions) + 1))
        return list(StageBuilder(local).run(handles))

    stages_a = run(prefix)
    stages_b = run(permuted)
    entries = []
    for probe in probes:
        stage_a, element_a = _first_decomposable(stages_a, probe)
        stage_b, element_b = _first_decomposable(stages_b, probe)
        if (stage_a is None) != (stage_b is None):
            where = "original" if stage_a is not None else "permuted"
            raise MembershipViolation(
                f"probe {adapter.format_region(probe)} is decomposable only "
                f"in the {where} run (permutation {tuple(permutation)!r})"
            )
        entries.append(
            PermutationEntry(
                region_text=adapter.format_region(probe),
                stage_original=None if stage_a is None else stage_a.index,
                stage_permuted=None if stage_b is None else stage_b.index,
                kappa_original=(
                    None if stage_a is None else kappa(stage_a, element_a)
                ),
                kappa_permuted=(
                    None if stage_b is None else kappa(stage_b, element_b)
                ),
            )
        )
    return PermutationReport(
        prefix_length=len(prefix),
        permutation=tuple(permutation),
        entries=tuple(entries),
    )


# -- strict positivity ----------------------------------------------------------------


@dataclass(frozen=True)
class PositivityReport:
    kind = "positivity"

    adapter: str
    count: int
    min_kappa: DyadicMass


def check_positivity(adapter: SpaceAdapter, count: int = 50) -> PositivityReport:
    """Every inserted basis set must carry positive mass at its own stage.

    Inserts the first ``count`` basis elements and decomposes each one at
    the stage it created; the insertion rules make the set an exact union
    of cells and boundary dust there.  Also keeps an eye on the cells
    themselves, which must never be assigned zero.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    handles = (adapter.enumerate(k) for k in range(1, count + 1))
    least: DyadicMass | None = None
    for stage in StageBuilder(adapter).run(handles):
        value = kappa(stage, decompose(stage.inserted[-1].region, stage))
        if value.is_zero:
            raise VerificationViolation(
                f"basis set {stage.index} of {adapter.name} evaluated to zero "
                f"at its insertion stage",
                stage=stage.index,
            )
        if any(cell.mass.is_zero for cell in stage.cells.values()):
            raise VerificationViolation(
                f"a zero-mass cell appeared at stage {stage.index} of {adapter.name}",
                stage=stage.index,
            )
        if least is None or value < least:
            least = value
    return PositivityReport(adapter=adapter.name, count=count, min_kappa=least)

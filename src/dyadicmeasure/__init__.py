"""Exact construction of a strictly positive, non-atomic dyadic premeasure.

The package builds ascending rings of sets over an enumerated basis of
regular open sets, assigns dyadic masses by halving rules, schedules the
insertions so that basis boundaries acquire certified vanishing covers,
and emits machine-checkable certificates for the finite-stage bounds.
Everything is exact: dyadic mantissa/scale pairs for masses, rational
endpoints and binary words for regions.
"""

from .adapters import (
    BasisHandle,
    CantorSpace,
    DEFAULT_SCAN_CAP,
    RationalLine,
    SpaceAdapter,
    make_adapter,
)
from .certificates import (
    AdditivityReport,
    BoundaryBoundCertificate,
    ChainLink,
    ConservationReport,
    ConsistencyReport,
    PartitionCertificate,
    PartitionPiece,
    PermutationEntry,
    PermutationReport,
    PositivityReport,
    build_partition,
    certify_boundary,
    certify_max_decay,
    check_additivity,
    check_conservation,
    check_consistency,
    check_permutation_invariance,
    check_positivity,
    to_json,
)
from .dyadic import ONE, ZERO, DyadicMass, dyadic_sum
from .errors import (
    AdditivityViolation,
    ChainViolation,
    ConfigError,
    ConsistencyViolation,
    DecayViolation,
    DuplicateInsertion,
    DyadicMeasureError,
    EmptyStage,
    InfeasibleCover,
    InsufficientDepth,
    InvariantViolation,
    MembershipViolation,
    NotABasisElement,
    NotRepresentable,
    ScanExhausted,
    StageMismatch,
    StageTooEarly,
    UnknownCell,
    VerificationViolation,
)
from .masses import kappa, kappa_lifted, max_cell_mass, mu, tail_budget
from .regions import (
    CantorRegion,
    LineRegion,
    cantor_region,
    interval,
    line_region,
)
from .scheduling import (
    Schedule,
    ScheduleBlock,
    Trace,
    build_schedule,
)
from .stages import (
    Cell,
    RingElement,
    Stage,
    StageBuilder,
    StepRecord,
    decompose,
    ring_difference,
    ring_union,
)

__version__ = "0.1.0"

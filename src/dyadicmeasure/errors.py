"""Error taxonomy shared by every layer of the package.

Construction errors signal misuse of an operation (bad arguments, stale
stages, unrepresentable regions).  Verification errors signal that a built
object failed one of the certified bounds; they should never fire on the
shipped adapters and carry enough context to serve as a counterexample
report.  Config errors are reserved for the command line front end.
"""

from __future__ import annotations

import copyreg


class DyadicMeasureError(Exception):
    """Base class for every error raised by this package.

    Every error pickles with its attributes (``stage``, ``block``,
    ``required_m``), whatever arguments a subclass's ``__init__`` takes:
    ``dyadicmeasure verify`` hands them back from a forked child.
    """

    def __reduce__(self):
        # rebuilt by __new__ and the instance dict, not by __init__
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigError(DyadicMeasureError):
    """Invalid run configuration (unknown adapter, bad literal, bad flag)."""


class InsufficientDepth(ConfigError):
    """A partition was requested at a tolerance the built schedule cannot
    certify.  ``required_m`` names the fragmentation level that would be
    needed."""

    def __init__(self, message: str, required_m: int) -> None:
        super().__init__(message)
        self.required_m = required_m


class NotABasisElement(DyadicMeasureError):
    """Region is not a member of the adapter's enumerated basis."""


class ScanExhausted(DyadicMeasureError):
    """A basis scan hit its cap before finding an admissible element."""


class InfeasibleCover(DyadicMeasureError):
    """Requested cover cannot exist inside the stated constraint region."""


class InvariantViolation(DyadicMeasureError):
    """Internal consistency check failed; indicates an implementation bug."""


class DuplicateInsertion(DyadicMeasureError):
    """The same basis element was inserted twice into one stage sequence."""


class NotRepresentable(DyadicMeasureError):
    """Region is not a union of current cells plus finitely many inserted
    boundary points, so it has no ring decomposition at this stage."""


class StageMismatch(DyadicMeasureError):
    """Ring elements from different stages were combined or evaluated."""


class UnknownCell(DyadicMeasureError):
    """Signature or cell id does not name a cell of the given stage."""


class EmptyStage(DyadicMeasureError):
    """Operation needs at least one cell but the stage has none."""


class StageTooEarly(DyadicMeasureError):
    """Stage predates the insertions needed to evaluate the request."""


class VerificationViolation(DyadicMeasureError):
    """Base class for failures of the certified bounds.  ``stage`` and
    ``block``, when known, name the stage index and the schedule block
    ``(i, j)`` the failure happened at."""

    def __init__(self, message: str, *, stage: int | None = None,
                 block: tuple[int, int] | None = None) -> None:
        super().__init__(message)
        self.stage = stage
        self.block = block


class ChainViolation(VerificationViolation):
    """Cover-mass halving chain or exact hole identity failed."""


class DecayViolation(VerificationViolation):
    """Maximum cell mass exceeded its certified decay bound."""


class AdditivityViolation(VerificationViolation):
    """Sampled additivity or subadditivity check failed."""


class ConsistencyViolation(VerificationViolation):
    """A mass re-evaluated at a later stage changed value."""


class MembershipViolation(VerificationViolation):
    """Ring membership of a probe region differed between two insertion
    orders of the same basis prefix."""

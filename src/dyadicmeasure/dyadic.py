"""Exact dyadic rationals in the unit interval.

Every mass produced by the halving rules has the form mantissa / 2**scale,
so the package never touches floats.  Instances are canonical: the mantissa
is odd or zero, and a zero mantissa forces scale 0.  That makes equality,
hashing and JSON export trivially well defined.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolation


class DyadicMass:
    """Value mantissa / 2**scale with 0 <= value <= 1, exact and immutable."""

    __slots__ = ("mantissa", "scale")

    def __init__(self, mantissa: int, scale: int) -> None:
        if mantissa < 0 or scale < 0:
            raise InvariantViolation(
                f"dyadic components must be nonnegative, got {mantissa}/2^{scale}"
            )
        if mantissa and not mantissa & 1:
            shift = min(scale, (mantissa & -mantissa).bit_length() - 1)
            mantissa >>= shift
            scale -= shift
        if mantissa == 0:
            scale = 0
        if mantissa > (1 << scale):
            raise InvariantViolation(
                f"dyadic mass {mantissa}/2^{scale} exceeds 1"
            )
        object.__setattr__(self, "mantissa", mantissa)
        object.__setattr__(self, "scale", scale)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DyadicMass is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "DyadicMass":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "DyadicMass":
        return cls(1, 0)

    @classmethod
    def pow2(cls, k: int) -> "DyadicMass":
        """2**-k for k >= 0."""
        if k < 0:
            raise InvariantViolation(f"pow2 exponent must be >= 0, got {k}")
        return cls(1, k)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "DyadicMass":
        """Exact conversion; rejects non-dyadic denominators."""
        den = value.denominator
        scale = den.bit_length() - 1
        if den != (1 << scale):
            raise InvariantViolation(f"{value} is not a dyadic rational")
        return cls(value.numerator, scale)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "DyadicMass") -> "DyadicMass":
        s = max(self.scale, other.scale)
        m = (self.mantissa << (s - self.scale)) + (other.mantissa << (s - other.scale))
        return DyadicMass(m, s)

    def halve(self) -> "DyadicMass":
        return DyadicMass(self.mantissa, self.scale + 1)

    def scaled_down(self, k: int) -> "DyadicMass":
        """self / 2**k, exact."""
        if k < 0:
            raise InvariantViolation(f"scaled_down exponent must be >= 0, got {k}")
        return DyadicMass(self.mantissa, self.scale + k)

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.scale)

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    # -- comparisons ------------------------------------------------------

    def _cmp_key(self, other: "DyadicMass") -> tuple[int, int]:
        # cross multiply by shifting, never floats
        return (self.mantissa << other.scale, other.mantissa << self.scale)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyadicMass):
            return NotImplemented
        return self.mantissa == other.mantissa and self.scale == other.scale

    def __lt__(self, other: "DyadicMass") -> bool:
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other: "DyadicMass") -> bool:
        a, b = self._cmp_key(other)
        return a <= b

    def __gt__(self, other: "DyadicMass") -> bool:
        a, b = self._cmp_key(other)
        return a > b

    def __ge__(self, other: "DyadicMass") -> bool:
        a, b = self._cmp_key(other)
        return a >= b

    def __hash__(self) -> int:
        return hash((self.mantissa, self.scale))

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if self.mantissa == 0:
            return "0"
        if self.scale == 0:
            return str(self.mantissa)
        return f"{_digits(self.mantissa)}/2^{self.scale}"

    def __repr__(self) -> str:
        return f"DyadicMass({_digits(self.mantissa)}, {self.scale})"

    def to_json(self) -> dict[str, int]:
        return {"mantissa": self.mantissa, "scale": self.scale}


def _digits(n: int) -> str:
    """n in decimal, or in hex when decimal would pass the interpreter's
    limit on int-to-str digits (``sys.set_int_max_str_digits``), which
    hex conversion is exempt from; deep stages have such mantissas."""
    try:
        return str(n)
    except ValueError:
        return hex(n)


ZERO = DyadicMass.zero()
ONE = DyadicMass.one()


def dyadic_sum(masses) -> DyadicMass:
    """Exact sum of an iterable of masses; total must stay within [0, 1].

    Every mantissa is shifted to the largest scale and summed as one plain
    integer, so only the total is normalised and checked.
    """
    masses = list(masses)
    scale = max((m.scale for m in masses), default=0)
    return DyadicMass(sum(m.mantissa << (scale - m.scale) for m in masses), scale)

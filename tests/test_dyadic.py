"""Exact dyadic mass arithmetic."""

from __future__ import annotations

import time
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dyadicmeasure.dyadic import ONE, ZERO, DyadicMass, dyadic_sum
from dyadicmeasure.errors import InvariantViolation


def test_canonical_form_strips_even_mantissas():
    assert DyadicMass(4, 3) == DyadicMass(1, 1)
    assert DyadicMass(6, 4) == DyadicMass(3, 3)
    m = DyadicMass(4, 3)
    assert (m.mantissa, m.scale) == (1, 1)


def test_long_trailing_zero_runs_normalise_in_one_shift():
    # stripping one bit at a time takes about 11 s here
    start = time.perf_counter()
    m = DyadicMass(1 << 200_000, 200_001)
    assert time.perf_counter() - start < 1.0
    assert (m.mantissa, m.scale) == (1, 1)


def test_zero_is_unique():
    assert DyadicMass(0, 7) == ZERO
    assert DyadicMass(0, 7).scale == 0
    assert ZERO.is_zero
    assert not ONE.is_zero


def test_rejects_negative_and_oversized():
    with pytest.raises(InvariantViolation):
        DyadicMass(-1, 0)
    with pytest.raises(InvariantViolation):
        DyadicMass(1, -1)
    with pytest.raises(InvariantViolation):
        DyadicMass(3, 1)  # 3/2 > 1


def test_pow2():
    assert DyadicMass.pow2(0) == ONE
    assert DyadicMass.pow2(3) == DyadicMass(1, 3)
    with pytest.raises(InvariantViolation):
        DyadicMass.pow2(-1)


def test_from_fraction_rejects_non_dyadic():
    assert DyadicMass.from_fraction(Fraction(3, 8)) == DyadicMass(3, 3)
    with pytest.raises(InvariantViolation):
        DyadicMass.from_fraction(Fraction(1, 3))


def test_addition_is_exact():
    assert DyadicMass(1, 2) + DyadicMass(1, 2) == DyadicMass(1, 1)
    assert DyadicMass(1, 1) + DyadicMass(1, 3) == DyadicMass(5, 3)
    assert ZERO + DyadicMass(5, 3) == DyadicMass(5, 3)


def test_addition_beyond_one_is_rejected():
    with pytest.raises(InvariantViolation):
        DyadicMass(3, 2) + DyadicMass(3, 2)


def test_halve_and_scaled_down():
    assert DyadicMass(3, 2).halve() == DyadicMass(3, 3)
    assert ZERO.halve() == ZERO
    assert DyadicMass(5, 3).scaled_down(2) == DyadicMass(5, 5)
    assert DyadicMass(5, 3).scaled_down(0) == DyadicMass(5, 3)
    with pytest.raises(InvariantViolation):
        DyadicMass(5, 3).scaled_down(-1)


def test_comparisons_cross_scale():
    assert DyadicMass(1, 2) < DyadicMass(1, 1)
    assert DyadicMass(3, 3) > DyadicMass(1, 2)
    assert DyadicMass(2, 2) <= DyadicMass(1, 1)
    assert DyadicMass(2, 2) >= DyadicMass(1, 1)


def test_str_and_json():
    assert str(DyadicMass(3, 3)) == "3/2^3"
    assert DyadicMass(3, 3).to_json() == {"mantissa": 3, "scale": 3}


def test_text_of_a_deep_mass_is_exact(default_str_digit_limit):
    """A mantissa past the int-to-str digit limit prints in hex, exactly."""
    deep = DyadicMass((1 << 20000) - 1, 20000)
    mantissa, scale = str(deep).split("/2^")
    if default_str_digit_limit:
        assert mantissa.startswith("0x")
    assert (int(mantissa, 0), int(scale)) == (deep.mantissa, deep.scale)
    assert eval(repr(deep), {"DyadicMass": DyadicMass}) == deep
    assert repr(DyadicMass(3, 3)) == "DyadicMass(3, 3)"


def test_immutable():
    m = DyadicMass(1, 1)
    with pytest.raises(AttributeError):
        m.mantissa = 2


def test_dyadic_sum():
    parts = [DyadicMass(1, 2), DyadicMass(1, 2), DyadicMass(1, 1)]
    assert dyadic_sum(parts) == ONE
    assert dyadic_sum([]) == ZERO


masses = st.builds(
    lambda num, sc: DyadicMass(num % ((1 << sc) + 1), sc),
    st.integers(min_value=0, max_value=1 << 12),
    st.integers(min_value=0, max_value=12),
)


@given(masses)
def test_fraction_round_trip(m):
    assert DyadicMass.from_fraction(m.as_fraction()) == m


@given(masses, masses)
def test_addition_matches_fractions(a, b):
    total = a.as_fraction() + b.as_fraction()
    if total <= 1:
        assert (a + b).as_fraction() == total
    else:
        with pytest.raises(InvariantViolation):
            a + b


@given(masses, masses)
def test_order_matches_fractions(a, b):
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a == b) == (a.as_fraction() == b.as_fraction())


@given(masses)
def test_halve_is_exact_division(m):
    assert m.halve().as_fraction() == m.as_fraction() / 2
    assert m.halve() + m.halve() == m


@given(st.lists(st.tuples(masses, st.integers(0, 4)), max_size=12))
def test_dyadic_sum_matches_left_fold(pairs):
    parts = [m.scaled_down(k) for m, k in pairs]
    try:
        folded = reduce(add, parts, ZERO)
    except InvariantViolation:
        with pytest.raises(InvariantViolation):
            dyadic_sum(parts)
    else:
        assert dyadic_sum(iter(parts)) == folded


# scales thousands of bits apart, several shared, with tiny and full-width
# mantissas, so sums stay within 1 or pass it
deep_masses = st.builds(
    lambda mantissa, scale: DyadicMass(mantissa % ((1 << scale) + 1), scale),
    st.one_of(st.integers(0, 3), st.integers(0, 1 << 5000)),
    st.sampled_from((0, 1, 7, 60, 2000, 2001, 4999)),
)


@given(st.lists(deep_masses, max_size=12))
@example([])
@example([DyadicMass(3, 4000)])
@example([DyadicMass(1, 4999), DyadicMass(1, 1), DyadicMass(1, 4999)])
def test_dyadic_sum_matches_the_fraction_sum(parts):
    total = sum((m.as_fraction() for m in parts), Fraction(0))
    if total <= 1:
        assert dyadic_sum(parts).as_fraction() == total
    else:
        with pytest.raises(InvariantViolation):
            dyadic_sum(parts)

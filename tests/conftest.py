"""Fixtures shared by several test modules."""

import sys

import pytest


@pytest.fixture
def default_str_digit_limit():
    """Put the interpreter's default int-to-str digit limit in force.

    The interpreter may have started with another limit (set by
    ``PYTHONINTMAXSTRDIGITS`` or ``-X int_max_str_digits``), which would
    hide a conversion that raises under the default.  Yields whether the
    interpreter has such a limit at all (3.11 and later).
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield False
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield True
    finally:
        sys.set_int_max_str_digits(old)

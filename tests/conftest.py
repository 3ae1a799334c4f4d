"""Fixtures shared by several test modules."""

import os
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


@pytest.fixture
def one_cpu(monkeypatch):
    """Report one usable CPU, so ``verify`` runs every check in this
    process; a fork fails the test."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0}, raising=False
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 1)

    def refuse():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "fork", refuse, raising=False)


@pytest.fixture
def two_cpus(monkeypatch):
    """Report two usable CPUs, so ``verify`` forks; yields the list of
    child pids it forked."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    fork = os.fork
    pids = []

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield pids

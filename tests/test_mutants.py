"""The mutant runner of ``tests/mutants.py`` reports what its tests let live."""

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

NO_OP = """
import mutants

snippet = 'return cls(1, k)'
test = 'tests/test_dyadic.py::test_pow2'
mutants.main([mutants.Mutant('dyadic.py', snippet, snippet, (test,))])
"""


def test_a_no_op_mutant_survives_and_the_runner_exits_1():
    """An edit that changes nothing passes its test, so the runner must
    call it a survivor and fail."""
    run = subprocess.run(
        [sys.executable, "-c", NO_OP], cwd=TESTS, capture_output=True, text=True
    )
    assert run.returncode == 1
    assert run.stdout == (
        "SURVIVED: dyadic.py: 'return cls(1, k)' -> 'return cls(1, k)'\n"
    )
    assert run.stderr == "1 of 1 mutants survived\n"

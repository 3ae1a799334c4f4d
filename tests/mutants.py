"""Recorded mutants of the package that the named tests must kill.

Each mutant is one edit: a file under ``src/dyadicmeasure``, an exact
snippet that occurs there once, its replacement, and the tests that must
fail once it is made.  Run from the repository root:

    python tests/mutants.py

The runner copies ``src/`` to a temporary directory and checks that every
test a mutant names passes on the unmutated copy.  Then, for each mutant,
it makes the one edit in the copy, checks that ``dyadicmeasure`` imports
from the copy and not from an installed package, and runs the tests
against the copy through ``PYTHONPATH``, under the ``mutants`` Hypothesis
profile of ``tests/conftest.py``, which does not shrink a failing example.
It exits 1 when a snippet is not found exactly once, when the unmutated
copy fails, or when a mutant survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

LAWS = "tests/test_adapter_laws.py"
CERTIFICATES = "tests/test_certificates.py"
LINE_ENGINE = ("tests/test_stateful.py::TestLineEngine",)
CANTOR_ENGINE = ("tests/test_stateful.py::TestCantorEngine",)


class Mutant(NamedTuple):
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


def law(name):
    return (f"{LAWS}::{name}",)


def certificate_test(name):
    return (f"{CERTIFICATES}::{name}",)


def stages_test(name):
    return (f"tests/test_stages.py::{name}",)


def scheduling_test(name):
    return (f"tests/test_scheduling.py::{name}",)


ALGEBRA = law("test_region_algebra_matches_the_oracle")
BLOCKS = ("tests/test_split_oracle.py::test_blocks_match_a_sorted_list",)
POINTS = law("test_points_match_the_oracle")
SUBCOVER = law("test_finite_subcover")

MUTANTS = [
    Mutant(  # a line region closed at its right end
        "regions.py",
        "return k >= 0 and x.parts[k][0] < p < x.parts[k][1]",
        "return k >= 0 and x.parts[k][0] < p <= x.parts[k][1]",
        POINTS,
    ),
    Mutant(  # the keyed union merges parts that only touch
        "adapters.py",
        "if merged and k_lo < merged[-1][1]:",
        "if merged and k_lo <= merged[-1][1]:",
        ALGEBRA,
    ),
    Mutant(  # a part's left end hosts the points equal to it
        "adapters.py",
        "order[bisect_right(ordered, a):bisect_left(ordered, b)]",
        "order[bisect_left(ordered, a):bisect_left(ordered, b)]",
        POINTS,
    ),
    Mutant(  # a closure that shares y's left end counts as strictly inside
        "regions.py",
        "not (y.parts[k][0] < lo and hi < y.parts[k][1])",
        "not (y.parts[k][0] <= lo and hi < y.parts[k][1])",
        ALGEBRA,
    ),
    Mutant(  # Cantor exterior with its arguments swapped
        "adapters.py",
        "return cantor_minus(a, v)",
        "return cantor_minus(v, a)",
        ALGEBRA,
    ),
    Mutant(  # the whole Cantor space formatted as ""
        "adapters.py",
        'return " u ".join(p if p else "-" for p in region.prefixes)',
        'return " u ".join(region.prefixes)',
        law("test_basis_elements_format_parse_and_bound"),
    ),
    Mutant(  # a Cantor union left uncanonical
        "regions.py",
        "return cantor_region(x.prefixes + y.prefixes)",
        "return CantorRegion(tuple(sorted(x.prefixes + y.prefixes)))",
        ALGEBRA,
    ),
    Mutant(  # equal line regions hash apart
        "regions.py",
        "h = hash(self.parts)",
        "h = id(self)",
        ALGEBRA,
    ),
    Mutant(  # a line probe point on the region's right end
        "adapters.py",
        "(a + b) / 2, (a + 3 * b) / 4)",
        "(a + b) / 2, b)",
        POINTS,
    ),
    Mutant(  # a line boundary point inside the interval
        "adapters.py",
        "return v.region.parts[0]",
        "return (v.region.parts[0][0], sum(v.region.parts[0]) / 2)",
        law("test_basis_elements_format_parse_and_bound"),
    ),
    Mutant(  # the cover scan ignores the forbidden indices
        "adapters.py",
        "if k in forbidden:",
        "if False:",
        SUBCOVER,
    ),
    Mutant(  # the cover scan ignores the constraint
        "adapters.py",
        "if constraint is not None and not self.subset(h.region, constraint):",
        "if False:",
        SUBCOVER,
    ),
    Mutant(  # the cover scan reads one index past its cap
        "adapters.py",
        "range(min_index, min_index + scan_cap)",
        "range(min_index, min_index + scan_cap + 1)",
        SUBCOVER,
    ),
    Mutant(  # an injected region emitted again in the canonical order
        "adapters.py",
        "if candidate not in self._injected_pos:",
        "if True:",
        law("test_enumeration_is_a_bijection_behind_an_injected_prefix"),
    ),
    Mutant(  # a negative index reads the handle cache from its end
        "adapters.py",
        "if 0 < index <= len(handles):",
        "if index <= len(handles):",
        law("test_enumerate_refuses_indices_below_one"),
    ),
    Mutant(  # class middles taken in the order the stage holds its cells
        "adapters.py",
        """lefts = sorted(
            (region.parts[0] for region in regions),
            key=lambda part: line_key(part[0]),
        )""",
        "lefts = [region.parts[0] for region in regions]",
        law("test_noting_a_stage_leaves_the_enumeration"),
    ),
    Mutant(  # the hole identity goes unchecked
        "certificates.py",
        "if trimmed != bound.halve():",
        "if False:",
        certificate_test("test_hole_identity_is_checked_on_its_own"),
    ),
    Mutant(  # the chain inequality goes unchecked
        "certificates.py",
        "if nxt.bound > prev.bound.halve():",
        "if False:",
        certificate_test("test_chain_inequality_is_checked_on_its_own"),
    ),
    Mutant(  # a probe point outside its region goes unnoticed
        "certificates.py",
        "if not adapter.contains_point(region, x):",
        "if False:",
        certificate_test("test_probe_agreement_refuses_a_probe_outside_its_region"),
    ),
    Mutant(  # a grant other than 2^-k passes the ledger audit
        "certificates.py",
        "if rec.grant != DyadicMass.pow2(rec.position):",
        "if False:",
        certificate_test("test_conservation_rejects_foreign_grant"),
    ),
    Mutant(  # a span that ends at the point's float is skipped
        "stages.py",
        "self._max_hi[i] < key[0]",
        "self._max_hi[i] <= key[0]",
        ("tests/test_split_oracle.py::test_line_splits_match_oracle",),
    ),
    Mutant(  # a part that ends at the new interval's start meets it
        "stages.py",
        "entry is not None and entry[3:6] > ka",
        "entry is not None and entry[3:6] >= ka",
        LINE_ENGINE,
    ),
    Mutant(  # a cell stabbed at an end meets the new interval wherever it lies
        "stages.py",
        "if cell_parts[k][0] < b:",
        "if True:",
        LINE_ENGINE,
    ),
    Mutant(  # a part that ends at the new interval's start is cut
        "stages.py",
        "entry[3:6] <= ka",
        "entry[3:6] < ka",
        LINE_ENGINE,
    ),
    Mutant(  # the carve emits an empty gap at the closure's end
        "stages.py",
        "if cursor < kb:",
        "if cursor <= kb:",
        LINE_ENGINE,
    ),
    Mutant(  # the host test: a part that ends at the interval's right end hosts it
        "stages.py",
        "return entry if entry[3:6] > kb else None",
        "return entry if entry[3:6] >= kb else None",
        LINE_ENGINE,
    ),
    Mutant(  # a host's inside cell gets a region built anew, not the inserted one
        "stages.py",
        "self._file(inside, inside_region)",
        "self._file(inside)",
        stages_test("test_line_depth4_hosted_insertions_skip_the_general_refine"),
    ),
    Mutant(  # a block split keeps its middle entry in both halves
        "stages.py",
        "del block[load:]",
        "del block[load + 1:]",
        BLOCKS,
    ),
    Mutant(  # nothing comes before the first entry of a later block
        "stages.py",
        "return self._blocks[i - 1][-1] if i else None",
        "return None",
        BLOCKS,
    ),
    Mutant(  # a position past a block's last entry stays in that block
        "stages.py",
        "return (i + 1, 0) if j == len(block) else (i, j)",
        "return i, j",
        BLOCKS,
    ),
    Mutant(  # a line cell with a part outside the region counts as inside
        "stages.py",
        "if count < len(self.regions[cid].parts):",
        "if False:",
        stages_test("test_line_decompose_matches_brute_force"),
    ),
    Mutant(  # a residue point that no inserted set bounds is accepted
        "stages.py",
        "if point not in stage.boundary_points:",
        "if False:",
        stages_test("test_line_decompose_rejects_a_residue_point_no_set_bounds"),
    ),
    Mutant(  # the Cantor holder walk returns the populated mark 0 as a cell
        "stages.py",
        "return cid or None",
        "return cid",
        CANTOR_ENGINE,
    ),
    Mutant(  # a Cantor cell that is the new cylinder is split anyway
        "stages.py",
        "if cell.prefixes == (w,):",
        "if False:",
        CANTOR_ENGINE,
    ),
    Mutant(  # a Cantor cell equal to the hole hosts it
        "stages.py",
        "if cid is None or self.regions[cid].prefixes == (w,):",
        "if cid is None:",
        CANTOR_ENGINE,
    ),
    Mutant(  # a Cantor region that is not a union of cells decomposes
        "stages.py",
        "if cantor_region(covered) != region:",
        "if False:",
        CANTOR_ENGINE,
    ),
    Mutant(  # a cell that has its hole takes another
        "scheduling.py",
        "host is not None and host in pending",
        "host is not None",
        scheduling_test("test_cantor_depth3_blocks"),
    ),
    Mutant(  # the holes of a block no longer go first
        "scheduling.py",
        "sorted(hole_set) + sorted(cover_set | set(remainder))",
        "sorted(hole_set | cover_set | set(remainder))",
        scheduling_test("test_line_depth2_permutation"),
    ),
    Mutant(  # a scale keeps only its last mantissa in the mass sum
        "dyadic.py",
        "by_scale[m.scale] = by_scale.get(m.scale, 0) + m.mantissa",
        "by_scale[m.scale] = m.mantissa",
        ("tests/test_dyadic.py::test_dyadic_sum_matches_the_fraction_sum",),
    ),
    Mutant(  # a snapshot skips the mass audit
        "stages.py",
        "if audit != self.total:",
        "if False:",
        stages_test("test_deep_mass_audit_failure_is_an_invariant_violation"),
    ),
]


def failed(src, tests):
    """Whether the tests fail against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    found = subprocess.run(
        [sys.executable, "-c", "import dyadicmeasure; print(dyadicmeasure.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(found).resolve().is_relative_to(src.resolve()):
        sys.exit(f"dyadicmeasure imports from {found}, not from {src}")
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--hypothesis-profile=mutants", *tests,
        ],
        env=env, stdout=subprocess.DEVNULL,
    )
    if run.returncode not in (0, 1):
        sys.exit(f"pytest exited {run.returncode} on {' '.join(tests)}")
    return run.returncode == 1


def main(mutants=MUTANTS):
    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(root / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        named = sorted({test for m in mutants for test in m.tests})
        if failed(src, named):
            sys.exit("a named test fails on the unmutated source")
        survivors = 0
        for m in mutants:
            path = src / "dyadicmeasure" / m.file
            original = path.read_text()
            found = original.count(m.snippet)
            if found != 1:
                sys.exit(f"{m.file}: snippet found {found} times: {m.snippet!r}")
            path.write_text(original.replace(m.snippet, m.replacement))
            killed = failed(src, m.tests)
            path.write_text(original)
            survivors += not killed
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict}: {m.file}: {m.snippet!r} -> {m.replacement!r}")
        if survivors:
            sys.exit(f"{survivors} of {len(mutants)} mutants survived")


if __name__ == "__main__":
    main()

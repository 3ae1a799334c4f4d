"""Exact outputs pinned byte for byte.

The golden files are the exact CLI output of these commands on each
adapter: ``schedule --depth 4``, ``verify --depth 3``, ``partition 1/8``
and ``build --stages 6 --format csv``.  The line partition certificate is
324 KB, so only its sha256 is kept.  Together with the digest of the first
1,526 canonical line regions (the basis a depth-4 line schedule reaches,
shaped by the enumeration's massless class index), they run the insertion
engine, ``decompose``, every certificate and the CSV export, and catch
any change of an exact output in seconds.  Regenerate a golden file
only when an output is meant to change, e.g. ``dyadicmeasure schedule
--adapter A --depth 4 --out tests/golden/schedule-A-d4.json``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyadicmeasure.cli as cli
from dyadicmeasure.adapters import make_adapter

GOLDEN = Path(__file__).parent / "golden"

# sha256 of the first 1,526 line regions, one formatted region per line
LINE_REGIONS_1526 = (
    "9940b06acc8cbe9f65563628e9ecda03d38d5783aca46cba2a583ea42765be28"
)

# command -> (arguments, golden file name with {} for the adapter)
COMMANDS = {
    "verify": (["verify", "--depth", "3"], "verify-{}-d3.json"),
    "partition": (["partition", "1/8"], "partition-{}-1_8.json"),
    "build": (
        ["build", "--stages", "6", "--format", "csv"],
        "build-{}-s6.csv",
    ),
}

# sha256 of `dyadicmeasure schedule --adapter cantor --depth 5`, the
# digest the benchmark's cantor-build-d5 gate holds
CANTOR_SCHEDULE_D5 = (
    "3f1c8135af062b59f6a6c53bb23a138a4151e2198bb12e1a1d682ae8b2e2b092"
)

# outputs too large to check in, pinned by sha256 instead
DIGESTS = {
    "partition-rational-line-1_8.json": (
        "91e72b6720cba40b2a17af2c490add88ec1f660381d4ac92aa2f652f55267b02"
    ),
}


@pytest.mark.parametrize("adapter", ["rational-line", "cantor"])
def test_schedule_depth4_matches_golden(tmp_path, adapter):
    out = tmp_path / "schedule.json"
    code = cli.main(
        ["schedule", "--adapter", adapter, "--depth", "4", "--out", str(out)]
    )
    assert code == 0
    golden = GOLDEN / f"schedule-{adapter}-d4.json"
    assert out.read_bytes() == golden.read_bytes()


def test_schedule_runs_without_sortedcontainers():
    """The package has no runtime dependency: with ``sortedcontainers``
    blocked from import, a fresh interpreter still writes the golden
    schedule byte for byte."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys\n"
        "sys.modules['sortedcontainers'] = None\n"
        "from dyadicmeasure import cli\n"
        "sys.exit(cli.main(['schedule', '--depth', '4']))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True
    )
    assert run.returncode == 0, run.stderr.decode()
    golden = GOLDEN / "schedule-rational-line-d4.json"
    assert run.stdout == golden.read_bytes()


def test_cantor_schedule_depth5_digest(tmp_path):
    out = tmp_path / "schedule.json"
    code = cli.main(
        ["schedule", "--adapter", "cantor", "--depth", "5", "--out", str(out)]
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CANTOR_SCHEDULE_D5


@pytest.mark.parametrize("adapter", ["rational-line", "cantor"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_output_matches_golden(tmp_path, command, adapter):
    args, pattern = COMMANDS[command]
    out = tmp_path / "output"
    assert cli.main(args + ["--adapter", adapter, "--out", str(out)]) == 0
    name = pattern.format(adapter)
    if name in DIGESTS:
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == DIGESTS[name]
    else:
        assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("adapter", ["rational-line", "cantor"])
def test_verify_with_one_cpu_matches_golden(tmp_path, one_cpu, adapter):
    """With one usable CPU every verify check runs in this process, and
    the output is the same as the forked run's."""
    out = tmp_path / "output"
    argv = ["verify", "--depth", "3", "--adapter", adapter, "--out", str(out)]
    assert cli.main(argv) == 0
    golden = GOLDEN / f"verify-{adapter}-d3.json"
    assert out.read_bytes() == golden.read_bytes()


def test_first_line_regions_digest():
    adapter = make_adapter("rational-line")
    text = "".join(
        adapter.format_region(adapter.enumerate(k).region) + "\n"
        for k in range(1, 1527)
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == LINE_REGIONS_1526

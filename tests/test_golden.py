"""Exact outputs pinned byte for byte.

The golden files are the exact ``dyadicmeasure schedule --depth 4`` output
for each adapter.  Together with the digest of the first 1,526 canonical
line regions (the basis a depth-4 line schedule reaches, which the shadow
insertion run of the enumeration shapes), they catch any change of an
exact output in seconds.  Regenerate a golden file only when an output is
meant to change: ``dyadicmeasure schedule --adapter A --depth 4 --out
tests/golden/schedule-A-d4.json``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

import dyadicmeasure.cli as cli
from dyadicmeasure.adapters import make_adapter

GOLDEN = Path(__file__).parent / "golden"

# sha256 of the first 1,526 line regions, one formatted region per line
LINE_REGIONS_1526 = (
    "9940b06acc8cbe9f65563628e9ecda03d38d5783aca46cba2a583ea42765be28"
)


@pytest.mark.parametrize("adapter", ["rational-line", "cantor"])
def test_schedule_depth4_matches_golden(tmp_path, adapter):
    out = tmp_path / "schedule.json"
    code = cli.main(
        ["schedule", "--adapter", adapter, "--depth", "4", "--out", str(out)]
    )
    assert code == 0
    golden = GOLDEN / f"schedule-{adapter}-d4.json"
    assert out.read_bytes() == golden.read_bytes()


def test_first_line_regions_digest():
    adapter = make_adapter("rational-line")
    text = "".join(
        adapter.format_region(adapter.enumerate(k).region) + "\n"
        for k in range(1, 1527)
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == LINE_REGIONS_1526

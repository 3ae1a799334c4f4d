"""Benchmark workloads: one operation each, plus the exact-output gate.

An operation goes through the public API only: ``build_schedule`` on a fresh
adapter, or the CLI entry point ``cli.main``.  Its output is checked after the
timer stops, against digests pinned from the construction as first released;
a faster program that changes any exact output counts as failed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass, replace

from dyadicmeasure import certificates, cli, make_adapter, scheduling

# the stage totals at depth have mantissas beyond the default str limit
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


@dataclass(frozen=True)
class Workload:
    """One operation repeated back to back, and what its output must be.

    Build workloads pin the final stage index, the final cell count and the
    sha256 of the ``dyadicmeasure schedule`` JSON for the same adapter and
    depth.  Verify workloads pin the sha256 of the ``verify`` JSON after every
    ``"seed"`` field is nulled.  ``doctor`` marks a deliberately corrupted
    variant that exists only so the smoke test can show the gate failing.
    """

    name: str
    kind: str  # "build" | "verify"
    adapter: str
    depth: int
    digest: str
    stages: int = 0
    cells: int = 0
    doctor: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # the build users and the acceptance suite run; per-insert cost grows
        # with the cell count, which depth 4 is too small to show
        Workload(
            "line-build-d5", "build", "rational-line", 5,
            "ef3f95db37df948ee7483ed5faf188ca49cff03acdb52a6dba01169d07a3d391",
            stages=27436, cells=26944,
        ),
        # region algebra bound, no shadow builder and no cover scans: the
        # control case for line-engine changes
        Workload(
            "cantor-build-d5", "build", "cantor", 5,
            "3f1c8135af062b59f6a6c53bb23a138a4151e2198bb12e1a1d682ae8b2e2b092",
            stages=4094, cells=2048,
        ),
        # the read side: decompose, kappa, every certificate, short replays
        # and the CLI's JSON output
        Workload(
            "line-verify-d4", "verify", "rational-line", 4,
            "c098457842cb80ed8faae0f91dc5119f311686963312a19b5097758766094689",
        ),
    )
}

# the same harness and gate at toy sizes, for the benchmark's own smoke test
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "smoke-line-build-d2", "build", "rational-line", 2,
            "67910683bfae86d9c6b25b003fea39935d9d5c7899bf8ad8d74cf964a78623af",
            stages=26, cells=32,
        ),
        Workload(
            "smoke-cantor-build-d3", "build", "cantor", 3,
            "7e8ad6d5c7dfd535166f7bab7080130fba0d0ead99b0c81af4b2e83279044d5f",
            stages=30, cells=16,
        ),
        Workload(
            "smoke-line-verify-d2", "verify", "rational-line", 2,
            "7f7ba92791fd33749c8211c1d930c1c960966b9fdacb375a7cfe2e84ec9cb1f3",
        ),
    )
}
SMOKE_WORKLOADS["smoke-line-build-d2-doctored"] = replace(
    SMOKE_WORKLOADS["smoke-line-build-d2"],
    name="smoke-line-build-d2-doctored",
    doctor=True,
)

ALL_WORKLOADS = {**WORKLOADS, **SMOKE_WORKLOADS}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def schedule_json(schedule) -> str:
    """The exact text ``dyadicmeasure schedule`` prints for this schedule."""
    payload = {
        "adapter": schedule.adapter.name,
        "command": "schedule",
        "depth": schedule.depth,
        "blocks": [
            {
                "i": b.i,
                "j": b.j,
                "F": list(b.holes),
                "G": list(b.cover),
                "H": list(b.remainder),
                "g": b.g,
            }
            for b in schedule.blocks
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _null_seeds(node):
    if isinstance(node, dict):
        return {
            k: None if k == "seed" else _null_seeds(v) for k, v in node.items()
        }
    if isinstance(node, list):
        return [_null_seeds(v) for v in node]
    return node


def normalised_verify_json(text: str) -> str:
    """verify output with every "seed" field nulled, encoded like the CLI."""
    payload = _null_seeds(json.loads(text))
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def verify_seeds(seed: int):
    """Sampling seeds for successive verify operations of one run."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


class Runner:
    """Runs and gates the operations of one workload.

    ``run_op`` is the timed part; ``check`` runs after the timer stops and
    returns None when the output is exact, or the reason it is not.
    """

    def __init__(self, workload: Workload, seed: int, out_dir: str) -> None:
        self.workload = workload
        self._seeds = verify_seeds(seed)
        self._out_path = os.path.join(
            out_dir, f"verify-{workload.name}-{os.getpid()}.json"
        )

    def fix_seed(self) -> None:
        """Give every later verify operation the CLI's default seed, 0.

        Sampling decides how many kappa calls the checks make, so traced
        operations share one seed for their counts to repeat exactly, from
        one operation and one run to the next.
        """
        self._seeds = itertools.repeat(0)

    def run_op(self):
        w = self.workload
        if w.kind == "build":
            return scheduling.build_schedule(make_adapter(w.adapter), w.depth)
        return cli.main(
            [
                "verify",
                "--adapter", w.adapter,
                "--depth", str(w.depth),
                "--seed", str(next(self._seeds)),
                "--out", self._out_path,
            ]
        )

    def check(self, output) -> str | None:
        w = self.workload
        if w.kind == "build":
            schedule, trace = output
            text = schedule_json(schedule)
            if w.doctor:
                text = text.replace('"g": ', '"g": 1', 1)
            if len(trace) != w.stages:
                return f"ended at stage {len(trace)}, expected {w.stages}"
            if len(trace.final.cells) != w.cells:
                return (
                    f"ended with {len(trace.final.cells)} cells, "
                    f"expected {w.cells}"
                )
            report = certificates.check_conservation(trace)
            if report.positions != w.stages:
                return f"conservation audited {report.positions} positions"
            digest = sha256_text(text)
        else:
            if output != 0:
                return f"verify exited {output}"
            with open(self._out_path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(self._out_path)
            digest = sha256_text(normalised_verify_json(text))
        if digest != w.digest:
            return f"output digest {digest} != pinned {w.digest}"
        return None

    def cleanup(self) -> None:
        if os.path.exists(self._out_path):
            os.remove(self._out_path)

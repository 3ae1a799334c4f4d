"""Benchmark of the dyadicmeasure construction, run from the repository root.

    python3 perfbench/run.py --workload line-build-d5 --seed 0 --trace 0
    python3 perfbench/run.py --all      # every workload, one table
    python3 perfbench/run.py --smoke    # toy sizes; the gate must fail once

A run times set-up in fresh interpreters (``--probe`` children of
``worker.py``) before and after one worker process, which runs the workload's
operations back to back for ``--seconds``, gates every output against pinned
digests, and reports raw figures.  This file turns them into the metrics
named in ``BENCHMARK.json``: the end-to-end ones with ``--trace 0`` and the
per-layer ones with ``--trace 1``.  The last line of standard output is the
result object; the lines before it give the environment and every metric by
name and unit, and a copy with the raw figures goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
PACKAGE = os.path.join(ROOT, "src", "dyadicmeasure")

HASH_SEED = "0"  # PYTHONHASHSEED of every child: set order of str keys
# fresh interpreters timed per run, half before the worker and half after it
# so that one slow spell of the host does not decide the median; the worker's
# own set-up is one more sample
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0  # a run must end within 180 s, set-up probes included
SMOKE_WORKLOADS = (
    "smoke-line-build-d2",
    "smoke-cantor-build-d3",
    "smoke-line-verify-d2",
)
DOCTORED = "smoke-line-build-d2-doctored"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def spawn(worker_args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py to completion; return its start time and its JSON line."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *worker_args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {worker_args} overran the limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {worker_args} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {worker_args} printed nothing")
    return started, json.loads(lines[-1])


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 of the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode("utf-8"))
                with open(path, "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def probe_setup(count: int, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until dyadicmeasure is in."""
    samples = []
    for _ in range(count):
        started, probe = spawn(["--probe"], deadline)
        samples.append(probe["imported_at"] - started)
    return samples


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """One benchmark run; returns the result object plus its context."""
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    setup = probe_setup(SETUP_PROBES // 2, deadline)
    started, raw = spawn(
        [
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--out-dir", OUT_DIR,
        ],
        deadline,
    )
    setup.append(raw["imported_at"] - started)
    setup += probe_setup(SETUP_PROBES - SETUP_PROBES // 2, deadline)

    if trace:
        layers = raw["layers"]
        # counts and ratios repeat exactly from op to op (the worker fails
        # an op whose counts move); only the times need a median
        figures = {
            key: statistics.median(layer[key] for layer in layers)
            if key.endswith("_s")
            else layers[0][key]
            for key in layers[0]
        }
        # compared the way op_s is measured
        figures["trace.overhead_s"] = statistics.mean(
            raw["traced_op_times"]
        ) - statistics.mean(raw["op_times"])
        declared = spec["per_layer"]
    else:
        figures = {
            # the mean, not the median: on a shared host the machine runs
            # in spells of seconds up to 1.7x slow, and the median of such a
            # bimodal sample jumps between the modes from run to run, while
            # the mean integrates over the spells as one long operation does
            "op_s": statistics.mean(raw["op_times"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        }
        declared = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    failed = len(raw["failures"])
    result = {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": raw["python"],
        "sortedcontainers": raw["sortedcontainers"],
        "nproc": len(os.sched_getaffinity(0)),
        "pythonhashseed": HASH_SEED,
        "ops": len(raw["op_times"]),
        "traced_ops": len(raw.get("traced_op_times", ())),
    }
    record = {
        "env": env,
        "result": result,
        "failed_frac": failed / raw["attempted"],
        "failures": raw["failures"],
        "setup_samples_s": setup,
        "op_times_s": raw["op_times"],
    }
    if trace:
        record["traced_op_times_s"] = raw["traced_op_times"]
        record["spans_file"] = raw["spans_file"]
        record["spans_written"] = raw["spans_written"]
        record["layers_per_op"] = raw["layers"]
    path = os.path.join(
        OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


def print_record(record: dict) -> None:
    env, result = record["env"], record["result"]
    print("env " + json.dumps(env, sort_keys=True))
    ops = env["traced_ops"] if env["trace"] else env["ops"]
    for name, metric in result["metrics"].items():
        note = ""
        if name == "op_s":
            median = statistics.median(record["op_times_s"])
            note = f"  (mean of {ops} ops; median {median:.6g} s)"
        elif name == "setup_s":
            samples = len(record["setup_samples_s"])
            note = f"  (median of {samples} interpreters)"
        elif name.endswith("_s"):
            note = f"  (median of {ops} ops)"
        print(f"{env['workload']:16} {name:30} {metric['value']:.6g} "
              f"{metric['unit']}{note}")
    print(f"{env['workload']:16} {'failed_frac':30} "
          f"{record['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for reason in record["failures"][:5]:
        print(f"failed: {reason}", file=sys.stderr)


def smoke(spec: dict) -> bool:
    """Toy sizes through the same harness: exact ones pass, doctored fail."""
    ok = True
    for workload in (*SMOKE_WORKLOADS, DOCTORED):
        for trace in (0, 1):
            record = run_workload(spec, workload, 0, 2.0, trace)
            result = record["result"]
            expect_all_failed = workload == DOCTORED
            if expect_all_failed:
                good = result["failed"] == result["attempted"]
            else:
                good = result["failed"] == 0
            verdict = "PASS" if good else "FAIL"
            print(f"smoke {verdict}: {workload} trace={trace} failed "
                  f"{result['failed']} of {result['attempted']}")
            ok = ok and good
    return ok


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads)
    mode.add_argument("--all", action="store_true",
                      help="run every workload and print one table")
    mode.add_argument("--smoke", action="store_true",
                      help="run the toy-size self test of the gate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"no package sources at {os.path.relpath(PACKAGE, ROOT)}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return 0 if smoke(spec) else 1
        if args.all:
            summary = {}
            for workload in workloads:
                record = run_workload(
                    spec, workload, args.seed, args.seconds, args.trace
                )
                print_record(record)
                summary[workload] = record["result"]
            print(json.dumps(summary, sort_keys=True))
            return 0 if all(r["correct"] for r in summary.values()) else 1
        record = run_workload(
            spec, args.workload, args.seed, args.seconds, args.trace
        )
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark worker: a process that imports dyadicmeasure and runs a workload.

``run.py`` starts this file as a child process with a pinned PYTHONHASHSEED.
It imports the package from the checkout's ``src`` before anything else, so
the moment the import finishes marks the end of set-up.  With ``--probe`` it
stops there and prints that moment; otherwise it runs operations back to back
until the next one would end past ``--seconds``, gates each output outside
the timed interval, and prints one JSON line with the raw figures.

With ``--trace 1`` half the time runs untraced operations and half runs
operations under the span tracer, so the tracing overhead can be read off.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dyadicmeasure  # noqa: E402

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import sortedcontainers  # noqa: E402

from tracer import Tracer, install  # noqa: E402
from workloads import ALL_WORKLOADS, Runner  # noqa: E402

# per-layer counts that must repeat exactly from one traced op to the next
EXACT_COUNTS = (
    "adapters.shadow_inserts",
    "adapters.max_index",
    "stages.inserts",
    "stages.splits",
    "stages.grants",
    "stages.final_cells",
    "stages.snapshots",
    "stages.snapshot_calls",
    "stages.decompose_calls",
    "scheduling.hole_candidates",
    "scheduling.cover_candidates",
    "scheduling.replay_inserts",
    "regions.calls",
    "masses.kappa_calls",
    "dyadic.max_mantissa_bits",
    "trace.spans",
)


def run_ops(runner: Runner, budget: float, tracer: Tracer | None = None):
    """Run operations until the next would end past budget; at least one.

    Returns the per-operation wall times, (op number, reason) for each failed
    operation and, when traced, the per-layer figures of each operation.
    """
    times: list[float] = []
    failures: list[tuple[int, str]] = []
    layers: list[dict] = []
    began = time.perf_counter()
    while True:
        gc.collect()
        op_id = len(times) + 1
        if tracer is not None:
            tracer.begin_op(op_id)
        output = None
        reason = None
        start = time.perf_counter()
        try:
            output = runner.run_op()
        except Exception as exc:  # a raising operation counts as failed
            reason = f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end_op()
        if reason is None:
            try:
                reason = runner.check(output)
            except Exception as exc:
                reason = f"gate raised {type(exc).__name__}: {exc}"
        del output
        if reason is not None:
            failures.append((op_id, reason))
        if tracer is not None:
            layers.append(traced_figures(tracer, op_id))
        if time.perf_counter() - began + statistics.median(times) > budget:
            return times, failures, layers


def traced_figures(tracer: Tracer, op_id: int) -> dict:
    """Per-layer figures of one traced op, then drop what the op retained."""
    out = tracer.layer_metrics(op_id)
    facts = tracer.results[op_id]
    traces = facts.pop("traces")
    if traces:
        schedule, trace = traces[-1]
        records = trace.records
        out["stages.splits"] = sum(r.splits for r in records)
        out["stages.grants"] = sum(1 for r in records if r.grant is not None)
        out["stages.final_cells"] = len(trace.final.cells)
        out["stages.snapshots"] = len(trace.snapshot_positions)
        out["dyadic.max_mantissa_bits"] = max(
            r.total_after.mantissa.bit_length() for r in records
        )
        holes = sum(len(b.holes) for b in schedule.blocks)
        stage_count = len(trace)
    else:
        for key in (
            "stages.splits",
            "stages.grants",
            "stages.final_cells",
            "stages.snapshots",
            "dyadic.max_mantissa_bits",
        ):
            out[key] = 0
        holes = stage_count = 0
    max_index = facts["max_index"]
    out["adapters.max_index"] = max_index
    out["adapters.used_ratio"] = stage_count / max_index if max_index else 0.0
    candidates = out["scheduling.hole_candidates"]
    out["scheduling.hole_hit_ratio"] = (
        holes / candidates if candidates else 0.0
    )
    candidates = out["scheduling.cover_candidates"]
    out["scheduling.cover_hit_ratio"] = (
        facts["covers_chosen"] / candidates if candidates else 0.0
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir")
    args = parser.parse_args()

    package_dir = os.path.dirname(os.path.abspath(dyadicmeasure.__file__))
    if package_dir != os.path.join(ROOT, "src", "dyadicmeasure"):
        print(f"dyadicmeasure imported from {package_dir}, not the checkout",
              file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"imported_at": IMPORTED_AT}))
        return 0

    runner = Runner(ALL_WORKLOADS[args.workload], args.seed, args.out_dir)
    result = {
        "imported_at": IMPORTED_AT,
        "python": platform.python_version(),
        "sortedcontainers": sortedcontainers.__version__,
    }
    try:
        if args.trace:
            budget = args.seconds / 2
            plain, failures, _ = run_ops(runner, budget)
            runner.fix_seed()
            tracer = Tracer()
            install(tracer)
            traced, traced_failures, layers = run_ops(runner, budget, tracer)
            tracer.uninstall()
            gated = {op_no for op_no, _ in traced_failures}
            for op_no, layer in enumerate(layers[1:], start=2):
                moved = [k for k in EXACT_COUNTS if layer[k] != layers[0][k]]
                if moved and op_no not in gated:
                    traced_failures.append(
                        (op_no, f"counts differ from traced op 1: {moved}")
                    )
            failures = [f"op {n}: {why}" for n, why in failures] + [
                f"traced op {n}: {why}" for n, why in traced_failures
            ]
            spans_path = os.path.join(
                args.out_dir, f"spans-{args.workload}-seed{args.seed}.csv.gz"
            )
            result["spans_written"] = tracer.write_spans(spans_path)
            result["spans_file"] = os.path.relpath(spans_path, ROOT)
            result["op_times"] = plain
            result["traced_op_times"] = traced
            result["layers"] = layers
        else:
            times, failures, _ = run_ops(runner, args.seconds)
            failures = [f"op {n}: {why}" for n, why in failures]
            result["op_times"] = times
    finally:
        runner.cleanup()
    result["attempted"] = len(result["op_times"]) + len(
        result.get("traced_op_times", ())
    )
    result["failures"] = failures
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_kb"] = usage.ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

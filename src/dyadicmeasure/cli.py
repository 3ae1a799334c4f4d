"""Batch front end: build stages or schedules, verify, export certificates.

Outputs are deterministic given the arguments: JSON is emitted with sorted
keys and fixed indentation, every mass appears as an exact mantissa/scale
pair, and all sampling is seeded.  ``verify`` runs its sampled checks
(additivity, consistency, positivity) on a shallower schedule whose
stream starts like the requested one's: in a child forked before the
build when the machine has a CPU to spare, else here after it
(``_alongside``); the output is the same either way.  Exit codes:
0 on success, 2 for configuration problems (an unwritable ``--out`` among
them), 3 when a verification suite finds a violation (a counterexample
artifact is written in that case, or stderr says why it could not be).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import signal
import sys
import threading
from fractions import Fraction

from .adapters import DEFAULT_SCAN_CAP, make_adapter
from .certificates import (
    build_partition,
    certify_boundary,
    certify_max_decay,
    check_additivity,
    check_conservation,
    check_consistency,
    check_partition_depth,
    check_positivity,
    fragmentation_level,
    to_json,
)
from .dyadic import DyadicMass
from .errors import (
    ConfigError,
    DyadicMeasureError,
    InvariantViolation,
    VerificationViolation,
)
from .scheduling import build_schedule
from .stages import StageBuilder

VIOLATION_ARTIFACT = "dyadicmeasure-violation.json"


def _make_adapter(args: argparse.Namespace):
    injected = []
    basis_file = getattr(args, "basis_file", None)
    if basis_file:
        try:
            with open(basis_file, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read basis file: {exc}") from exc
        probe = make_adapter(args.adapter)
        for line in lines:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            injected.append(probe.parse_region(text))
    return make_adapter(args.adapter, injected=injected)


def _signature_text(flags) -> str:
    return "".join("I" if f else "E" for f in flags)


def _stage_rows(stage, adapter) -> dict:
    cells = []
    for cid in sorted(stage.cells):
        cell = stage.cells[cid]
        cells.append(
            {
                "cell": cid,
                "signature": _signature_text(stage.signature_of(cid)),
                "region": adapter.format_region(cell.region),
                "mass": cell.mass.to_json(),
            }
        )
    return {
        "stage": stage.index,
        "cells": cells,
        "total": stage.total_mass.to_json(),
    }


def _check_counts(args: argparse.Namespace) -> None:
    """Reject --depth, --stages and --scan-cap below 1, where given."""
    for name in ("depth", "stages", "scan_cap"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} must be >= 1, got {value}")


def _cmd_build(args: argparse.Namespace) -> dict:
    adapter = _make_adapter(args)
    handles = (adapter.enumerate(k) for k in range(1, args.stages + 1))
    stages = StageBuilder(adapter).run(handles)
    table = [_stage_rows(stage, adapter) for stage in stages]
    return {"adapter": adapter.name, "command": "build", "stages": table}


def _cmd_schedule(args: argparse.Namespace) -> dict:
    adapter = _make_adapter(args)
    schedule, _ = build_schedule(adapter, args.depth, args.scan_cap)
    blocks = [
        {
            "i": b.i,
            "j": b.j,
            "F": list(b.holes),
            "G": list(b.cover),
            "H": list(b.remainder),
            "g": b.g,
        }
        for b in schedule.blocks
    ]
    return {
        "adapter": adapter.name,
        "command": "schedule",
        "depth": args.depth,
        "blocks": blocks,
    }


def _fork_helps() -> bool:
    """Whether a forked child can run beside this process: ``os.fork``
    exists, two or more CPUs are usable, and no other thread holds a lock
    that the child would inherit held."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask off Linux
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _alongside(main, side):
    """Return ``(main(), side())``.  When ``_fork_helps`` holds, side runs
    in a child forked before main, while main runs here; side runs here,
    after main, when no child ran (the fork failed) or the child left
    without a result (side raised, or the child was killed).  A side that
    returns the errors it expects, as verify's does, is run once.

    The child inherits every object side reads, so only its result
    crosses the pipe, pickled, and the child leaves through ``os._exit``:
    no buffer, exit hook or caller's cleanup runs twice.  The child is
    always reaped, and killed first when main raises.
    """
    if not _fork_helps():
        return main(), side()
    import pickle  # only a forking verify needs it: 0.4 MB of RSS

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read_end)
        os.close(write_end)
        return main(), side()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            data = pickle.dumps(side())
            with os.fdopen(write_end, "wb") as out:
                out.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as inp:
        try:
            here = main()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            data = inp.read()
            status = os.waitpid(pid, 0)[1]
    return here, pickle.loads(data) if status == 0 else side()


def _attempt(check, *args, **kwargs):
    """check's report as JSON, or the package error it raised, which the
    caller raises once every check before it in the serial order passed."""
    try:
        return to_json(check(*args, **kwargs))
    except DyadicMeasureError as exc:
        return exc


# the sampled checks read only the stream's first stages: consistency the
# first eight, additivity the last
SAMPLED_STAGES = 12


def _sampled_prefix(trace) -> tuple[int, ...]:
    return tuple(h.index for h in trace.stream[:SAMPLED_STAGES])


def _sampled_checks(
    adapter, depth: int, scan_cap: int, seed: int
) -> tuple[tuple[int, ...], list]:
    """Sample the shallowest schedule, at most depth deep, whose stream has
    SAMPLED_STAGES stages: a schedule's stream is a prefix of every deeper
    one's, so these are the stages depth's own stream starts with.

    Returns the indices of that stream prefix and the additivity,
    consistency and positivity reports, each as JSON or as the package
    error it raised.  Raises ConfigError when the last stage of the prefix
    has fewer than two cells."""
    for shallow in range(1, depth + 1):
        _, trace = build_schedule(adapter, shallow, scan_cap)
        if len(trace) >= SAMPLED_STAGES:
            break
    replayed = list(trace.stages(min(SAMPLED_STAGES, len(trace))))
    sampled = replayed[-1]
    if len(sampled.cells) < 2:
        raise ConfigError(
            f"additivity sampling needs >= 2 cells, but stage {sampled.index} "
            f"has {len(sampled.cells)}; use a deeper --depth"
        )
    return _sampled_prefix(trace), [
        _attempt(check_additivity, sampled, 1000, seed=seed),
        _attempt(check_consistency, replayed[:8], 50, seed=seed),
        _attempt(check_positivity, adapter, 50),
    ]


def _certify(schedule, trace, depth: int) -> dict:
    """The boundary certificates, the decay values and the conservation
    report, in that order; the first failure raises."""
    return {
        "certificates": [
            to_json(certify_boundary(schedule, trace, i))
            for i in sorted({b.i for b in schedule.blocks})
        ],
        "decay": [
            {"m": m, "value": to_json(certify_max_decay(schedule, trace, m))}
            for m in range(1, depth + 1)
        ],
        "conservation": to_json(check_conservation(trace)),
    }


def _cmd_verify(args: argparse.Namespace) -> dict:
    adapter = _make_adapter(args)

    def build_and_certify():
        schedule, trace = build_schedule(adapter, args.depth, args.scan_cap)
        return trace, _attempt(_certify, schedule, trace, args.depth)

    def sample():
        # a package error is side's result, so a forked child sends it back
        try:
            return _sampled_checks(adapter, args.depth, args.scan_cap, args.seed)
        except DyadicMeasureError as exc:
            return exc

    (trace, certified), side = _alongside(build_and_certify, sample)
    # the serial order: too few cells (raised by _sampled_checks), boundary,
    # decay, conservation, additivity, consistency, positivity
    if isinstance(side, DyadicMeasureError):
        raise side
    prefix, sampled = side
    # a schedule's stream is a prefix of every deeper one's: a mismatch is
    # a bug in the package, not a condition to recover from
    built = _sampled_prefix(trace)
    if prefix != built:
        raise InvariantViolation(
            f"the sampled checks read stream indices {prefix}, but the built "
            f"stream starts {built}"
        )
    for report in (certified, *sampled):
        if isinstance(report, DyadicMeasureError):
            raise report
    return {
        "adapter": adapter.name,
        "command": "verify",
        "depth": args.depth,
        "seed": args.seed,
        "boundary_certificates": certified["certificates"],
        "max_decay": certified["decay"],
        "reports": [certified["conservation"], *sampled],
    }


def _parse_epsilon(text: str) -> DyadicMass:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad epsilon literal {text!r}: {exc}") from exc
    if not 0 < value <= 1:
        raise ConfigError(f"epsilon must be in (0, 1], got {text!r}")
    try:
        return DyadicMass.from_fraction(value)
    except InvariantViolation as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_partition(args: argparse.Namespace) -> dict:
    epsilon = _parse_epsilon(args.epsilon)
    adapter = _make_adapter(args)
    depth = args.depth
    if depth is None:
        depth = fragmentation_level(epsilon)
        limit = adapter.practical_depth
        if limit is not None and depth > limit:
            raise ConfigError(
                f"epsilon {args.epsilon} derives depth {depth}, past the "
                f"practical depth {limit} of the {adapter.name} adapter "
                f'(README "Depth guidance"); pass --depth to build anyway'
            )
    check_partition_depth(epsilon, depth)
    schedule, trace = build_schedule(adapter, depth, args.scan_cap)
    certificate = build_partition(schedule, trace, epsilon)
    return {
        "adapter": adapter.name,
        "command": "partition",
        "depth": depth,
        "certificate": to_json(certificate),
    }


def _to_csv(payload: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["stage", "cell", "signature", "region", "mantissa", "scale"])
    for stage in payload["stages"]:
        for cell in stage["cells"]:
            writer.writerow(
                [
                    stage["stage"],
                    cell["cell"],
                    cell["signature"],
                    cell["region"],
                    cell["mass"]["mantissa"],
                    cell["mass"]["scale"],
                ]
            )
        writer.writerow(
            [
                stage["stage"],
                "TOTAL",
                "",
                "",
                stage["total"]["mantissa"],
                stage["total"]["scale"],
            ]
        )
    return out.getvalue()


def _reproduction(args: argparse.Namespace, exc: VerificationViolation) -> dict:
    """What a violation artifact records to rerun its command: the
    arguments, and the stage and block of the failure when it names them."""
    given = vars(args)
    names = ("command", "adapter", "seed", "stages", "depth", "epsilon")
    where = {"stage": exc.stage, "block": exc.block}
    return {name: given[name] for name in names if name in given} | {
        name: value for name, value in where.items() if value is not None
    }


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out: {exc}") from exc


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--adapter",
        choices=("rational-line", "cantor"),
        default="rational-line",
        help="which space to run on",
    )
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadicmeasure",
        description="Exact dyadic premeasure construction at finite stage.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    build = subs.add_parser("build", help="insert basis sets and print stages")
    build.add_argument(
        "--stages", type=int, default=3, help="number of insertions"
    )
    build.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    # only build reads it: the line stream refines around the seeds' ends,
    # so a schedule over injected intervals with other ends can scan for
    # minutes before it finds their covers
    build.add_argument(
        "--basis-file",
        default=None,
        help="file with one region literal per line, injected ahead of the "
        "canonical enumeration",
    )
    _add_common(build)
    build.set_defaults(handler=_cmd_build)

    schedule = subs.add_parser(
        "schedule", help="run the diagonal block schedule"
    )
    schedule.add_argument(
        "--depth", type=int, default=3, help="number of diagonals"
    )
    _add_common(schedule)
    schedule.set_defaults(handler=_cmd_schedule)

    verify = subs.add_parser("verify", help="run every verification suite")
    verify.add_argument(
        "--depth", type=int, default=3, help="number of diagonals"
    )
    verify.add_argument("--seed", type=int, default=0, help="sampling seed")
    _add_common(verify)
    verify.set_defaults(handler=_cmd_verify)

    partition = subs.add_parser(
        "partition", help="emit a partition certificate"
    )
    partition.add_argument(
        "epsilon", help="dyadic mass bound for every piece, e.g. 1/8"
    )
    partition.add_argument(
        "--depth",
        type=int,
        default=None,
        help="number of diagonals (default: what epsilon requires)",
    )
    _add_common(partition)
    partition.set_defaults(handler=_cmd_partition)

    for sub in (schedule, verify, partition):  # the commands that scan
        sub.add_argument(
            "--scan-cap", type=int, default=DEFAULT_SCAN_CAP,
            help="largest basis index a hole or cover scan may inspect",
        )
    return parser


def main(argv=None) -> int:
    # stage totals at depth have mantissas beyond the default str limit
    # (3.11 and later): lift it for this call only, whatever its exit
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        payload = args.handler(args)
        if getattr(args, "format", "json") == "csv":
            text = _to_csv(payload)
        else:
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _emit(text, args.out)
    except VerificationViolation as exc:
        artifact = json.dumps(
            {
                "error": type(exc).__name__,
                "message": str(exc),
                **_reproduction(args, exc),
            },
            indent=2,
            sort_keys=True,
        )
        path = args.out or VIOLATION_ARTIFACT
        print(f"verification violation: {exc}", file=sys.stderr)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(artifact + "\n")
        except OSError as err:
            print(f"no counterexample written: {err}", file=sys.stderr)
        else:
            print(f"counterexample written to {path}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DyadicMeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

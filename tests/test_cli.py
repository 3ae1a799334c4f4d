"""Command line front end: payload shapes, determinism, exit codes."""

import json
import os
import sys
import time
from pathlib import Path

import pytest

import dyadicmeasure.certificates as certificates
import dyadicmeasure.cli as cli
import dyadicmeasure.masses as masses
from dyadicmeasure.adapters import make_adapter
from dyadicmeasure.dyadic import ONE, DyadicMass
from dyadicmeasure.errors import (
    AdditivityViolation,
    ChainViolation,
    ConsistencyViolation,
    DecayViolation,
)
from dyadicmeasure.scheduling import build_schedule

T1_BASIS = "# first three insertions\n(0,2)\n(1,3)\n\n(9/4,11/4)\n"


@pytest.fixture
def t1_basis(tmp_path):
    path = tmp_path / "basis.txt"
    path.write_text(T1_BASIS, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_build(monkeypatch):
    """Fail the test if the command reaches cli.build_schedule."""

    def refuse(*args, **kwargs):
        raise AssertionError("built a schedule")

    monkeypatch.setattr(cli, "build_schedule", refuse)


# -- build --------------------------------------------------------------------


def test_build_three_stages(capsys, t1_basis):
    code, out, err = run(
        capsys, "build", "--stages", "3", "--basis-file", t1_basis
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["command"] == "build"
    assert payload["adapter"] == "rational-line"
    s1, s2, s3 = payload["stages"]
    assert s1 == {
        "stage": 1,
        "cells": [
            {
                "cell": 1,
                "signature": "I",
                "region": "(0,2)",
                "mass": {"mantissa": 1, "scale": 1},
            }
        ],
        "total": {"mantissa": 1, "scale": 1},
    }
    assert [c["signature"] for c in s2["cells"]] == ["II", "IE", "EI"]
    assert s2["total"] == {"mantissa": 3, "scale": 2}
    assert [(c["cell"], c["signature"], c["region"]) for c in s3["cells"]] == [
        (2, "IIE", "(1,2)"),
        (3, "IEE", "(0,1)"),
        (5, "EII", "(9/4,11/4)"),
        (6, "EIE", "(2,9/4) u (11/4,3)"),
    ]
    assert all(c["mass"]["scale"] == 3 for c in s3["cells"][2:])


def test_build_is_deterministic(capsys, tmp_path, t1_basis):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        code, out, _ = run(
            capsys, "build", "--stages", "3", "--basis-file", t1_basis,
            "--out", str(path),
        )
        assert code == 0
        assert out == ""
    assert first.read_bytes() == second.read_bytes()


def test_build_csv(capsys, t1_basis):
    code, out, err = run(
        capsys, "build", "--stages", "2", "--basis-file", t1_basis,
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "stage,cell,signature,region,mantissa,scale",
        '1,1,I,"(0,2)",1,1',
        "1,TOTAL,,,1,1",
        '2,2,II,"(1,2)",1,2',
        '2,3,IE,"(0,1)",1,2',
        '2,4,EI,"(2,3)",1,2',
        "2,TOTAL,,,3,2",
    ]


def test_build_rejects_bad_stage_count(capsys):
    code, out, err = run(capsys, "build", "--stages", "0")
    assert code == 2
    assert "config error" in err


# -- schedule -----------------------------------------------------------------


def test_schedule_depth2(capsys):
    code, out, _ = run(capsys, "schedule", "--depth", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == [
        {"i": 1, "j": 1, "F": [], "G": [7, 8],
         "H": [1, 2, 3, 4, 5, 6], "g": 8},
        {"i": 2, "j": 1, "F": [], "G": [9, 10], "H": [], "g": 10},
        {"i": 1, "j": 2,
         "F": [11, 12, 13, 14, 15, 17, 18, 19, 20, 21, 22, 23, 24],
         "G": [25, 26], "H": [16], "g": 26},
    ]


def test_schedule_rejects_csv(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["schedule", "--depth", "2", "--format", "csv"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


# -- verify -------------------------------------------------------------------


def test_verify_cantor(capsys):
    code, out, _ = run(capsys, "verify", "--adapter", "cantor", "--depth", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify"
    assert [r["kind"] for r in payload["reports"]] == [
        "conservation", "additivity", "consistency", "positivity",
    ]
    assert len(payload["boundary_certificates"]) == 2
    for cert in payload["boundary_certificates"]:
        assert cert["final_bound"] == {"mantissa": 0, "scale": 0}
        for link in cert["chain"]:
            assert link["bound"] == {"mantissa": 0, "scale": 0}
    assert [d["m"] for d in payload["max_decay"]] == [1, 2]


def test_verify_too_shallow_for_additivity(capsys):
    # the depth-1 Cantor schedule has one stage with one cell
    code, out, err = run(capsys, "verify", "--adapter", "cantor", "--depth", "1")
    assert code == 2
    assert out == ""
    assert "config error" in err
    assert "has 1;" in err and "deeper --depth" in err


def test_verify_deterministic(capsys, tmp_path):
    paths = [tmp_path / "x.json", tmp_path / "y.json"]
    for path in paths:
        code, _, _ = run(
            capsys, "verify", "--adapter", "cantor", "--depth", "2",
            "--out", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# -- partition ----------------------------------------------------------------


def test_partition_cantor_quarter(capsys):
    code, out, _ = run(capsys, "partition", "1/4", "--adapter", "cantor")
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 3
    cert = payload["certificate"]
    assert cert["kind"] == "partition"
    assert cert["m"] == 3
    assert cert["stage"] == 30
    assert cert["piece_count"] == 16
    assert cert["max_piece"] == {"mantissa": 1, "scale": 5}
    assert cert["tail_bound"] == {"mantissa": 1, "scale": 30}
    assert cert["boundary_bound"] == {"mantissa": 0, "scale": 0}


@pytest.mark.parametrize(
    "epsilon,fragment",
    [
        ("1/3", "config error"),
        ("abc", "bad epsilon literal"),
        ("0", "epsilon must be in (0, 1]"),
        ("2", "epsilon must be in (0, 1]"),
    ],
)
def test_partition_rejects_bad_epsilon(capsys, epsilon, fragment):
    code, _, err = run(capsys, "partition", epsilon)
    assert code == 2
    assert fragment in err


def test_partition_depth_too_small(capsys):
    code, _, err = run(
        capsys, "partition", "1/8", "--adapter", "cantor", "--depth", "3"
    )
    assert code == 2
    assert "m=4" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["partition", "1/32"],
            "config error: epsilon 1/32 derives depth 6, past the practical "
            "depth 5 of the rational-line adapter (README \"Depth guidance\"); "
            "pass --depth to build anyway\n",
        ),
        (
            ["partition", "1/64", "--adapter", "cantor"],
            "config error: epsilon 1/64 derives depth 7, past the practical "
            "depth 6 of the cantor adapter (README \"Depth guidance\"); "
            "pass --depth to build anyway\n",
        ),
    ],
    ids=["line-1/32", "cantor-1/64"],
)
def test_partition_past_practical_depth_fails_fast(capsys, argv, message):
    """A depth derived from epsilon past the adapter's practical depth is
    refused before any build starts."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "argv, m",
    [
        (["partition", "1/64", "--depth", "5"], 7),
        (["partition", "1/128", "--adapter", "cantor", "--depth", "6"], 8),
    ],
    ids=["line-1/64-d5", "cantor-1/128-d6"],
)
def test_partition_explicit_depth_too_shallow_fails_before_building(
    capsys, no_build, argv, m
):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert f"needs fragmentation level m={m}" in err


def test_partition_explicit_depth_skips_the_practical_limit(capsys):
    # the schedule is built at depth 3 and is too shallow for m=7
    code, _, err = run(
        capsys, "partition", "1/64", "--adapter", "cantor", "--depth", "3"
    )
    assert code == 2
    assert "m=7" in err and "practical" not in err


@pytest.mark.parametrize(
    "command, flag",
    [
        (["schedule"], "--depth"),
        (["verify"], "--depth"),
        (["partition", "1/8"], "--depth"),
        (["build"], "--stages"),
        (["schedule"], "--scan-cap"),
        (["verify"], "--scan-cap"),
        (["partition", "1/8"], "--scan-cap"),
    ],
    ids=[
        "schedule",
        "verify",
        "partition",
        "build-stages",
        "schedule-scan-cap",
        "verify-scan-cap",
        "partition-scan-cap",
    ],
)
@pytest.mark.parametrize("value", ["0", "-1"])
def test_depth_below_one_is_a_config_error(capsys, command, flag, value):
    code, out, err = run(capsys, *command, flag, value)
    assert code == 2
    assert out == ""
    assert f"config error: {flag} must be >= 1, got {value}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--depth", "5", "--format", "csv"],
        ["partition", "1/8", "--format", "csv"],
        ["build", "--seed", "1"],
        ["schedule", "--seed", "1"],
        ["partition", "1/8", "--seed", "1"],
        ["build", "--scan-cap", "9"],
        ["schedule", "--basis-file", "/nonexistent"],
        ["verify", "--basis-file", "/nonexistent"],
        ["partition", "1/8", "--basis-file", "/nonexistent"],
    ],
    ids=[
        "verify-format",
        "partition-format",
        "build-seed",
        "schedule-seed",
        "partition-seed",
        "build-scan-cap",
        "schedule-basis-file",
        "verify-basis-file",
        "partition-basis-file",
    ],
)
def test_a_command_refuses_a_flag_it_does_not_read(capsys, no_build, argv):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert time.perf_counter() - start < 1.0
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


# -- failure plumbing ---------------------------------------------------------


def test_bad_basis_file_path(capsys):
    code, _, err = run(capsys, "build", "--basis-file", "/nonexistent/x.txt")
    assert code == 2
    assert "cannot read basis file" in err


def test_basis_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"(0,1)\n\xff\n")
    code, _, err = run(capsys, "build", "--basis-file", str(path))
    assert code == 2
    assert "config error: cannot read basis file" in err


def test_unwritable_out_path(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "schedule", "--depth", "1", "--out", str(target))
    assert code == 2
    assert out == ""
    assert "config error: cannot write --out:" in err
    assert not target.exists()


def test_bad_basis_literal(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("(1,1)\n", encoding="utf-8")
    code, _, err = run(capsys, "build", "--basis-file", str(path))
    assert code == 2


def test_bad_adapter_choice(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["build", "--adapter", "bogus"])
    assert err.value.code == 2


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="no int-to-str digit limit before Python 3.11",
)
@pytest.mark.parametrize(
    "argv, code",
    [
        (["build", "--stages", "2"], 0),
        (["build", "--stages", "0"], 2),
        (["verify", "--adapter", "cantor", "--depth", "2"], 3),
    ],
)
def test_main_leaves_the_digit_limit_as_it_found_it(
    capsys, tmp_path, monkeypatch, argv, code
):
    def explode(stage, sample_count=1000, seed=0):
        raise AdditivityViolation("boom")

    monkeypatch.setattr(cli, "check_additivity", explode)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(capsys, *argv, "--out", str(tmp_path / "o"))[0] == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)


def test_violation_writes_artifact(capsys, tmp_path, monkeypatch):
    def explode(stage, sample_count=1000, seed=0):
        raise AdditivityViolation("boom")

    monkeypatch.setattr(cli, "check_additivity", explode)
    target = tmp_path / "violation.json"
    code, out, err = run(
        capsys, "verify", "--adapter", "cantor", "--depth", "2",
        "--out", str(target),
    )
    assert code == 3
    assert "verification violation: boom" in err
    artifact = json.loads(target.read_text(encoding="utf-8"))
    assert artifact == {
        "error": "AdditivityViolation",
        "message": "boom",
        "command": "verify",
        "adapter": "cantor",
        "seed": 0,
        "depth": 2,
    }


def test_violation_with_unwritable_artifact_path(capsys, tmp_path, monkeypatch):
    def explode(stage, sample_count=1000, seed=0):
        raise AdditivityViolation("boom")

    monkeypatch.setattr(cli, "check_additivity", explode)
    target = tmp_path / "missing" / "violation.json"
    code, _, err = run(
        capsys, "verify", "--adapter", "cantor", "--depth", "2",
        "--out", str(target),
    )
    assert code == 3
    assert "verification violation: boom" in err
    assert "no counterexample written" in err
    assert "counterexample written to" not in err
    assert not target.exists()


def test_partition_violation_artifact_names_epsilon(capsys, tmp_path, monkeypatch):
    def explode(schedule, trace, epsilon):
        raise DecayViolation("boom")

    monkeypatch.setattr(cli, "build_partition", explode)
    target = tmp_path / "violation.json"
    code, _, _ = run(
        capsys, "partition", "1/4", "--adapter", "cantor", "--out", str(target),
    )
    assert code == 3
    # no --depth given: null stands for the depth epsilon requires
    assert json.loads(target.read_text(encoding="utf-8")) == {
        "error": "DecayViolation",
        "message": "boom",
        "command": "partition",
        "adapter": "cantor",
        "depth": None,
        "epsilon": "1/4",
    }


def test_decay_violation_artifact_names_stage_and_block(
    capsys, tmp_path, monkeypatch
):
    # a max cell mass of 1 passes the m = 1 bound and fails at m = 2
    monkeypatch.setattr(certificates, "max_cell_mass", lambda stage: ONE)
    target = tmp_path / "violation.json"
    code, _, _ = run(
        capsys, "verify", "--adapter", "cantor", "--depth", "2",
        "--out", str(target),
    )
    assert code == 3
    artifact = json.loads(target.read_text(encoding="utf-8"))
    schedule, _ = build_schedule(make_adapter("cantor"), 2)
    assert artifact["error"] == "DecayViolation"
    assert artifact["block"] == [1, 2]
    assert artifact["stage"] == schedule.block(1, 2).g


def test_positivity_violation_artifact_names_stage(
    capsys, tmp_path, monkeypatch
):
    # every other certificate still passes when kappa reads zero
    monkeypatch.setattr(certificates, "kappa", lambda stage, d: DyadicMass(0, 0))
    target = tmp_path / "violation.json"
    code, _, err = run(
        capsys, "verify", "--adapter", "cantor", "--depth", "2",
        "--out", str(target),
    )
    assert code == 3
    assert "evaluated to zero" in err
    artifact = json.loads(target.read_text(encoding="utf-8"))
    assert artifact["error"] == "VerificationViolation"
    assert artifact["stage"] == 1


def test_violation_default_artifact_path(capsys, tmp_path, monkeypatch):
    def explode(stage, sample_count=1000, seed=0):
        raise AdditivityViolation("boom")

    monkeypatch.setattr(cli, "check_additivity", explode)
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "verify", "--adapter", "cantor", "--depth", "2")
    assert code == 3
    assert (tmp_path / cli.VIOLATION_ARTIFACT).exists()


def test_consistency_violation_writes_artifact(capsys, tmp_path, monkeypatch):
    # a doctored kappa that drifts with the stage index: the consistency
    # suite's re-evaluation at later stages then sees the mass move
    exact = masses.kappa

    def drifting(stage, d):
        return exact(stage, d) + DyadicMass.pow2(stage.index + 1)

    monkeypatch.setattr(masses, "kappa", drifting)
    target = tmp_path / "violation.json"
    code, out, err = run(
        capsys, "verify", "--adapter", "cantor", "--depth", "2",
        "--out", str(target),
    )
    assert code == 3
    assert out == ""
    assert "verification violation: mass of" in err
    artifact = json.loads(target.read_text(encoding="utf-8"))
    assert artifact["error"] == "ConsistencyViolation"
    assert "moved from" in artifact["message"]


# -- the forked checks -----------------------------------------------------------


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _verify_artifact(capsys, tmp_path, name):
    target = tmp_path / name
    code, out, _ = run(
        capsys, "verify", "--adapter", "cantor", "--depth", "2",
        "--out", str(target),
    )
    assert code == 3
    assert out == ""
    return target.read_bytes()


def test_child_side_violation_matches_the_inline_artifact(
    capsys, tmp_path, monkeypatch, request, two_cpus
):
    # kappa reading zero fails only positivity, which the child runs
    monkeypatch.setattr(certificates, "kappa", lambda stage, d: DyadicMass(0, 0))
    forked = _verify_artifact(capsys, tmp_path, "forked.json")
    assert len(two_cpus) == 1
    _no_children_left()
    request.getfixturevalue("one_cpu")
    inline = _verify_artifact(capsys, tmp_path, "inline.json")
    assert forked == inline
    assert json.loads(forked)["error"] == "VerificationViolation"


def test_parent_side_violation_reaps_the_child(
    capsys, tmp_path, monkeypatch, two_cpus
):
    def explode(schedule, trace, i):
        raise ChainViolation("boom", stage=3, block=(i, 1))

    monkeypatch.setattr(cli, "certify_boundary", explode)
    artifact = json.loads(_verify_artifact(capsys, tmp_path, "v.json"))
    assert len(two_cpus) == 1
    assert artifact["error"] == "ChainViolation"
    assert artifact["block"] == [1, 1]
    _no_children_left()


@pytest.mark.parametrize("cpus", ["one_cpu", "two_cpus"])
def test_additivity_is_reported_before_consistency(
    capsys, tmp_path, monkeypatch, request, cpus
):
    request.getfixturevalue(cpus)

    def additivity(stage, sample_count=1000, seed=0):
        raise AdditivityViolation("additivity boom", stage=stage.index)

    def consistency(stages, per_stage=200, seed=0):
        raise ConsistencyViolation("consistency boom", stage=1)

    monkeypatch.setattr(cli, "check_additivity", additivity)
    monkeypatch.setattr(cli, "check_consistency", consistency)
    artifact = json.loads(_verify_artifact(capsys, tmp_path, "v.json"))
    assert artifact["error"] == "AdditivityViolation"
    assert artifact["message"] == "additivity boom"
    _no_children_left()


def test_side_that_fails_in_the_child_runs_again_here(two_cpus):
    # the child leaves without a result, so side runs here, after main
    parent, ran_here = os.getpid(), []

    def side():
        if os.getpid() != parent:
            raise RuntimeError("side failed in the child")
        ran_here.append("side")
        return "side"

    def main():
        ran_here.append("main")
        return "main"

    assert cli._alongside(main, side) == ("main", "side")
    assert len(two_cpus) == 1
    assert ran_here == ["main", "side"]
    _no_children_left()


def test_alongside_returns_both_results(two_cpus):
    assert cli._alongside(lambda: "main", os.getpid) == (
        "main", two_cpus[0],
    )
    _no_children_left()


def test_alongside_runs_side_here_when_fork_fails(monkeypatch, two_cpus):
    def no_process():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_process)
    assert cli._alongside(lambda: "main", os.getpid) == ("main", os.getpid())


def test_alongside_runs_side_here_on_one_cpu(one_cpu):
    assert cli._alongside(lambda: "main", os.getpid) == ("main", os.getpid())


# -- the sampled checks and their prefix invariant ------------------------------

GOLDEN_VERIFY = Path(__file__).parent / "golden" / "verify-rational-line-d3.json"


@pytest.fixture
def sampled_here(monkeypatch):
    """Record each run of the sampled checks in this process, not in a
    forked child; yields the list of the arguments of each run."""
    real, parent, runs = cli._sampled_checks, os.getpid(), []

    def recorded(*args):
        if os.getpid() == parent:
            runs.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_sampled_checks", recorded)
    yield runs


@pytest.fixture
def built_here(monkeypatch):
    """Record each schedule the command builds in this process, not in a
    forked child; yields the list of their stream lengths."""
    real, parent, lengths = cli.build_schedule, os.getpid(), []

    def recorded(*args):
        schedule, trace = real(*args)
        if os.getpid() == parent:
            lengths.append(len(trace))
        return schedule, trace

    monkeypatch.setattr(cli, "build_schedule", recorded)
    yield lengths


def _verify_d3(tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--depth", "3", "--out", str(out)]) == 0
    return out.read_bytes()


def test_forked_verify_samples_in_the_child_only(tmp_path, two_cpus, sampled_here):
    assert _verify_d3(tmp_path) == GOLDEN_VERIFY.read_bytes()
    assert len(two_cpus) == 1
    assert sampled_here == []
    _no_children_left()


def test_child_prefix_that_disagrees_is_an_invariant_violation(
    capsys, monkeypatch, two_cpus
):
    # the child's prefix is one stream index off: that is a bug, not a
    # condition to recover from, so nothing is sampled again here
    real, parent = cli._sampled_checks, os.getpid()

    def doctored(*args):
        prefix, reports = real(*args)
        if os.getpid() == parent:
            raise AssertionError("sampled in the command's process")
        return prefix[:-1] + (prefix[-1] + 1,), reports

    monkeypatch.setattr(cli, "_sampled_checks", doctored)
    code, out, err = run(capsys, "verify", "--depth", "3")
    _, trace = build_schedule(make_adapter("rational-line"), 3)
    built = tuple(h.index for h in trace.stream[: cli.SAMPLED_STAGES])
    off = built[:-1] + (built[-1] + 1,)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: the sampled checks read stream indices {off}, but the "
        f"built stream starts {built}\n"
    )
    assert len(two_cpus) == 1
    _no_children_left()


def test_child_that_leaves_without_a_result_is_sampled_here(
    tmp_path, monkeypatch, two_cpus, sampled_here, built_here
):
    real, parent = cli._sampled_checks, os.getpid()

    def no_result(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args)

    monkeypatch.setattr(cli, "_sampled_checks", no_result)
    assert _verify_d3(tmp_path) == GOLDEN_VERIFY.read_bytes()
    assert len(two_cpus) == 1
    assert len(sampled_here) == 1
    # the depth-3 build, then side's shallow builds, all here
    assert built_here == [155, 8, 26]
    _no_children_left()


def test_child_config_error_is_raised_without_sampling_here(
    capsys, tmp_path, monkeypatch, request, two_cpus, built_here
):
    # the child sends back its "< 2 cells" ConfigError, so this process
    # builds the depth-1 schedule once, for the certificates, and samples
    # nothing; exit code and stderr match the run on one CPU
    monkeypatch.chdir(tmp_path)
    argv = ("verify", "--adapter", "cantor", "--depth", "1")
    forked = run(capsys, *argv)
    assert len(two_cpus) == 1
    assert built_here == [1]
    _no_children_left()
    request.getfixturevalue("one_cpu")
    assert run(capsys, *argv) == forked
    assert forked[:2] == (2, "")
    assert "additivity sampling needs >= 2 cells" in forked[2]
    assert list(tmp_path.iterdir()) == []


def test_one_cpu_verify_samples_the_shallow_trace(
    tmp_path, one_cpu, sampled_here, built_here
):
    assert _verify_d3(tmp_path) == GOLDEN_VERIFY.read_bytes()
    assert len(sampled_here) == 1
    # line depth 1 has 8 stages, depth 2 the 26 that reach stage 12
    assert built_here == [155, 8, 26]


@pytest.mark.parametrize("cpus", ["one_cpu", "two_cpus"])
def test_too_few_cells_is_reported_before_a_boundary_failure(
    capsys, monkeypatch, request, cpus
):
    request.getfixturevalue(cpus)

    def explode(schedule, trace, i):
        raise ChainViolation("boom", stage=1, block=(i, 1))

    monkeypatch.setattr(cli, "certify_boundary", explode)
    code, out, err = run(capsys, "verify", "--adapter", "cantor", "--depth", "1")
    assert code == 2
    assert out == ""
    assert "additivity sampling needs >= 2 cells, but stage 1 has 1" in err
    _no_children_left()

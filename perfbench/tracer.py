"""Span tracer for traced benchmark runs, installed from outside the package.

``install`` wraps the public functions of each ``dyadicmeasure`` layer at the
places other modules look them up (module globals imported by name, class
attributes for methods), so no file under ``src/`` changes.  Each call made
while an operation is open records one span: a name, a start, an end, the span
that was open when it began, and the operation id.  Spans live in flat arrays
until the run ends; ``layer_metrics`` turns the spans of one operation into the
per-layer figures and ``write_spans`` dumps them all.

Self time of a span is its duration minus the durations of its direct
children, so the self times of one operation add up to the time spent inside
traced calls, each second counted in exactly one layer.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array

# span name -> per-layer metric that receives its self time
SELF_TIME_METRIC = {
    "adapters.enumerate": "adapters.enumerate_s",
    "adapters.finite_subcover": "scheduling.cover_scan_s",
    "stages.snapshot": "stages.snapshot_s",
    "stages.decompose": "stages.decompose_s",
    "stages.locate_host": "stages.locate_host_s",
    "scheduling.build_schedule": "scheduling.build_self_s",
    "regions.meet": "regions.meet_s",
    "regions.meet_exterior": "regions.meet_exterior_s",
    "regions.union": "regions.union_s",
    "regions.minus": "regions.minus_s",
    "regions.other": "regions.other_s",
    "masses.kappa": "masses.kappa_s",
    "masses.kappa_lifted": "masses.kappa_lifted_s",
    "certificates.boundary": "certificates.boundary_s",
    "certificates.decay": "certificates.decay_s",
    "certificates.additivity": "certificates.additivity_s",
    "certificates.consistency": "certificates.consistency_s",
    "certificates.positivity": "certificates.positivity_s",
    "certificates.conservation": "certificates.conservation_s",
    "cli.main": "cli.main_self_s",
}
REPLAY_SPANS = ("scheduling.stage_at", "scheduling.stages")

# adapter methods that are region algebra, by span name
_REGION_METHODS = {
    "meet": "regions.meet",
    "meet_exterior": "regions.meet_exterior",
    "union": "regions.union",
    "union_all": "regions.union",
    "subset": "regions.other",
    "contains_point": "regions.other",
    "closure_strictly_inside": "regions.other",
    "boundary": "regions.other",
}
_CERTIFICATES = {
    "certify_boundary": "certificates.boundary",
    "certify_max_decay": "certificates.decay",
    "check_additivity": "certificates.additivity",
    "check_consistency": "certificates.consistency",
    "check_positivity": "certificates.positivity",
    "check_conservation": "certificates.conservation",
}


class Tracer:
    """In-memory span store; spans are recorded only while an op is open."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = 0  # 0: no operation open, wrappers pass straight through
        self._op_first_span: dict[int, int] = {}
        self.results: dict[int, dict] = {}  # per-op facts noted by wrappers
        self._patched: list[tuple[object, str, object]] = []

    # recording ------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_first_span[op_id] = len(self.name)
        self.results[op_id] = {
            "max_index": 0,
            "covers_chosen": 0,
            "traces": [],
        }

    def end_op(self) -> None:
        self.op_id = 0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_call=None):
        """fn, recording a span per call; then on_call(facts, args, result)."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.op_id:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if on_call is not None:
                on_call(self.results[self.op_id], args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Like wrap, with one span per resumption of the generator."""
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid = self._open(nid) if self.op_id else -1
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    if sid >= 0:
                        self._close(sid)
                yield item

        return traced

    def patch(self, owner, attr: str, wrapped) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # reduction ------------------------------------------------------------

    def layer_metrics(self, op_id: int) -> dict[str, float]:
        """Per-layer self times and counts of one traced operation."""
        names = self.names
        first = self._op_first_span[op_id]
        sids = [s for s in range(first, len(self.op)) if self.op[s] == op_id]
        child_time: dict[int, float] = {}
        in_replay: dict[int, bool] = {}
        replay_ids = {self._name_ids.get(n, -1) for n in REPLAY_SPANS}
        for sid in sids:
            par = self.parent[sid]
            if par >= 0:
                child_time[par] = (
                    child_time.get(par, 0.0) + self.end[sid] - self.start[sid]
                )
            in_replay[sid] = self.name[sid] in replay_ids or (
                par >= 0 and in_replay.get(par, False)
            )

        out = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
        counts = {
            "adapters.shadow_inserts": 0,
            "stages.inserts": 0,
            "stages.snapshot_calls": 0,
            "stages.decompose_calls": 0,
            "scheduling.hole_candidates": 0,
            "scheduling.cover_candidates": 0,
            "scheduling.replay_inserts": 0,
            "regions.calls": 0,
            "masses.kappa_calls": 0,
        }
        out["adapters.shadow_insert_s"] = 0.0
        out["stages.insert_self_s"] = 0.0
        out["scheduling.replay_s"] = 0.0
        for sid in sids:
            name = names[self.name[sid]]
            duration = self.end[sid] - self.start[sid]
            self_time = duration - child_time.get(sid, 0.0)
            par = self.parent[sid]
            parent_name = names[self.name[par]] if par >= 0 else ""
            if name == "stages.insert":
                if parent_name == "adapters.enumerate":
                    out["adapters.shadow_insert_s"] += self_time
                    counts["adapters.shadow_inserts"] += 1
                else:
                    out["stages.insert_self_s"] += self_time
                    counts["stages.inserts"] += 1
                    if par >= 0 and in_replay[par]:
                        counts["scheduling.replay_inserts"] += 1
                continue
            if name in REPLAY_SPANS:
                # inclusive: replays are made of inserts and snapshots
                out["scheduling.replay_s"] += duration
                continue
            out[SELF_TIME_METRIC[name]] += self_time
            if name.startswith("regions."):
                counts["regions.calls"] += 1
            elif name == "stages.snapshot":
                counts["stages.snapshot_calls"] += 1
            elif name == "stages.decompose":
                counts["stages.decompose_calls"] += 1
            elif name == "stages.locate_host":
                counts["scheduling.hole_candidates"] += 1
            elif name == "masses.kappa":
                counts["masses.kappa_calls"] += 1
            elif name == "adapters.enumerate" and parent_name == (
                "adapters.finite_subcover"
            ):
                counts["scheduling.cover_candidates"] += 1
        out.update(counts)
        out["trace.spans"] = len(sids)
        return out

    def write_spans(self, path) -> int:
        """Write every span as gzipped CSV; returns the number written."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for sid in range(len(self.name)):
                fh.write(
                    f"{self.op[sid]},{sid},{self.parent[sid]},"
                    f"{names[self.name[sid]]},{self.start[sid]:.9f},"
                    f"{self.end[sid]:.9f}\n"
                )
        return len(self.name)


def _note_index(facts, args, result) -> None:
    if args[1] > facts["max_index"]:
        facts["max_index"] = args[1]


def _note_cover(facts, args, result) -> None:
    facts["covers_chosen"] += len(result)


def _note_build(facts, args, result) -> None:
    facts["traces"].append(result)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from dyadicmeasure import adapters, certificates, cli, masses, scheduling
    from dyadicmeasure import stages

    def patch(owner, attr, name, on_call=None):
        tracer.patch(
            owner, attr, tracer.wrap(name, owner.__dict__[attr], on_call)
        )

    patch(
        adapters.SpaceAdapter, "enumerate", "adapters.enumerate", _note_index
    )
    patch(
        adapters.SpaceAdapter,
        "finite_subcover",
        "adapters.finite_subcover",
        _note_cover,
    )
    for cls in (adapters.RationalLine, adapters.CantorSpace):
        for attr, name in _REGION_METHODS.items():
            patch(cls, attr, name)
    patch(stages, "cantor_minus", "regions.minus")
    patch(stages, "line_minus_closure", "regions.minus")

    patch(stages.StageBuilder, "insert", "stages.insert")
    patch(stages.StageBuilder, "snapshot", "stages.snapshot")
    patch(stages.StageBuilder, "locate_host", "stages.locate_host")
    for module in (scheduling, masses, certificates):
        patch(module, "decompose", "stages.decompose")

    patch(scheduling.Trace, "stage_at", "scheduling.stage_at")
    tracer.patch(
        scheduling.Trace,
        "stages",
        tracer.wrap_generator("scheduling.stages", scheduling.Trace.stages),
    )
    # build_schedule is looked up on scheduling by the benchmark's build op
    # and on cli by the verify command
    for module in (scheduling, cli):
        patch(
            module, "build_schedule", "scheduling.build_schedule", _note_build
        )

    patch(certificates, "kappa", "masses.kappa")
    patch(certificates, "kappa_lifted", "masses.kappa_lifted")
    for attr, name in _CERTIFICATES.items():
        patch(cli, attr, name)

    patch(cli, "main", "cli.main")

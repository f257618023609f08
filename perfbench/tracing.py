"""In-memory span tracing of the verifier's layers, installed from outside.

The benchmark never edits ``src/``: :meth:`Tracer.install` replaces the entry
point of each layer (a class method, or a module-level function in every
``repro`` module that imported it by name) with a wrapper that records one
span per call.  Spans stay in memory and are written at the end, as Chrome
trace-event JSON (opens in Perfetto or ``chrome://tracing``) plus a per-layer
summary with inclusive and self time.

A span is ``[name, start, end, parent, tid, tag, pid]``: ``parent`` is the
enclosing span of the same thread (``None`` for a top-level span) and ``tag``
is a per-call outcome (counterexample feasible, refinement made progress,
synthesis succeeded) that the per-layer ratios count.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Iterable, Optional

#: (span name, dotted owner, attribute, tag extractor).  An owner is a class
#: (the method is wrapped on it and on every subclass that overrides it) or a
#: module (the function is replaced in every ``repro`` module holding it).
LAYER_ENTRY_POINTS: tuple[tuple[str, str, str, Optional[Callable[[Any], bool]]], ...] = (
    ("lang.parse", "repro.lang.cfg", "program_from_source", None),
    ("core.explore", "repro.core.predabs.Art", "explore", None),
    ("core.cex", "repro.core.cex", "analyze_counterexample", lambda r: bool(r.feasible)),
    ("core.refine", "repro.core.refiners.Refiner", "refine", lambda r: bool(r.progress)),
    ("core.path_program", "repro.core.pathprogram", "build_path_program", None),
    ("core.repair", "repro.core.predabs.Art", "apply_refinement", None),
    ("core.seed", "repro.core.api.PrecisionStore", "seed_for", None),
    # The daemon reads its seeds with ``payload`` (``seed_for`` calls it too;
    # a nested span of the same name adds no call).
    ("core.seed", "repro.core.api.PrecisionStore", "payload", None),
    ("core.bank", "repro.core.api.PrecisionStore", "merge", None),
    (
        "invgen.synthesize",
        "repro.invgen.synthesize.PathInvariantSynthesizer",
        "synthesize",
        lambda r: bool(r.success),
    ),
    ("invgen.farkas", "repro.invgen.farkas.FarkasEngine", "synthesize", None),
    ("smt.edge_feasible", "repro.smt.vcgen.VcChecker", "edge_feasible", None),
    ("smt.post_all", "repro.smt.vcgen.VcChecker", "post_all_predicates", None),
    ("smt.triple", "repro.smt.vcgen.VcChecker", "check_triple", None),
    ("smt.feasibility", "repro.smt.vcgen.VcChecker", "is_feasible", None),
    ("serve.execute", "repro.core.engine", "_run_batch_task", None),
)

#: Every span name.  Spans without a parent are the phases a run's wall
#: splits into; ``trace.unattributed_ms`` is the wall they do not cover.
SPAN_NAMES = tuple(dict.fromkeys(entry[0] for entry in LAYER_ENTRY_POINTS))


class Tracer:
    """Collects spans from every thread of this process."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _wrap(self, name: str, original: Callable, tag: Optional[Callable]) -> Callable:
        local = self._local
        spans = self.spans
        clock = time.perf_counter
        get_tid = threading.get_ident
        pid = os.getpid()

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [name, clock(), 0.0, stack[-1] if stack else None, get_tid(), None, pid]
            stack.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                spans.append(record)
            if tag is not None:
                record[5] = tag(result)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYER_ENTRY_POINTS`."""
        import importlib

        for package in ("repro", "repro.serve", "repro.testgen", "repro.__main__"):
            importlib.import_module(package)
        for name, owner_path, attr, tag in LAYER_ENTRY_POINTS:
            module_path, _, class_name = owner_path.rpartition(".")
            owner = sys.modules.get(owner_path)
            if owner is not None:  # a module-level function
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, tag)
                for module in list(sys.modules.values()):
                    if (
                        getattr(module, "__name__", "").startswith("repro")
                        and module.__dict__.get(attr) is original
                    ):
                        self._patch(module, attr, wrapper)
                continue
            cls = getattr(importlib.import_module(module_path), class_name)
            for klass in (cls, *_all_subclasses(cls)):
                if attr in klass.__dict__:
                    self._patch(klass, attr, self._wrap(name, klass.__dict__[attr], tag))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def export(self) -> list[list[Any]]:
        """Spans as JSON-ready rows ``[name, start, end, parent_index, tid, tag, pid]``."""
        index = {id(record): position for position, record in enumerate(self.spans)}
        return [
            [
                name, start, end,
                None if parent is None else index.get(id(parent)),
                tid, tag, pid,
            ]
            for name, start, end, parent, tid, tag, pid in self.spans
        ]


def _all_subclasses(cls: type) -> list[type]:
    found: list[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


# ----------------------------------------------------------------------
# Analysis of exported rows (rows from several processes may be mixed: a
# row's parent index is relative to the row list it was exported in, so
# merge with :func:`merge_rows`).
# ----------------------------------------------------------------------
def merge_rows(row_lists: Iterable[list[list[Any]]]) -> list[list[Any]]:
    """Concatenate exported row lists, re-basing parent indices."""
    merged: list[list[Any]] = []
    for rows in row_lists:
        offset = len(merged)
        for name, start, end, parent, tid, tag, pid in rows:
            merged.append(
                [name, start, end, None if parent is None else parent + offset, tid, tag, pid]
            )
    return merged


def window(rows: list[list[Any]], start: float, end: float) -> list[list[Any]]:
    """The rows whose outermost span starts within ``[start, end]``, re-indexed."""
    kept: dict[int, int] = {}
    selected: list[list[Any]] = []
    for position, row in enumerate(rows):
        if start <= rows[_root(rows, position)][1] <= end:
            kept[position] = len(selected)
            selected.append(list(row))
    for row in selected:
        if row[3] is not None:
            row[3] = kept[row[3]]
    return selected


def summarize(rows: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive ms, self ms, tagged-true count.

    Self time is a span's duration minus its direct children's durations
    (children are nested on the same thread, so they never overlap).  A span
    nested in a span of the same name (the path-invariant refiner calling its
    path-formula fallback) adds its self time but not its calls or inclusive
    time, which the outer span already holds.  ``smt.triple`` spans whose
    parent is ``invgen.synthesize`` are also counted under ``invgen.triple``
    (Houdini, the safety check, fill-in).
    """
    child_ms = [0.0] * len(rows)
    for name, start, end, parent, *_ in rows:
        if parent is not None:
            child_ms[parent] += (end - start) * 1000.0
    summary: dict[str, dict[str, float]] = {
        name: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "true": 0}
        for name in (*SPAN_NAMES, "invgen.triple")
    }

    def add(key: str, duration: float, self_ms: float, tag: Any, outermost: bool = True) -> None:
        entry = summary[key]
        entry["self_ms"] += self_ms
        if outermost:
            entry["calls"] += 1
            entry["ms"] += duration
            if tag:
                entry["true"] += 1

    def outermost(position: int, name: str) -> bool:
        parent = rows[position][3]
        while parent is not None:
            if rows[parent][0] == name:
                return False
            parent = rows[parent][3]
        return True

    for position, (name, start, end, parent, _tid, tag, _pid) in enumerate(rows):
        duration = (end - start) * 1000.0
        self_ms = duration - child_ms[position]
        add(name, duration, self_ms, tag, outermost(position, name))
        if name == "smt.triple" and parent is not None and rows[parent][0] == "invgen.synthesize":
            add("invgen.triple", duration, self_ms, tag)
    return summary


def covered_ms(rows: list[list[Any]], start: float, end: float) -> float:
    """Milliseconds of ``[start, end]`` covered by at least one top-level span."""
    intervals = sorted(
        (max(row[1], start), min(row[2], end))
        for row in rows
        if row[3] is None and row[2] > start and row[1] < end
    )
    total = 0.0
    current_start = current_end = None
    for lo, hi in intervals:
        if current_end is None or lo > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = lo, hi
        else:
            current_end = max(current_end, hi)
    if current_end is not None:
        total += current_end - current_start
    return total * 1000.0


def chrome_trace(rows: list[list[Any]], origin: float) -> dict[str, Any]:
    """Chrome trace-event JSON (complete ``X`` events, microseconds).

    Each event carries its request root (the outermost enclosing span) so the
    spans of one request can be selected together.
    """
    events = []
    for position, (name, start, end, parent, tid, tag, pid) in enumerate(rows):
        event = {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": {"root": _root(rows, position)},
        }
        if tag is not None:
            event["args"]["outcome"] = bool(tag)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _root(rows: list[list[Any]], position: int) -> int:
    while rows[position][3] is not None:
        position = rows[position][3]
    return position


def dump_rows(rows: list[list[Any]], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(rows, handle)

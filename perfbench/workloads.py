"""The four workloads: what runs, and what each input's outcome was.

``suite`` and ``loopfree`` drive :class:`repro.Session` in this process;
``daemon`` drives a ``repro serve`` subprocess through
:class:`repro.ServiceClient`; ``cli`` spawns ``python -m repro verify`` once
per input.  Traced variants run the same code with :class:`tracing.Tracer`
installed, in this process or, for subprocesses, through
``traced_repro.py``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from inputs import MAX_REFINEMENTS, UNDECIDED_SUITE, Arrival, Input

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
LAUNCHER = Path(__file__).resolve().parent / "traced_repro.py"

#: Longest a subprocess may take to answer before the run is abandoned.
CHILD_TIMEOUT = 120.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Outcome:
    """What one input (one request, one invocation) came back with."""

    input: Input
    verdict: str
    reason: str
    #: Seconds from sending the input (or spawning its process) to its verdict.
    latency: float
    #: The result doc's ``seconds``: the engine's own run time.
    engine_seconds: float
    refinements: int = 0
    post_decisions: int = 0
    nodes_created: int = 0
    warm: bool = False
    coalesced: bool = False
    burst: bool = False
    #: A burst copy after the first: its latency is its arrival's, already
    #: counted once, so latency statistics skip it.
    duplicate: bool = False
    #: Failure kind for error docs, refusals and transport failures.
    failure: Optional[str] = None
    solver: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_doc(cls, item: Input, doc: dict[str, Any], latency: float, **extra: Any) -> "Outcome":
        engine = doc.get("engine") if isinstance(doc.get("engine"), dict) else {}
        failure = doc.get("failure")
        kind = None
        if doc.get("verdict") == "error":
            kind = "error"
        elif isinstance(failure, dict):
            kind = str(failure.get("kind") or "failure")
        return cls(
            item,
            str(doc.get("verdict")),
            str(doc.get("reason") or ""),
            latency,
            float(doc.get("seconds") or 0.0),
            refinements=int(doc.get("refinements") or 0),
            post_decisions=int(doc.get("post_decisions") or 0),
            nodes_created=int(engine.get("nodes_created") or 0),
            warm=bool((engine.get("session") or {}).get("warm_started")),
            coalesced=bool(doc.get("coalesced")),
            failure=kind,
            solver=dict(doc.get("solver") or {}),
            **extra,
        )


@dataclass
class Pass:
    """One timed sweep over a workload's inputs."""

    start: float
    end: float
    outcomes: list[Outcome]
    traced: bool = False
    #: Summed checker counters of the pass (``VcChecker.statistics()``).
    solver: dict[str, float] = field(default_factory=dict)
    #: Seconds inside ``[start, end]`` spent recording outcomes, not verifying.
    excluded: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start - self.excluded


def add_counters(total: dict[str, float], counters: dict[str, Any]) -> None:
    for key, value in counters.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            total[key] = total.get(key, 0) + value


# ----------------------------------------------------------------------
# In-process: suite and loopfree
# ----------------------------------------------------------------------
def make_session() -> Any:
    from repro import Session, VerifierOptions

    return Session(VerifierOptions(max_refinements=MAX_REFINEMENTS))


def inprocess_pass(programs: list[Input], traced: bool = False) -> Pass:
    """Verify every input once, sequentially, in a fresh :class:`Session`."""
    session = make_session()
    done = []
    clock = time.perf_counter
    excluded = 0.0
    start = clock()
    for item in programs:
        began = clock()
        result = session.run(item.source, name=item.name)
        answered = clock()
        # The doc, not the Result: holding every Result would add their
        # programs and precisions to this process's peak RSS.
        done.append((item, result.to_json(), answered - began))
        excluded += clock() - answered
    end = clock()
    outcomes = [Outcome.from_doc(item, doc, latency) for item, doc, latency in done]
    return Pass(start, end, outcomes, traced, dict(session.checker.statistics()), excluded)


# ----------------------------------------------------------------------
# CLI: one `python -m repro verify` process per input
# ----------------------------------------------------------------------
@dataclass
class Invocation:
    outcome: Outcome
    spawned: float
    exited: float
    max_rss_kb: int
    pid: int


def write_sources(programs: list[Input], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for item in programs:
        path = directory / f"{item.name}.c"
        path.write_text(item.source)
        paths.append(path)
    return paths


def cli_argv(path: Path, span_file: Optional[Path]) -> list[str]:
    args = ["verify", str(path), "--json", "--max-refinements", str(MAX_REFINEMENTS)]
    if span_file is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(LAUNCHER), str(span_file), *args]


def cli_pass(programs: list[Input], paths: list[Path], span_dir: Optional[Path] = None) -> tuple[Pass, list[Invocation]]:
    """One ``repro verify`` process per input, sequentially."""
    invocations = []
    start = time.perf_counter()
    for index, (item, path) in enumerate(zip(programs, paths)):
        span_file = None if span_dir is None else span_dir / f"cli-{index}.json"
        out, code, rss, spawned, exited, pid = spawn_and_wait(cli_argv(path, span_file))
        latency = exited - spawned
        if code in (0, 1, 2):
            try:
                doc = json.loads(out)
            except json.JSONDecodeError:
                doc = None
            outcome = (
                Outcome.from_doc(item, doc, latency)
                if isinstance(doc, dict)
                else Outcome(item, "error", f"unparsable output (exit {code})", latency, 0.0, failure="bad-output")
            )
        else:
            outcome = Outcome(item, "error", f"exit code {code}", latency, 0.0, failure="error")
        invocations.append(Invocation(outcome, spawned, exited, rss, pid))
    end = time.perf_counter()
    outcomes = [invocation.outcome for invocation in invocations]
    solver: dict[str, float] = {}
    for outcome in outcomes:
        add_counters(solver, outcome.solver)
    return Pass(start, end, outcomes, span_dir is not None, solver), invocations


def spawn_and_wait(argv: list[str]) -> tuple[str, int, int, float, float, int]:
    """Spawn, read stdout to EOF, reap with ``wait4`` for the child's own RSS.

    Returns (stdout, exit code, max RSS KiB, spawn time, exit time, pid).  A
    child still running after :data:`CHILD_TIMEOUT` is killed.
    """
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    exited = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out.decode(), proc.returncode, usage.ru_maxrss, spawned, exited, proc.pid


def median_child_ms(argv: list[str], repeats: int) -> float:
    """Median spawn-to-exit milliseconds of ``argv`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        _, code, _, spawned, exited, _ = spawn_and_wait(argv)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}")
        times.append((exited - spawned) * 1000.0)
    times.sort()
    return times[len(times) // 2]


# ----------------------------------------------------------------------
# Daemon: `repro serve` driven by one client in a closed loop
# ----------------------------------------------------------------------
_READY = re.compile(r"listening on \S+:(\d+)")


class Daemon:
    """A ``repro serve`` child with default thread workers."""

    def __init__(self, span_file: Optional[Path] = None) -> None:
        args = ["serve", "--port", "0", "--max-refinements", str(MAX_REFINEMENTS)]
        if span_file is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(LAUNCHER), str(span_file), *args]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        self.max_rss_kb = 0
        line = self.proc.stdout.readline()
        match = _READY.search(line)
        if match is None:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon did not announce readiness: {line!r}")
        self.port = int(match.group(1))

    def client(self) -> Any:
        from repro import ServiceClient

        return ServiceClient(port=self.port, timeout=CHILD_TIMEOUT)

    def prebank(self, programs: list[Input]) -> None:
        """Verify each decidable suite program once, so repeats start warm."""
        with self.client() as client:
            for item in programs:
                doc = client.verify(item.source, name=item.name)
                if doc.get("verdict") != item.expected:
                    raise RuntimeError(f"pre-banking {item.name}: {doc.get('verdict')} != {item.expected}")

    def stats(self) -> dict[str, Any]:
        with self.client() as client:
            return client.stats()["service"]

    def stop(self) -> None:
        """Drain through the ``shutdown`` op, then reap (kill if it hangs)."""
        from repro import ServiceError

        if self.proc.returncode is not None:
            return
        try:
            with self.client() as client:
                client.shutdown()
        except (ServiceError, OSError):
            self.proc.terminate()
        deadline = time.monotonic() + CHILD_TIMEOUT
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = usage.ru_maxrss
        self.proc.stdout.close()


def prebank_inputs(suite: list[Input]) -> list[Input]:
    return [item for item in suite if item.name not in UNDECIDED_SUITE]


def daemon_load(daemon: Daemon, arrivals: list[Arrival], traced: bool) -> Pass:
    """One client sends each arrival's requests as soon as the previous
    arrival is answered (a closed loop).  A burst's copies are pipelined
    together, so the daemon may coalesce them; each copy's latency runs from
    the send to the last answer of its arrival.
    """
    outcomes = []
    solver: dict[str, float] = {}
    with daemon.client() as client:
        start = time.perf_counter()
        for arrival in arrivals:
            item = arrival.input
            began = time.perf_counter()
            docs = client.submit_many([(item.name, item.source)] * arrival.copies)
            latency = time.perf_counter() - began
            for copy, doc in enumerate(docs):
                outcome = Outcome.from_doc(item, doc, latency, burst=arrival.copies > 1, duplicate=copy > 0)
                outcomes.append(outcome)
                if not outcome.coalesced:
                    add_counters(solver, outcome.solver)
        end = time.perf_counter()
    return Pass(start, end, outcomes, traced, solver)


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)

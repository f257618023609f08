"""Benchmark of the path-invariant verifier: four workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Workloads (see ``METRICS.md`` for why each was chosen and what each layer
metric should move):

* ``suite``    -- the 16 built-in programs, once each, in a fresh ``Session``;
* ``loopfree`` -- seeded loop-free generated programs, 600 per pass;
* ``daemon``   -- a ``repro serve`` child driven by one client in a closed loop,
  20 arrivals per pass;
* ``cli``      -- one ``python -m repro verify`` process per generated file, 12 per pass.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it installs span wrappers around each layer's entry points and prints the
per-layer metrics, writing a Chrome trace (``.perfbench/trace-*.json``,
opens in Perfetto) and a per-layer summary with self times
(``.perfbench/layers-*.json``).  Every verdict with a known answer is
checked; a wrong one makes the command exit 1.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import OUT, SRC  # noqa: E402

WORKLOADS = ("suite", "loopfree", "daemon", "cli")
#: Set-ups per run whose median is ``setup_s``.
SETUP_REPEATS = {"suite": 5, "loopfree": 5, "cli": 5, "daemon": 3}
#: A tail percentile needs at least this many samples (ten beyond p95).
TAIL_SAMPLES = 200


@dataclass
class Run:
    """Everything one run measured."""

    passes: list[Any] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    peak_rss_kb: int = 0
    #: Traced runs only: span rows, wall of the untraced twin, extra layers.
    rows: list[list[Any]] = field(default_factory=list)
    untraced_wall: float = 0.0
    traced_wall: float = 0.0
    unattributed_ms: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    #: The base of each ratio in ``layers``, printed next to it.
    bases: dict[str, str] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: list[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    return ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def host_steal() -> tuple[int, int]:
    """(steal, total) jiffies of this machine so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def share(part: float, base: float) -> float:
    return part / base if base else 0.0


def timebox(one_pass: Callable[[], list[Any]], seconds: float) -> list[Any]:
    """Repeat ``one_pass`` while another repetition fits in ``seconds``
    (always at least once).  Returns every pass produced."""
    produced: list[Any] = []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        produced.extend(one_pass())
        took = time.perf_counter() - began
        if time.perf_counter() - started + took > seconds:
            return produced


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup_only(args: argparse.Namespace) -> int:
    """What a run does before its first timed input; prints ``ready``."""
    import workloads
    import inputs

    built = inputs.build(args.workload, args.seed, args.scale)
    if args.workload == "cli":
        directory = OUT / f"setup-{os.getpid()}"
        workloads.write_sources(built.programs, directory)
        workloads.cleanup(directory)
    else:
        workloads.make_session()
    print("ready", flush=True)
    return 0


def probe_setups(args: argparse.Namespace) -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of set-up."""
    import workloads

    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--scale", str(args.scale), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS[args.workload]):
        began = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=workloads.child_env(), cwd=workloads.ROOT, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - began)
            code = proc.wait(workloads.CHILD_TIMEOUT)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return times


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_inprocess(args: argparse.Namespace, built: Any) -> Run:
    from workloads import inprocess_pass
    from tracing import Tracer, covered_ms

    run = Run()
    slices = built.slices()
    turn = itertools.count()
    if not args.trace:
        run.setups = probe_setups(args)
        run.passes = timebox(lambda: [inprocess_pass(slices[next(turn) % len(slices)])], args.seconds)
    else:
        tracer = Tracer()

        def pair() -> list[Any]:
            programs = slices[next(turn) % len(slices)]
            # Traced first: it pays the process's cold start, so the
            # overhead ratio errs high rather than low.
            tracer.install()
            try:
                traced = inprocess_pass(programs, traced=True)
            finally:
                tracer.uninstall()
            return [traced, inprocess_pass(programs)]

        run.passes = timebox(pair, args.seconds)
        run.rows = tracer.export()
        traced = [p for p in run.passes if p.traced]
        run.untraced_wall = median([p.wall for p in run.passes if not p.traced])
        run.traced_wall = median([p.wall for p in traced])
        run.unattributed_ms = sum(p.wall * 1000.0 - covered_ms(run.rows, p.start, p.end) for p in traced)
    run.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return run


def run_cli(args: argparse.Namespace, built: Any) -> Run:
    import workloads
    from tracing import covered_ms, merge_rows

    run = Run()
    directory = OUT / f"cli-{args.seed}-{os.getpid()}"
    try:
        slices = built.slices()
        path_slices = [workloads.write_sources(programs, directory) for programs in slices]
        if not args.trace:
            run.setups = probe_setups(args)
            invocations: list[Any] = []
            turn = itertools.count()

            def one() -> list[Any]:
                index = next(turn) % len(slices)
                measured, invoked = workloads.cli_pass(slices[index], path_slices[index])
                invocations.extend(invoked)
                return [measured]

            run.passes = timebox(one, args.seconds)
            run.peak_rss_kb = max(invocation.max_rss_kb for invocation in invocations)
            return run
        bare = workloads.median_child_ms([sys.executable, "-c", "pass"], 5)
        imported = workloads.median_child_ms([sys.executable, "-c", "import repro"], 5)
        untraced, _ = workloads.cli_pass(slices[0], path_slices[0])
        span_dir = directory / "spans"
        span_dir.mkdir()
        traced, invocations = workloads.cli_pass(slices[0], path_slices[0], span_dir)
        run.passes = [untraced, traced]
        run.rows = merge_rows(
            json.loads((span_dir / f"cli-{index}.json").read_text()) for index in range(len(slices[0]))
        )
        run.untraced_wall, run.traced_wall = untraced.wall, traced.wall
        run.unattributed_ms = sum(
            (inv.exited - inv.spawned) * 1000.0
            - covered_ms([row for row in run.rows if row[6] == inv.pid], inv.spawned, inv.exited)
            for inv in invocations
        )
        run.peak_rss_kb = max(invocation.max_rss_kb for invocation in invocations)
        run.layers = {
            "cli.interpreter_ms": bare,
            "cli.import_ms": imported - bare,
            "cli.engine_ms": median([o.engine_seconds * 1000.0 for o in traced.outcomes]),
        }
        return run
    finally:
        workloads.cleanup(directory)


def run_daemon(args: argparse.Namespace, built: Any) -> Run:
    import inputs
    import workloads
    from tracing import covered_ms, merge_rows, window

    run = Run()
    bank = workloads.prebank_inputs(inputs.suite_inputs())

    def start(span_file: Optional[Path] = None) -> Any:
        daemon = workloads.Daemon(span_file)
        try:
            daemon.prebank(bank)
        except BaseException:
            daemon.stop()
            raise
        return daemon

    blocks = built.blocks()
    turn = itertools.count()
    if not args.trace:
        for _ in range(SETUP_REPEATS["daemon"] - 1):
            began = time.perf_counter()
            start().stop()
            run.setups.append(time.perf_counter() - began)
        began = time.perf_counter()
        daemon = start()
        run.setups.append(time.perf_counter() - began)
        try:
            run.passes = timebox(
                lambda: [workloads.daemon_load(daemon, blocks[next(turn) % len(blocks)], traced=False)],
                args.seconds,
            )
        finally:
            daemon.stop()
        run.peak_rss_kb = daemon.max_rss_kb
        return run

    # Traced: the first blocks against a plain daemon, then the same blocks
    # against one running the span wrappers (for the overhead ratio).
    daemon = start()
    try:
        untraced = timebox(
            lambda: [workloads.daemon_load(daemon, blocks[next(turn) % len(blocks)], traced=False)],
            args.seconds / 2,
        )
    finally:
        daemon.stop()
    span_file = OUT / f"daemon-spans-{os.getpid()}.json"
    daemon = start(span_file)
    try:
        before = daemon.stats()
        traced = [workloads.daemon_load(daemon, blocks[index], traced=True) for index in range(len(untraced))]
        after = daemon.stats()
    finally:
        daemon.stop()
    try:
        # Only the load: pre-banking ran in the same traced process.
        rows = json.loads(span_file.read_text())
        run.rows = merge_rows(window(rows, p.start, p.end) for p in traced)
    finally:
        span_file.unlink(missing_ok=True)
    run.passes = untraced + traced
    run.peak_rss_kb = daemon.max_rss_kb
    run.untraced_wall = sum(p.wall for p in untraced)
    run.traced_wall = sum(p.wall for p in traced)
    run.unattributed_ms = sum(p.wall * 1000.0 - covered_ms(run.rows, p.start, p.end) for p in traced)
    outcomes = [o for p in traced for o in p.outcomes]
    overhead = [(o.latency - o.engine_seconds) * 1000.0 for o in outcomes if not o.duplicate]
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in ("engine_runs", "warm_hits", "coalesce_hits", "verify_requests", "rejections")}
    run.layers = {
        "serve.execute_ms": sum(o.engine_seconds for o in outcomes if not o.coalesced) * 1000.0,
        "serve.overhead_p50_ms": median(overhead),
        "serve.overhead_p95_ms": percentile(overhead, 95),
        "serve.warm_hit_share": share(delta["warm_hits"], delta["engine_runs"]),
        "serve.coalesce_hit_share": share(delta["coalesce_hits"], delta["verify_requests"]),
        "serve.rejections": delta["rejections"],
        "serve.peak_pending": after.get("peak_pending", 0),
    }
    run.bases = {
        "serve.warm_hit_share": f"warm_hits {delta['warm_hits']} / engine_runs {delta['engine_runs']}",
        "serve.coalesce_hit_share": f"coalesce_hits {delta['coalesce_hits']} / verify_requests {delta['verify_requests']}",
    }
    return run


# ----------------------------------------------------------------------
# Verdict gate
# ----------------------------------------------------------------------
@dataclass
class Gate:
    attempted: int
    decided: int
    wrong: list[Any]
    failures: list[Any]
    unchecked: int
    unknown_reasons: dict[str, str]

    @property
    def failed(self) -> int:
        return len(self.wrong) + len(self.failures)

    @property
    def correct(self) -> bool:
        """No wrong verdict and no engine error doc."""
        return not self.wrong and not any(o.failure == "error" for o in self.failures)


def gate(outcomes: list[Any]) -> Gate:
    """Check every verdict that has a known answer."""
    decided = [o for o in outcomes if o.verdict in ("safe", "unsafe")]
    reasons: dict[str, str] = {}
    for o in outcomes:
        if o.verdict == "unknown" and not o.failure:
            reasons.setdefault(o.input.name, o.reason)
    return Gate(
        attempted=len(outcomes),
        decided=len(decided),
        wrong=[o for o in decided if o.input.expected and o.verdict != o.input.expected],
        failures=[o for o in outcomes if o.failure],
        unchecked=sum(1 for o in decided if o.input.expected is None),
        unknown_reasons=reasons,
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(run: Run, result: Gate) -> tuple[dict[str, Any], list[str]]:
    latencies = [o.latency * 1000.0 for p in run.passes for o in p.outcomes if not o.duplicate]
    notes = [
        f"latency samples n={len(latencies)} over {len(run.passes)} pass(es)",
        "pass walls (s): " + ", ".join(f"{p.wall:.3f}" for p in run.passes),
    ]
    if len(latencies) < TAIL_SAMPLES:
        notes.append(
            f"latency_p95_ms: n={len(latencies)} < {TAIL_SAMPLES}, so fewer than ten samples lie "
            "beyond it; read it as a nearest-rank upper value, not a tail estimate"
        )
    metrics = {
        "setup_s": (median(run.setups), "s"),
        "wall_s": (median([p.wall for p in run.passes]), "s"),
        "geomean_ms": (
            median([geomean([o.latency * 1000.0 for o in p.outcomes if not o.duplicate]) for p in run.passes]),
            "ms",
        ),
        "latency_p50_ms": (median(latencies), "ms"),
        "latency_p95_ms": (percentile(latencies, 95), "ms"),
        "decided_share": (share(result.decided, result.attempted), "ratio"),
        "peak_rss_mb": (run.peak_rss_kb / 1024.0, "MB"),
    }
    notes.append(f"failed_share = {share(result.failed, result.attempted)} (failed {result.failed} / attempted {result.attempted})")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, notes


def per_layer(run: Run) -> tuple[dict[str, Any], list[str]]:
    from tracing import summarize
    from workloads import add_counters

    summary = summarize(run.rows)
    traced = [p for p in run.passes if p.traced]
    outcomes = [o for p in traced for o in p.outcomes]
    runs = [o for o in outcomes if not o.coalesced]
    solver: dict[str, float] = {}
    for p in traced:
        add_counters(solver, p.solver)
    values: dict[str, tuple[float, str]] = {}
    bases = dict(run.bases)

    def timed(metric: str, span: str, calls: bool = True) -> None:
        values[f"{metric}_ms"] = (summary[span]["ms"], "ms")
        if calls:
            values[f"{metric}_calls"] = (summary[span]["calls"], "count")

    def ratio(metric: str, part: float, base: float, text: str) -> None:
        values[metric] = (share(part, base), "ratio")
        bases[metric] = f"{text} {part:g} / {base:g}"

    timed("lang.parse", "lang.parse")
    timed("core.explore", "core.explore")
    values["core.post_decisions"] = (sum(o.post_decisions for o in runs), "count")
    values["core.nodes_created"] = (sum(o.nodes_created for o in runs), "count")
    timed("core.cex", "core.cex")
    cex = summary["core.cex"]
    ratio("core.cex_feasible_share", cex["true"], cex["calls"], "feasible / analysed")
    timed("core.refine", "core.refine")
    refine = summary["core.refine"]
    ratio("core.refine_progress_share", refine["true"], refine["calls"], "progress / refinements")
    timed("core.path_program", "core.path_program", calls=False)
    timed("core.repair", "core.repair", calls=False)
    timed("core.seed", "core.seed", calls=False)
    timed("core.bank", "core.bank", calls=False)
    ratio("core.warm_start_share", sum(1 for o in outcomes if o.warm), len(outcomes), "warm-started / inputs")
    timed("invgen.synthesize", "invgen.synthesize")
    synth = summary["invgen.synthesize"]
    ratio("invgen.synthesize_success_share", synth["true"], synth["calls"], "succeeded / attempts")
    timed("invgen.farkas", "invgen.farkas", calls=False)
    timed("invgen.triple", "invgen.triple")
    for layer in ("smt.edge_feasible", "smt.post_all", "smt.triple", "smt.feasibility"):
        timed(layer, layer)
    ratio("smt.triple_hit_share", solver.get("triple_cache_hits", 0), solver.get("triple_checks", 0), "triple_cache_hits / triple_checks")
    ratio("smt.edge_hit_share", solver.get("edge_cache_hits", 0), solver.get("edge_queries", 0), "edge_cache_hits / edge_queries")
    ratio("smt.post_hit_share", solver.get("post_cache_hits", 0), solver.get("post_queries", 0), "post_cache_hits / post_queries")
    values["smt.ssa_translations"] = (solver.get("ssa_translations", 0), "count")
    values["smt.simplex_checks"] = (solver.get("simplex_checks", 0), "count")
    for name, unit in PROBED_LAYERS.items():
        values[name] = (run.layers.get(name, 0), unit)
    values["trace.unattributed_ms"] = (run.unattributed_ms, "ms")
    values["trace.overhead_share"] = (share(run.traced_wall, run.untraced_wall) - 1.0 if run.untraced_wall else 0.0, "ratio")
    bases["trace.overhead_share"] = f"traced {run.traced_wall:.4f} s / untraced {run.untraced_wall:.4f} s - 1"
    traced_wall = sum(p.wall for p in traced) * 1000.0
    notes = [f"{name} base: {text}" for name, text in bases.items()]
    notes.append(f"trace.unattributed_ms is {share(run.unattributed_ms, traced_wall):.1%} of the traced wall {traced_wall:.1f} ms")
    for name, entry in summary.items():
        if entry["calls"]:
            notes.append(f"span {name}: calls {entry['calls']}, inclusive {entry['ms']:.1f} ms, self {entry['self_ms']:.1f} ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}, notes


#: Layer metrics measured by the daemon and cli workloads rather than by spans
#: (0 on the other workloads), with their units.
PROBED_LAYERS = {
    "serve.execute_ms": "ms",
    "serve.overhead_p50_ms": "ms",
    "serve.overhead_p95_ms": "ms",
    "serve.warm_hit_share": "ratio",
    "serve.coalesce_hit_share": "ratio",
    "serve.rejections": "count",
    "serve.peak_pending": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.engine_ms": "ms",
}


def write_trace(args: argparse.Namespace, run: Run) -> tuple[Path, Path]:
    from tracing import chrome_trace, summarize

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    origin = min((row[1] for row in run.rows), default=0.0)
    trace_path = OUT / f"trace-{stem}.json"
    trace_path.write_text(json.dumps(chrome_trace(run.rows, origin)))
    traced_wall_ms = sum(p.wall for p in run.passes if p.traced) * 1000.0
    layers_path = OUT / f"layers-{stem}.json"
    layers_path.write_text(
        json.dumps(
            {
                "spans": summarize(run.rows),
                "traced_wall_ms": traced_wall_ms,
                "trace.unattributed_ms": run.unattributed_ms,
            },
            indent=1,
        )
    )
    return trace_path, layers_path


# ----------------------------------------------------------------------
def describe_inputs(workload: str, built: Any, outcomes: list[Any], digest: str) -> list[str]:
    n = len(outcomes)

    def count(predicate: Callable[[Any], bool]) -> str:
        hits = sum(1 for o in outcomes if predicate(o))
        return f"{hits}/{n} ({share(hits, n):.1%})"

    refinements = Counter(o.refinements for o in outcomes)
    return [
        f"workload {workload}: {len(built.programs)} inputs, {len(built.slices()[0])} per pass, digest {digest}",
        "input properties (share of attempted inputs): "
        f"loops {count(lambda o: o.input.loops)}, arrays {count(lambda o: o.input.arrays)}, "
        f"planted bug {count(lambda o: o.input.planted)}, warm repeat {count(lambda o: o.warm)}, "
        f"part of a burst {count(lambda o: o.burst)}, coalesced {count(lambda o: o.coalesced)}",
        f"refinements per input: mean {share(sum(o.refinements for o in outcomes), n):.3f}, "
        "histogram " + ", ".join(f"{k}: {v}" for k, v in sorted(refinements.items())),
    ]


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time box")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the inputs (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no verifier sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_only(args)
    import inputs

    OUT.mkdir(exist_ok=True)
    built = inputs.build(args.workload, args.seed, args.scale)
    digest = inputs.digest(built)
    runner = {"suite": run_inprocess, "loopfree": run_inprocess, "cli": run_cli, "daemon": run_daemon}
    steal_before = host_steal()
    run = runner[args.workload](args, built)
    steal, total = (after - before for after, before in zip(host_steal(), steal_before))
    outcomes = [o for p in run.passes for o in p.outcomes]
    result = gate(outcomes)

    lines = describe_inputs(args.workload, built, outcomes, digest)
    lines.append(
        f"verdicts: attempted {result.attempted}, decided {result.decided}, "
        f"unknown {sum(1 for o in outcomes if o.verdict == 'unknown' and not o.failure)}, "
        f"wrong {len(result.wrong)}, failures {len(result.failures)}, "
        f"unchecked {result.unchecked} (decided generated programs without a planted bug: "
        "no independent reference answer)"
    )
    lines += [f"WRONG {o.input.name}: got {o.verdict}, expected {o.input.expected}" for o in result.wrong]
    lines += [f"FAILURE {o.input.name}: {o.failure}: {o.reason}" for o in result.failures[:20]]
    lines += [f"unknown {name}: {reason}" for name, reason in sorted(result.unknown_reasons.items())]
    if args.trace:
        metrics, notes = per_layer(run)
        trace_path, layers_path = write_trace(args, run)
        notes.append(f"chrome trace: {trace_path.relative_to(OUT.parent)}; layer summary: {layers_path.relative_to(OUT.parent)}")
    else:
        metrics, notes = end_to_end(run, result)
        notes.append("setup_s samples: " + ", ".join(f"{s:.4f}" for s in run.setups))
    # Time the hypervisor gave this machine's CPUs to other guests: a run
    # with a large share measured the host, not the verifier.
    notes.append(f"host steal during the run: {share(steal, total):.1%} of CPU time")
    lines += notes
    lines += [f"{name} = {entry['value']} {entry['unit']}" for name, entry in metrics.items()]
    for line in lines:
        print(line)
    print(json.dumps({"correct": result.correct, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

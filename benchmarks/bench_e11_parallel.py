"""E11 — Parallel in-run ART exploration vs the sequential engine.

Two properties, measured separately:

**Equivalence** — ``jobs=N`` must be *observationally identical* to the
sequential engine on the full 16-combo corpus the incremental-vs-restart
differential (bench_e8 / tests/core/test_engine.py) established: same
verdicts, same precisions, same abstract-post decision counts.  Workers
only pre-decide ``(state, transition, predicate)`` verdicts the unchanged
sequential commit loop then consumes as cache hits, so nothing about the
answer may move.

**Latency hiding** — the wall-clock win of column-sharded speculation.  On
one CPython core the solver shards cannot add raw compute (the GIL
serialises pure-Python solving), so the speedup experiment injects a
deterministic per-query solver latency with the ``slow-post`` fault: every
undecided predicate of a batched abstract post stalls ``SLEEP_SECONDS``,
modelling the per-query round-trip of a remote or disk-backed solver
backend.  ``time.sleep`` releases the GIL, so stalls on worker shards
overlap — exactly the latency a multi-context solver deployment hides.
The restart engine is used because it re-derives the whole tree every
round: the widest exploration workload, with no sequential repair phase
diluting the parallel section.  Raw (no-fault) wall ratios are recorded
for the trend file but never asserted — on a single core with the GIL
they hover around 1.0 by construction.

The ≥1.5x bar at 4 workers is asserted on the wide-ART programs the issue
names: PARTITION and INITCHECK.
"""

import time

import pytest

from common import record, run_once
from repro import Session, VerifierOptions
from repro.core.faults import FaultPlan, FaultSpec, installed
from repro.lang import get_program

#: Mirror of tests/core/test_engine.py::EQUIVALENCE_CORPUS — one definition
#: there for tier-1, one here so the bench file stays self-contained.
EQUIVALENCE_CORPUS = [
    ("forward", "path-invariant"),
    ("forward", "path-formula"),
    ("initcheck", "path-invariant"),
    ("double_counter", "path-invariant"),
    ("double_counter", "path-formula"),
    ("up_down", "path-formula"),
    ("lock_step", "path-invariant"),
    ("lock_step", "path-formula"),
    ("simple_safe", "path-invariant"),
    ("simple_unsafe", "path-invariant"),
    ("simple_unsafe", "path-formula"),
    ("diamond_safe", "path-invariant"),
    ("forward_buggy", "path-invariant"),
    ("array_init_buggy", "path-invariant"),
    ("array_init_const", "path-invariant"),
    ("array_copy", "path-invariant"),
]

#: Injected per-query solver latency for the speedup experiment.
SLEEP_SECONDS = 0.02

#: The wide-ART speedup suite: program -> engine options.  PARTITION's
#: budget stops before its third refinement, whose quantified path-invariant
#: search is pure refiner compute that no exploration pool can touch.
SPEEDUP_SUITE = {
    "initcheck": dict(max_refinements=8),
    "partition": dict(max_refinements=2, max_nodes=40),
}

#: Asserted wall-clock bar at four workers under injected solver latency.
MIN_SPEEDUP = 1.5


def run_with_jobs(name, jobs, refiner="path-invariant", incremental=True, **kw):
    options = VerifierOptions(
        refiner=refiner, jobs=jobs, incremental=incremental, **kw
    )
    return Session(options).run(get_program(name))


def _timed(name, jobs, **kw):
    start = time.perf_counter()
    result = run_with_jobs(name, jobs, incremental=False, **kw)
    return time.perf_counter() - start, result


@pytest.mark.parametrize("name,refiner", EQUIVALENCE_CORPUS)
def test_parallel_is_observationally_sequential(benchmark, name, refiner):
    def run_all_modes():
        sequential = run_with_jobs(name, 1, refiner, max_refinements=4)
        parallel = {
            jobs: run_with_jobs(name, jobs, refiner, max_refinements=4)
            for jobs in (2, 4)
        }
        return sequential, parallel

    sequential, parallel = run_once(benchmark, run_all_modes)
    record(
        benchmark,
        verdict=sequential.verdict,
        post_decisions=sequential.post_decisions(),
    )
    for jobs, result in parallel.items():
        assert result.verdict == sequential.verdict, (name, refiner, jobs)
        assert (
            result.precision.snapshot() == sequential.precision.snapshot()
        ), (name, refiner, jobs)
        assert result.post_decisions() == sequential.post_decisions(), (
            name, refiner, jobs,
        )


@pytest.mark.parametrize("name", sorted(SPEEDUP_SUITE))
def test_four_workers_hide_solver_latency(benchmark, name):
    kw = SPEEDUP_SUITE[name]

    def run_experiment():
        plan = FaultPlan(
            [FaultSpec(kind="slow-post", key="*", seconds=SLEEP_SECONDS, attempts=())]
        )
        with installed(plan):
            seq_seconds, seq_result = _timed(name, 1, **kw)
            par_seconds, par_result = _timed(name, 4, **kw)
        assert plan.fired, "the injected solver latency never fired"
        # The raw (fault-free) ratio rides along for the trend file: on a
        # single GIL-bound core it is ~1.0 and is deliberately unasserted.
        raw_seq_seconds, _ = _timed(name, 1, **kw)
        raw_par_seconds, _ = _timed(name, 4, **kw)
        return (
            seq_seconds, par_seconds, seq_result, par_result,
            raw_seq_seconds, raw_par_seconds,
        )

    (
        seq_seconds, par_seconds, seq_result, par_result,
        raw_seq_seconds, raw_par_seconds,
    ) = run_once(benchmark, run_experiment)

    speedup = seq_seconds / par_seconds
    record(
        benchmark,
        verdict=seq_result.verdict,
        sequential_seconds=round(seq_seconds, 4),
        parallel_seconds=round(par_seconds, 4),
        speedup=round(speedup, 4),
        raw_ratio=round(raw_seq_seconds / raw_par_seconds, 4),
        post_decisions=seq_result.post_decisions(),
    )
    # Same answer, faster wall clock: latency hiding must never trade
    # correctness, and four workers must clear the bar.
    assert par_result.verdict == seq_result.verdict
    assert par_result.precision.snapshot() == seq_result.precision.snapshot()
    assert par_result.post_decisions() == seq_result.post_decisions()
    assert speedup >= MIN_SPEEDUP, (
        f"{name}: {speedup:.2f}x at 4 workers, expected >= {MIN_SPEEDUP}x "
        f"({seq_seconds:.2f}s sequential vs {par_seconds:.2f}s parallel)"
    )
